"""The pair table and the checks that replay per-key outcomes to vertex
pairs, against the per-pair loops they replaced, and the ball graph's
lemmas that its edge rule guarantees, by brute force.

The reference functions below are the earlier per-pair code: every pair is
classified with Fraction comparisons, and every tree-side quantity is
recomputed for every pair.  On doctored stage-1 maps, where the checks
fail, the replayed checks must give the same instance counts, statuses and
first violations."""
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrees.approx import CLOSE, DISTINCT, RADIAL, UNCLASSIFIED, Vertex, \
    build_approximation, check_geodesic_shape
from qtrees.labelling import check_critical_letters
from qtrees.metric import ScaleParams, compute_k0, make_space
from qtrees.pipeline import Pipeline
from qtrees.presets import config_for
from qtrees import reporting, stage1
from qtrees.reporting import PASS, CheckResult
from qtrees.stage1 import PairRow, check_segment_dip, classify_pair, \
    stage1_suite
from qtrees.trees import LevelledTree

# ---------------------------------------------------------------------------
# References: the per-pair loops


def chain(emb, c, v):
    """The containing chain of v in color c."""
    return emb.chains[v][1][emb.colors.index(c)]


def reference_stage1_suite(emb):
    graph = emb.graph
    C = len(emb.colors)
    lip = CheckResult("stage1-tree-lipschitz", PASS)
    close_radial = CheckResult("stage1-close-radial-segment", PASS)
    close_bound = CheckResult("stage1-close-pair-bound", PASS)
    distinct_bound = CheckResult("stage1-distinct-pair-bound", PASS)
    global_bound = CheckResult("stage1-global-lower-bound", PASS)
    rows = []
    for v, w in itertools.combinations(graph.vertices, 2):
        gd = graph.distances_from(v)[w]
        per_color = {c: emb.trees[c].generation_distance(
            emb.image(c, v), emb.image(c, w)) for c in emb.colors}
        total = sum(per_color.values())
        pc = classify_pair(graph, v, w)
        lip.checked += 1
        for c, td in per_color.items():
            if td > 2 * gd:
                lip.add_violation({"pair": (v, w), "color": c,
                                   "tree_dist": td, "graph_dist": gd})
        best_color = None
        bound_rhs = None
        violation = False
        if pc.kind == CLOSE:
            close_radial.checked += 1
            for c in emb.colors:
                t = emb.trees[c]
                a, b = emb.image(c, v), emb.image(c, w)
                if t.lca(a, b) not in (a, b):
                    close_radial.add_violation({"pair": (v, w), "color": c})
            close_bound.checked += 1
            ok = False
            for c in sorted(per_color, key=lambda c: -per_color[c]):
                rhs = C * per_color[c] + (C + 1)
                if gd <= rhs:
                    ok, best_color, bound_rhs = True, c, rhs
                    break
            if not ok:
                violation = True
                close_bound.add_violation({"pair": (v, w), "dist": gd,
                                           "per_color": per_color})
        elif pc.kind == DISTINCT:
            l = pc.critical_level
            hi, lo_v = (v, w) if v.level >= w.level else (w, v)
            distinct_bound.checked += 1
            ok = False
            for c in emb.colors:
                t = emb.trees[c]
                a, b = emb.image(c, hi), emb.image(c, lo_v)
                wv = t.lca(a, b)
                dist_aw = t.generation_distance(a, wv)
                lhs_levels = max(t.level[a], t.level[b]) - l + 1
                if lhs_levels <= C * (dist_aw + 1) and \
                        gd <= 2 * C * dist_aw + (2 * C + 1):
                    ok, best_color = True, c
                    bound_rhs = 2 * C * dist_aw + 2 * C + 1
                    break
            if not ok:
                violation = True
                distinct_bound.add_violation({"pair": (v, w), "dist": gd,
                                              "critical": l})
        global_bound.checked += 1
        if gd > 2 * C * total + (2 * C + 1):
            violation = True
            global_bound.add_violation({"pair": (v, w), "dist": gd,
                                        "product_dist": total})
        rows.append(PairRow(v, w, gd, pc.kind, pc.critical_level, total,
                            best_color, bound_rhs, violation))
    checks = [lip, close_radial, close_bound, distinct_bound, global_bound,
              reference_segment_dip(emb), reference_level_escape(emb)]
    return checks, rows


def element_pair_dip(t, k0, c, a, b, l):
    """The violations of one element pair, by walking the paths from the
    meet to both ends: the root counts as level k0."""

    def eff(uid):
        return k0 if uid == t.root else t.level[uid]

    meet = t.lca(a, b)
    if eff(meet) >= l:
        return [{"color": c, "meet": meet, "critical": l}]
    found = []
    for end in (a, b):
        path = t.paths[end]
        seg = path[path.index(meet):]
        below = sum(1 for u in seg if eff(u) < l)
        if below > 3:
            found.append({"color": c, "end": end, "below": below})
    return found


def reference_segment_dip(emb):
    res = CheckResult("stage1-critical-segment-shape", PASS)
    graph = emb.graph
    k0 = graph.scale.k0
    for v, w in itertools.combinations(graph.vertices, 2):
        pc = classify_pair(graph, v, w)
        if pc.kind != DISTINCT:
            continue
        l = pc.critical_level
        for c in emb.colors:
            t = emb.trees[c]
            for a in chain(emb, c, v):
                for b in chain(emb, c, w):
                    res.checked += 1
                    for info in element_pair_dip(t, k0, c, a, b, l):
                        res.add_violation({"pair": (v, w), **info})
    return res


def every_element_pair_dip(emb):
    """``reference_segment_dip`` on the pair table: every element pair of
    every distinct pair is visited, and its violations are walked once
    per (color, a, b, critical level), so that the large configs fit."""
    res = CheckResult("stage1-critical-segment-shape", PASS)
    k0 = emb.graph.scale.k0
    walked = {}
    for v, w, _, kind, l in emb.graph.pairs:
        if kind != DISTINCT:
            continue
        for c in emb.colors:
            for a in chain(emb, c, v):
                for b in chain(emb, c, w):
                    res.checked += 1
                    found = walked.get((c, a, b, l))
                    if found is None:
                        found = walked[c, a, b, l] = element_pair_dip(
                            emb.trees[c], k0, c, a, b, l)
                    for info in found:
                        res.add_violation({"pair": (v, w), **info})
    return res


def reference_level_escape(emb):
    res = CheckResult("stage1-level-escape", PASS)
    C = len(emb.colors)
    for v in emb.graph.vertices:
        j = v.level - 1
        if j < 0:
            continue
        for i in range(0, j + 1):
            res.checked += 1
            best = None
            for c in emb.colors:
                tree = emb.trees[c]
                uid = emb.image(c, v)
                level_i = tree.level_vertices(i)
                if not level_i:
                    best = None
                    break
                m = min(tree.generation_distance(uid, u)
                        for u in level_i)
                if best is None or m > best:
                    best = m
            if best is not None and F(j - i + 1, C) > best + 1:
                res.add_violation({"vertex": v, "i": i, "best": best})
    return res


def reference_critical_letters(st2):
    res = CheckResult("stage2-critical-letters", PASS)
    emb = st2.stage1
    graph = emb.graph
    lab = st2.labelling
    elements = {e.uid: e for e in emb.seq.elements}
    for v, w in itertools.combinations(graph.vertices, 2):
        pc = classify_pair(graph, v, w)
        if pc.kind != DISTINCT:
            continue
        l = pc.critical_level
        if l < 1:
            continue
        for c in st2.colors:
            for ua in chain(emb, c, v):
                if elements[ua].level < l + 1:
                    continue
                for ub in chain(emb, c, w):
                    if elements[ub].level < l + 1:
                        continue
                    if ua == ub:
                        res.add_violation(
                            {"pair": (v, w), "element": ua,
                             "reason": "shared element despite critical gap"})
                        continue
                    res.checked += 1
                    a, m = lab.letter_at_level(c, ua, l)
                    b, mp = lab.letter_at_level(c, ub, l)
                    if a == b:
                        res.add_violation({"pair": (v, w), "color": c,
                                           "elements": (ua, ub), "level": l,
                                           "reason": "equal letters"})
                    if abs(m - mp) > 2:
                        res.add_violation({"pair": (v, w), "color": c,
                                           "words": (m, mp)})
    if res.checked == 0 and res.status == PASS:
        res.notes = "no qualifying pairs"
    return res


# ---------------------------------------------------------------------------
# The lemmas of the ball graph that its edge rule guarantees, by brute force
# on Fractions (the proofs are in the ``approx`` module docstring).  Each
# predicate lists what breaks its lemma; an empty list means it holds.


def vertices_without_central_ancestor(graph):
    """Non-root vertices v with no vertex one level down, closer than
    r^(level - 1), that is radially joined to v and to every same-level
    neighbour of v."""
    sep = graph.scale.sep
    missing = []
    for v in graph.vertices:
        if v == graph.root:
            continue
        peers = [u for u in graph.adj[v] if u.level == v.level]
        if not any(graph.edge_kind.get(frozenset((v, w))) == RADIAL and
                   all(graph.has_edge(u, w) for u in peers)
                   for w in graph.vertices if w.level == v.level - 1 and
                   graph.d(v, w) < sep(w.level)):
            missing.append(v)
    return missing


def descents_apart(graph):
    """(v, w, a, b) for every horizontal edge vw and vertices a and b
    radially below v and w that are neither equal nor joined."""
    apart = []
    for v, w in itertools.combinations(graph.vertices, 2):
        if v.level != w.level or not graph.has_edge(v, w):
            continue
        for a in graph.adj[v]:
            for b in graph.adj[w]:
                if a.level == b.level == v.level - 1 and a != b and \
                        not graph.has_edge(a, b):
                    apart.append((v, w, a, b))
    return apart


def touching_balls_too_far(graph):
    """Pairs whose closed balls of radius 2 r^level touch, more than
    |level difference| + 1 apart in the graph."""
    sep = graph.scale.sep
    return [(v, w) for v, w in itertools.combinations(graph.vertices, 2)
            if graph.d(v, w) <= 2 * sep(v.level) + 2 * sep(w.level) and
            graph.distances_from(v)[w] > abs(v.level - w.level) + 1]


def distinct_pairs_too_far(graph):
    """Distinct pairs at critical level l more than
    level v + level w - 2l + 3 apart in the graph."""
    far = []
    for v, w in itertools.combinations(graph.vertices, 2):
        pc = classify_pair(graph, v, w)
        if pc.kind == DISTINCT and graph.distances_from(v)[w] > \
                v.level + w.level - 2 * pc.critical_level + 3:
            far.append((v, w))
    return far


GRAPH_LEMMAS = (vertices_without_central_ancestor, descents_apart,
                touching_balls_too_far, distinct_pairs_too_far)


def outcome(res: CheckResult) -> tuple:
    return res.check_id, res.status, res.checked, res.violations, res.notes


# ---------------------------------------------------------------------------
# Doctored stage-1 maps


def doctored(preset: str, how: str):
    """The preset's stage 2 over a stage-1 map that is wrong at one deep
    vertex x.  In every color its image becomes the tree root ("root") or
    the image of the deep vertex farthest from it ("far"), and its
    containing chain becomes that vertex's, so that the pairs of x with
    that vertex's neighbours share deep elements.  With "all-root" every
    vertex maps to the root as well."""
    pipe = Pipeline(config_for(preset))
    st2 = pipe.stage2
    emb = st2.stage1
    graph = emb.graph
    deep = [v for v in graph.vertices if v.level == graph.scale.max_level]
    x = deep[len(deep) // 3]
    far = max(deep, key=lambda v: (graph.d(x, v), v))
    roots = tuple(emb.trees[c].root for c in emb.colors)
    emb.images[x] = roots if how == "root" else emb.images[far]
    emb.chains[x] = emb.chains[far]
    if how == "all-root":
        emb.images.update(dict.fromkeys(graph.vertices, roots))
    return st2


DOCTORED = [("cantor", "root"), ("cantor", "far"), ("cantor", "all-root"),
            ("circle", "far")]


@pytest.fixture(scope="module", params=DOCTORED,
                ids=["-".join(p) for p in DOCTORED])
def doctored_stage2(request):
    return doctored(*request.param)


def test_doctored_stage1_replays_every_violation(doctored_stage2):
    emb = doctored_stage2.stage1
    checks, rows = stage1_suite(emb)
    expected, expected_rows = reference_stage1_suite(emb)
    assert [outcome(c) for c in checks] == [outcome(c) for c in expected]
    assert rows == expected_rows
    failed = {c.check_id for c in checks if c.status != PASS}
    dip = check_segment_dip(emb)
    assert outcome(dip) == outcome(reference_segment_dip(emb))
    assert dip.checked > 0 and len(dip.violations) == 20
    if emb.graph.space.kind == "cantor":
        # the one-color map also breaks the distance bounds
        assert {"stage1-distinct-pair-bound",
                "stage1-global-lower-bound"} <= failed, failed
        assert any(r.violation for r in rows)


def test_doctored_critical_letters_replay_every_violation(doctored_stage2):
    res = check_critical_letters(doctored_stage2)
    assert outcome(res) == outcome(reference_critical_letters(
        doctored_stage2))
    if doctored_stage2.stage1.graph.space.kind == "circle":
        assert res.checked > 0 and res.status != PASS


def test_segment_dip_replays_long_segments(monkeypatch):
    """A color tree of two branches of eight vertices at levels -6..1 below
    the root, and chains of varied length down either branch, so that
    pairs fail by a meet at or above the critical level and by more than
    three sub-critical vertices on a side.  Every violation is kept and
    compared."""
    monkeypatch.setattr(reporting, "MAX_VIOLATIONS_KEPT", 10**6)
    emb = Pipeline(config_for("cantor")).stage1
    graph = emb.graph
    branch = {s: [f"{s}{i}" for i in range(8)] for s in "ab"}
    parent, level = {"root": None}, {"root": -7}
    for names in branch.values():
        for i, u in enumerate(names):
            parent[u], level[u] = (names[i - 1] if i else "root"), i - 6
    tree = LevelledTree(root="root", parent=parent, level=level)
    emb.trees = {0: tree}
    keys, emb.chains = {}, {}
    for v in graph.vertices:
        side = branch["a" if 2 * v.center < graph.space.n else "b"]
        ch = ("root", *side[:(2 * v.level + v.center) % 9])
        emb.chains[v] = (keys.setdefault(ch, len(keys)),), (ch,)
    res = check_segment_dip(emb)
    assert outcome(res) == outcome(reference_segment_dip(emb))
    kinds = {"meet" if "meet" in info else "below" for info in res.violations}
    assert kinds == {"meet", "below"}
    assert res.checked > len(res.violations) > 20


def test_a_root_path_whose_levels_fall_takes_the_element_pair_loop(
        monkeypatch):
    """A color tree whose root path falls from level 9 to level 1 below
    the root, then forks at level 5: the tips of two chains meet at level
    1, below every critical level, but their ancestor at level 9 is an
    element pair meeting above it.  The tip test does not clear chains
    whose levels fall, so that violation is found at every critical
    level."""
    monkeypatch.setattr(reporting, "MAX_VIOLATIONS_KEPT", 10**6)
    emb = Pipeline(config_for("cantor")).stage1
    graph = emb.graph
    parent = {"root": None, "u": "root", "m": "u", "p": "m", "q": "m"}
    level = {"root": 0, "u": 9, "m": 1, "p": 5, "q": 5}
    emb.trees = {0: LevelledTree(root="root", parent=parent, level=level)}
    chains = {tip: ("root", "u", "m", tip) for tip in "pq"}
    emb.chains = {v: ((ord(tip),), (chains[tip],)) for v in graph.vertices
                  for tip in "pq"[v.center % 2]}
    res = check_segment_dip(emb)
    assert outcome(res) == outcome(reference_segment_dip(emb))
    assert {info["critical"] for info in res.violations
            if info.get("meet") == "u"} == {1, 2}


@pytest.mark.parametrize("how", ["fork", "gap"])
def test_a_chain_off_its_tips_root_path_takes_the_element_pair_loop(
        how, monkeypatch):
    """The cantor preset with one deep vertex's chain doctored: "fork"
    adds a level-1 element off its root path, "gap" drops its level-2
    element.  Either fails the tip test, so the pairs of that vertex take
    the element-pair loop, and every violation is that of the reference."""
    monkeypatch.setattr(reporting, "MAX_VIOLATIONS_KEPT", 10**6)
    emb = Pipeline(config_for("cantor")).stage1
    graph, tree = emb.graph, emb.trees[0]
    deep = [v for v in graph.vertices if v.level == graph.scale.max_level]
    x = deep[len(deep) // 3]
    path = chain(emb, 0, x)
    assert path == tree.paths[path[-1]] and len(path) == 5
    if how == "fork":
        off = next(u for u in tree.level_vertices(1) if u not in path)
        doctored_chain = tuple(sorted((*path, off)))
    else:
        doctored_chain = path[:2] + path[3:]
    emb.chains[x] = (1 + max(k for (k,), _ in emb.chains.values()),), \
        (doctored_chain,)
    dip, walked = stage1._dip, []

    def walked_dip(t, k0, c, a, b, l):
        walked.append((a, b))
        return dip(t, k0, c, a, b, l)

    monkeypatch.setattr(stage1, "_dip", walked_dip)
    res = check_segment_dip(emb)
    assert outcome(res) == outcome(reference_segment_dip(emb))
    assert set(itertools.chain(*walked)) >= set(doctored_chain)
    assert (res.status == PASS) == (how == "gap"), res.violations[:3]


def test_the_tip_test_clears_every_key_of_the_cantor_preset(monkeypatch):
    # every chain of a color tree is its tip's root path, and the preset
    # has no violation, so no element pair is visited
    emb = Pipeline(config_for("cantor")).stage1

    def no_dip(*args):
        raise AssertionError(f"element pair visited: {args[2:]}")

    monkeypatch.setattr(stage1, "_dip", no_dip)
    res = check_segment_dip(emb)
    assert outcome(res) == outcome(reference_segment_dip(emb))
    assert res.status == PASS and res.checked > 0


@pytest.mark.parametrize("preset", ["cantor", "circle", "grid"])
def test_presets_match_the_per_pair_loops(preset):
    pipe = Pipeline(config_for(preset))
    emb = pipe.stage1
    checks, rows = stage1_suite(emb)
    expected, expected_rows = reference_stage1_suite(emb)
    assert [outcome(c) for c in checks] == [outcome(c) for c in expected]
    assert rows == expected_rows
    assert outcome(check_critical_letters(pipe.stage2)) == \
        outcome(reference_critical_letters(pipe.stage2))


# ---------------------------------------------------------------------------
# The pair table on random samples

coords = st.fractions(min_value=0, max_value=1, max_denominator=24)
METRICS = {
    "line": lambda a, b: abs(a - b),
    "circle": lambda a, b: min(abs(a - b), 1 - abs(a - b)),
    "grid": lambda a, b: max(abs(a[0] - b[0]), abs(a[1] - b[1])),
}


@st.composite
def sample_graphs(draw):
    """The ball graph of up to 9 distinct rational points of the unit
    interval, the circle of circumference 1 or the unit square, 0-3 levels
    below its root.  Stretched 50 times, the root sits two levels below 0
    and the pairs of level -2 far apart stay unclassified."""
    kind = draw(st.sampled_from(sorted(METRICS)))
    point = {"line": coords, "circle": coords.filter(lambda x: x < 1),
             "grid": st.tuples(coords, coords)}[kind]
    points = draw(st.lists(point, min_size=2, max_size=9, unique=True))
    d, stretch = METRICS[kind], draw(st.sampled_from([1, 50]))
    space = make_space([[stretch * F(d(a, b)) for b in points]
                        for a in points])
    r = draw(st.sampled_from([F(1, 6), F(1, 8), F(1, 9), F(2, 15)]))
    k0 = compute_k0(space.diam, r)
    depth = draw(st.integers(0, 3))
    return build_approximation(space, ScaleParams(r, k0, k0 + depth))


def line_graph(points, r, max_level):
    space = make_space([[F(abs(a - b)) for b in points] for a in points])
    return build_approximation(space, ScaleParams.for_space(space, r,
                                                            max_level))


@example(line_graph([0, 20, 40], F(1, 6), 0))
@example(line_graph([0, F(1, 36)], F(1, 6), 2))  # d = r^2 exactly
@example(line_graph([0, 1], F(1, 6), 0))  # the root is the only ancestor
@settings(max_examples=150, deadline=None)
@given(sample_graphs())
def test_pair_table_matches_distance_and_classify_pair(graph):
    assert [(v, w) for v, w, *_ in graph.pairs] == \
        list(itertools.combinations(graph.vertices, 2))
    for v, w, dist, kind, critical in graph.pairs:
        assert dist == graph.distances_from(v)[w]
        pc = classify_pair(graph, v, w)
        assert (kind, critical) == (pc.kind, pc.critical_level)
    for lemma in GRAPH_LEMMAS:
        assert lemma(graph) == [], lemma.__name__
    assert check_geodesic_shape(graph).status == PASS


def test_pair_table_kinds():
    # diameter 40 with r = 1/6 puts the root at level -3; the two level -2
    # centers are 40 >= r^-2 = 36 apart, so their pair stays unclassified
    graph = line_graph([0, 20, 40], F(1, 6), 0)
    assert graph.scale.k0 == -3
    kinds = {(v, w): (kind, l) for v, w, _, kind, l in graph.pairs}
    assert kinds[(Vertex(-2, 0), Vertex(-2, 2))] == (UNCLASSIFIED, None)
    assert {kind for kind, _ in kinds.values()} == {CLOSE, DISTINCT,
                                                    UNCLASSIFIED}
    pipe = Pipeline(config_for(None, space_kind="grid", space_param=5,
                               max_level=2))
    assert len(pipe.graph.pairs) == 1485 == 55 * 54 // 2
    assert pipe.graph.pairs is pipe.graph.pairs
