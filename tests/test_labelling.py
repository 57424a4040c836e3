import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

from qtrees.approx import build_approximation
from qtrees.coverings import build_covering
from qtrees.diary import STOP, encode, is_stop, membership, reconstruct
from qtrees.labelling import (
    NetColoring,
    build_labelling,
    build_stage2,
    check_binary_stage,
    check_critical_letters,
    check_net_coloring,
    check_sentences,
    color_nets,
    embedding_dump,
    min_kappa,
    sigma_lower,
    stage2_suite,
)
from qtrees.metric import ScaleParams, generate_space
from qtrees.morse_thue import mt_bit
from qtrees.pipeline import Pipeline, StageError
from qtrees.presets import PRESETS, config_for
from qtrees import reporting
from qtrees.reporting import PASS, CheckResult, jsonable
from qtrees.stage1 import embed_stage1
from qtrees.trees import binary_embed, binary_width, word_distance


@pytest.fixture(scope="module")
def cantor_lab():
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 4)
    g = build_approximation(s, sc)
    seq = build_covering("ultrametric", g)
    return build_labelling(embed_stage1(g, seq))


@pytest.fixture(scope="module")
def circle_lab():
    s = generate_space("circle", 81)
    sc = ScaleParams.for_space(s, F(1, 12), 2)
    g = build_approximation(s, sc)
    seq = build_covering("shifted_arcs", g, n_colors=2)
    return build_labelling(embed_stage1(g, seq))


def test_coloring_conflict_property(cantor_lab):
    check = check_net_coloring(cantor_lab.stage1.graph,
                               cantor_lab.coloring)
    assert check.status == "pass", check.violations[:2]


def test_coloring_extremes():
    # all level-2 points conflict (bound 2 r^0 exceeds the diameter), so
    # every point gets its own palette color
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 2)
    g = build_approximation(s, sc)
    coloring = color_nets(g)
    assert len(set(coloring.mu[2].values())) == 16
    assert coloring.palette_size >= 16


def ref_check_net_coloring(graph, coloring):
    """The earlier check: one pass for the pairs, a second nested pass for
    the conflict degrees."""
    res = CheckResult("labelling-net-coloring", PASS)
    space, scale = graph.space, graph.scale
    for j, assignment in coloring.mu.items():
        bound = 2 * scale.sep(j - 2)
        pts = sorted(assignment)
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                res.checked += 1
                if space.d(p, q) < bound and assignment[p] == assignment[q]:
                    res.add_violation({"level": j, "pair": (p, q)})
        degree = max(
            (sum(1 for q in pts if q != p and space.d(p, q) < bound)
             for p in pts), default=0)
        if len(set(assignment.values())) > degree + 1:
            res.add_violation({"level": j, "reason": "palette above degree+1"})
    return res


def test_net_coloring_check_matches_two_pass_reference(cantor_lab,
                                                       circle_lab):
    for lab in (cantor_lab, circle_lab):
        graph, mu = lab.stage1.graph, lab.coloring.mu
        # the coloring itself, one color everywhere (pair violations) and
        # a color per point (palette violations wherever degrees are low)
        for doctored in (mu,
                         {j: dict.fromkeys(a, 0) for j, a in mu.items()},
                         {j: {p: p for p in a} for j, a in mu.items()}):
            coloring = NetColoring(palette_size=0, mu=doctored)
            new = check_net_coloring(graph, coloring)
            assert new.checked > 0
            assert new.to_dict() == \
                ref_check_net_coloring(graph, coloring).to_dict()
    one_color = NetColoring(0, {j: dict.fromkeys(a, 0)
                                for j, a in circle_lab.coloring.mu.items()})
    assert check_net_coloring(circle_lab.stage1.graph,
                              one_color).status == "fail"
    per_point = NetColoring(0, {j: {p: p for p in a}
                                for j, a in cantor_lab.coloring.mu.items()})
    assert any(v.get("reason") == "palette above degree+1" for v in
               check_net_coloring(cantor_lab.stage1.graph,
                                  per_point).violations)


def test_cantor_edge_word_fixture(cantor_lab):
    lab = cantor_lab
    tree = lab.stage1.trees[0]
    uid = tree.level_vertices(2)[0]  # the level-2 block around the origin
    word = lab.words[0, uid]
    assert word == ((frozenset({0}), mt_bit(2)),)
    sent = lab.sentence_of(0, uid)
    assert sent == (
        (frozenset({0, 1}), 1), ("s", 1),
        (frozenset({0}), 1), ("s", 1),
    )


def test_edge_word_decoration_bits(cantor_lab):
    lab = cantor_lab
    elements = {e.uid: e for e in lab.stage1.seq.elements}
    for c in lab.stage1.colors:
        tree = lab.stage1.trees[c]
        for uid in tree.vertices():
            if uid == tree.root:
                continue
            child = elements[uid]
            parent = elements[tree.parent[uid]]
            word = lab.words[c, uid]
            assert len(word) == child.level - parent.level >= 1
            for offset, (letters, bit) in enumerate(word):
                assert bit == mt_bit(parent.level + 1 + offset)
                assert letters  # nonempty palette subsets only


def test_sentences_structure(cantor_lab, circle_lab):
    for lab in (cantor_lab, circle_lab):
        check = check_sentences(lab)
        assert check.status == "pass", check.violations[:2]
        # root sentence is empty; depth-1 vertices have one word
        for c in lab.stage1.colors:
            tree = lab.stage1.trees[c]
            assert lab.sentence_of(c, tree.root) == ()
            for uid in tree.children[tree.root]:
                sent = lab.sentence_of(c, uid)
                assert sum(1 for t in sent if is_stop(t)) == 1


def test_kappa_guard(cantor_lab):
    # the pipeline refuses a capacity below 15C + 1; the library pages it
    pipe = Pipeline(config_for("cantor", kappa=15))
    with pytest.raises(StageError) as caught:
        pipe.stage2
    assert str(caught.value) == ("[stage2] page capacity 15 below the "
                                 "proven bound 15*colors+1 = 16")
    assert build_stage2(cantor_lab, kappa=3).kappa == 3
    unset = PRESETS["cantor"]._replace(kappa=None)
    assert Pipeline(unset).stage2.kappa == 16
    assert min_kappa(1) == 16 and min_kappa(2) == 31


def test_sigma_lower_values():
    assert sigma_lower(1) == 20
    assert sigma_lower(2) == 69


def test_stage2_radial_isometry_and_eta_root(cantor_lab):
    st2 = build_stage2(cantor_lab, kappa=16)
    emb = st2.stage1
    g = emb.graph
    assert st2.diary_of(0, g.root) == ()
    for v in g.vertices:
        for c in st2.colors:
            uid = emb.image(c, v)
            assert len(st2.diary_of(c, v)) == emb.trees[c].depths[uid]
            diary = st2.diary_of(c, v)
            assert word_distance(diary, diary) == 0


def test_stage2_suites_pass(cantor_lab, circle_lab):
    for lab, kappa in ((cantor_lab, 16), (circle_lab, 31)):
        st2 = build_stage2(lab, kappa=kappa)
        checks, fits = stage2_suite(st2)
        for check in checks:
            assert check.ok, (check.check_id, check.violations[:1])
        assert fits["upperWorst"] <= 2 * len(st2.colors)
        binary = check_binary_stage(st2)
        assert binary.status == "pass", binary.violations[:1]


def test_critical_letters_inconclusive_without_pairs():
    # a two-level graph has no horizontally distinct pairs deep enough
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 1)
    g = build_approximation(s, sc)
    seq = build_covering("ultrametric", g)
    lab = build_labelling(embed_stage1(g, seq))
    st2 = build_stage2(lab, kappa=16)
    res = check_critical_letters(st2)
    assert res.status in ("pass", "inconclusive")


def test_vacuous_pass_is_reported_inconclusive():
    # the two-level graph of the test above: neither stage-2 check finds an
    # instance, and the one rule in CheckResult reports both inconclusive
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 1)
    g = build_approximation(s, sc)
    seq = build_covering("ultrametric", g)
    st2 = build_stage2(build_labelling(embed_stage1(g, seq)), kappa=16)
    for res in (check_critical_letters(st2), check_binary_stage(st2)):
        assert (res.status, res.checked) == ("pass", 0), res.check_id
        assert res.to_dict()["status"] == "inconclusive", res.check_id
    assert check_critical_letters(st2).notes == "no qualifying pairs"
    assert CheckResult("none", PASS).to_dict()["status"] == "inconclusive"
    assert CheckResult("one", PASS, checked=1).to_dict()["status"] == "pass"
    failed = CheckResult("failed", PASS)
    failed.add_violation({"reason": "before any instance"})
    assert failed.to_dict()["status"] == "fail"


def test_embedding_dump_shape(cantor_lab):
    st2 = build_stage2(cantor_lab, kappa=16)
    dump = embedding_dump(st2)
    assert dump["kappa"] == 16
    assert len(dump["vertices"]) == len(cantor_lab.stage1.graph.vertices)
    sample = next(iter(dump["vertices"].values()))
    assert "pages" in sample["0"] and "binary" in sample["0"]


def test_conflict_coloring_basics():
    # two points closer than the conflict bound need two palette colors;
    # a lone point needs one
    from qtrees.metric import make_space

    rows = [[F(0), F(1, 2)], [F(1, 2), F(0)]]
    s = make_space(rows)
    sc = ScaleParams.for_space(s, F(1, 6), 1)
    g = build_approximation(s, sc)
    coloring = color_nets(g)
    assert len(set(coloring.mu[sc.k0].values())) == 1
    level1 = coloring.mu[1]
    # d = 1/2 < 2 r^(-1) = 12: conflict
    assert len(set(level1.values())) == len(level1)


def test_critical_letters_op(circle_lab):
    from qtrees.stage1 import DISTINCT, classify_pair
    import itertools

    lab = circle_lab
    g = lab.stage1.graph
    elements = {e.uid: e for e in lab.stage1.seq.elements}
    found = False
    for v, w in itertools.combinations(g.vertices, 2):
        pc = classify_pair(g, v, w)
        if pc.kind != DISTINCT or pc.critical_level < 1:
            continue
        l = pc.critical_level
        for c in lab.stage1.colors:
            tree = lab.stage1.trees[c]
            ua = next((u for u in tree.vertices()
                       if elements[u].level >= l + 1 and
                       elements[u].region.contains_point(
                           g.space.coords[v.center])), None)
            ub = next((u for u in tree.vertices()
                       if elements[u].level >= l + 1 and
                       elements[u].region.contains_point(
                           g.space.coords[w.center])), None)
            if ua and ub and ua != ub:
                a, m = lab.letter_at_level(c, ua, l)
                b, mp = lab.letter_at_level(c, ub, l)
                assert a != b and abs(m - mp) <= 2
                found = True
        if found:
            break
    assert found


def test_critical_letters_precondition(circle_lab):
    # a critical letter needs an element past its level: the root, at
    # level 0, has no letter of level 1
    lab = circle_lab
    root = lab.stage1.trees[0].root
    with pytest.raises(ValueError, match="no letter of level 1"):
        lab.letter_at_level(0, root, 1)


# ---------------------------------------------------------------------------
# The stage-2 tables against from-scratch references


def ref_sentence(lab, color, uid):
    """The sentence of a tree vertex from a walk up its parents, with each
    edge word recomputed from the kernel regions and the net coloring."""
    tree, kernel = lab.stage1.trees[color], lab.stage1.seq.kernel
    words = []
    while tree.parent[uid] is not None:
        parent = tree.parent[uid]
        region = kernel.regions[uid]
        word = tuple(
            (frozenset(lab.coloring.mu[k + 1][p]
                       for p in lab.stage1.graph.net(k + 1)
                       if region.meets_region(kernel.ball(k + 1, p))),
             mt_bit(k))
            for k in range(tree.level[parent] + 1, tree.level[uid] + 1))
        words.append(word + ((STOP, mt_bit(tree.level[uid])),))
        uid = parent
    return tuple(tok for word in reversed(words) for tok in word)


def ref_letter_at_level(sentence, level):
    """(letter, word index) by a token walk over the sentence."""
    word, lv = 1, 0
    for tok in sentence:
        if is_stop(tok):
            word += 1
        else:
            lv += 1
            if lv == level:
                return tok, word
    raise ValueError(level)


STAGE2_CONFIGS = {
    "cantor": PRESETS["cantor"],
    "circle": PRESETS["circle"],
    "grid": PRESETS["grid"],
    "grid5-L2": config_for(None, space_kind="grid", space_param=5,
                           max_level=2),
}


@pytest.mark.parametrize("name", list(STAGE2_CONFIGS))
def test_stage2_tables_match_from_scratch_references(name):
    pipe = Pipeline(STAGE2_CONFIGS[name])
    lab, emb = pipe.labelling, pipe.stage1
    sentences = {}
    for c in emb.colors:
        tree = emb.trees[c]
        for uid in tree.vertices():
            sent = sentences[c, uid] = ref_sentence(lab, c, uid)
            assert lab.sentence_of(c, uid) == sent
            for level in range(1, tree.level[uid] + 1):
                assert lab.letter_at_level(c, uid, level) == \
                    ref_letter_at_level(sent, level)
            for outside in (0, tree.level[uid] + 1):
                with pytest.raises(ValueError):
                    lab.letter_at_level(c, uid, outside)
    # small capacities carry a rest from page to page; the run's does not
    for kappa in (pipe.stage2.kappa, 1, 2, 3):
        st2 = build_stage2(lab, kappa)
        for (c, uid), sent in sentences.items():
            assert st2.diaries[c, uid] == encode(sent, kappa)
        images = {st2.diary_of(c, v) for c in emb.colors
                  for v in pipe.graph.vertices}
        pages = sorted({p for d in images for p in d}, key=repr)
        assert list(st2.page_index) == pages
        assert list(st2.page_index.values()) == list(
            range(1, len(pages) + 1))
        assert set(st2.binary) == images
        for d in images:
            assert st2.binary[d] == binary_embed(
                tuple(st2.page_index[p] for p in d), max(len(pages), 1))


def test_stage2_spells_each_letter_and_pages_each_vertex_once(monkeypatch):
    from qtrees import labelling

    pipe = Pipeline(PRESETS["cantor"])
    emb = pipe.stage1
    letters, steps = Counter(), []
    letter, step = labelling._letter, labelling.encode_step

    def counted_letter(stage1, coloring, uid, k):
        letters[uid, k] += 1
        return letter(stage1, coloring, uid, k)

    def counted_step(rest, word, tail, kappa):
        steps.append(tail)
        return step(rest, word, tail, kappa)

    monkeypatch.setattr(labelling, "_letter", counted_letter)
    monkeypatch.setattr(labelling, "encode_step", counted_step)
    assert all(check.ok for check in pipe.checks("stage2"))
    embedding_dump(pipe.stage2)
    trees = [emb.trees[c] for c in emb.colors]
    edges = {(u, k) for t in trees for u, p in t.parent.items()
             if p is not None for k in range(t.level[p] + 1, t.level[u] + 1)}
    assert set(letters) == edges and set(letters.values()) == {1}
    assert len(steps) == sum(len(t.parent) - 1 for t in trees) > 0


# -- doctored tables: the two checks that read them can fail ----------------


def doctored_tables(preset: str):
    """A fresh stage 2 of the preset, and the deepest color-0 tree vertex
    with its root path (root first)."""
    st2 = Pipeline(PRESETS[preset]).stage2
    tree = st2.stage1.trees[0]
    uid = max(tree.vertices(), key=lambda u: (tree.depths[u], u))
    assert tree.depths[uid] >= 2
    return st2, uid, tree.paths[uid]


def diaries_off_their_parents(st2) -> list:
    """(color, uid) of every tree vertex whose diary is not its parent's
    pages plus one page, or, at the root, not empty."""
    off = []
    for c in st2.colors:
        tree = st2.stage1.trees[c]
        for uid, parent in tree.parent.items():
            diary = st2.diaries[c, uid]
            start = () if parent is None else st2.diaries[c, parent]
            grown = len(start) + (parent is not None)
            if len(diary) != grown or diary[:len(start)] != start:
                off.append((c, uid))
    return off


@pytest.mark.parametrize("preset", list(PRESETS))
def test_every_diary_is_its_parents_pages_plus_one(preset):
    # so a diary has one page per tree edge, and two images' diaries share
    # their meet's pages: page distance is at most tree distance
    st2 = Pipeline(PRESETS[preset]).stage2
    assert diaries_off_their_parents(st2) == []
    assert len(st2.diaries) == sum(len(st2.stage1.trees[c].parent)
                                   for c in st2.colors)


DIARY_DOCTORS = {
    "drop a page": lambda diary, page: diary[:-1],
    "add a page": lambda diary, page: diary + (page,),
    "change the first page": lambda diary, page: (page,) + diary[1:],
}


@pytest.mark.parametrize("preset", ["cantor", "circle"])
@pytest.mark.parametrize("how", list(DIARY_DOCTORS))
def test_doctored_diary_is_off_its_parent(preset, how):
    # the deepest vertex has no children, so it alone is off
    st2, uid, _ = doctored_tables(preset)
    page = (st2.labelling.words[0, uid][0],) * st2.kappa
    st2.diaries[0, uid] = DIARY_DOCTORS[how](st2.diaries[0, uid], page)
    assert diaries_off_their_parents(st2) == [(0, uid)]


def _add_letter(word, level):
    return word + ((word[-1][0], mt_bit(level + 1)),)


def _flip_bit(word, level):
    (letter, bit), *rest = word
    return ((letter, 1 - bit), *rest)


def _stop_inside(word, level):
    return word[:1] + ((STOP, 0),) + word[1:]


WORD_DOCTORS = {
    "letter count": _add_letter,
    "decoration bits": _flip_bit,
    "word count": _stop_inside,
    "empty word": lambda word, level: (),
}


@pytest.mark.parametrize("preset", ["cantor", "circle"])
@pytest.mark.parametrize("reason", list(WORD_DOCTORS))
def test_doctored_words_fail_the_sentence_check(preset, reason):
    st2, uid, path = doctored_tables(preset)
    lab = st2.labelling
    assert check_sentences(lab).status == PASS
    level = st2.stage1.trees[0].level[uid]
    lab.words[0, uid] = WORD_DOCTORS[reason](lab.words[0, uid], level)
    check = check_sentences(lab)
    assert check.status == "fail"
    assert {"uid": uid, "reason": reason} in check.violations


@pytest.mark.parametrize("preset", ["cantor", "circle"])
def test_emptied_root_path_has_more_words_than_letters(preset):
    st2, uid, path = doctored_tables(preset)
    lab = st2.labelling
    for child in path[1:]:
        lab.words[0, child] = ()
    check = check_sentences(lab)
    assert check.status == "fail"
    assert {"uid": uid, "reason": "more words than letters"} in \
        check.violations


def stage2_check(st2, check_id):
    """The result of one check of ``stage2_suite`` or of the binary stage."""
    if check_id == "stage2-binary-sandwich":
        return check_binary_stage(st2)
    checks, _ = stage2_suite(st2)
    return next(c for c in checks if c.check_id == check_id)


@pytest.mark.parametrize("preset", ["cantor", "circle"])
def test_stretched_graph_distance_fails_the_lower_bound(preset):
    # one pair of the pair table, its graph distance stretched past the
    # additive constant over its page distances
    st2, _, _ = doctored_tables(preset)
    graph = st2.stage1.graph
    assert stage2_check(st2, "stage2-lower-bound").status == PASS
    C = len(st2.colors)
    (v, w, _, kind, l), *rest = graph.pairs
    total = sum(word_distance(st2.diary_of(c, v), st2.diary_of(c, w))
                for c in st2.colors)
    stretched = 2 * C * total + sigma_lower(C) + 1
    graph.pairs = ((v, w, stretched, kind, l), *rest)
    checks, _ = stage2_suite(st2)
    lower = next(c for c in checks if c.check_id == "stage2-lower-bound")
    assert lower.status == "fail"
    assert lower.violations == [jsonable(
        {"pair": (v, w), "dist": stretched, "total": total})]
    assert lower.checked == len(graph.pairs)


@pytest.mark.parametrize("preset", ["cantor", "circle"])
def test_swapped_diary_fails_the_reconstruction(preset):
    # the image of a vertex takes the diary of another color-0 tree vertex
    # of its depth, one whose reconstruction its sentence does not fit
    st2, _, _ = doctored_tables(preset)
    emb, lab = st2.stage1, st2.labelling
    tree = emb.trees[0]
    assert stage2_check(st2, "stage2-reconstruction-membership").status \
        == PASS
    image, other = next(
        (image, other) for image in sorted({emb.image(0, v)
                                            for v in emb.graph.vertices})
        for other in tree.vertices()
        if tree.depths[other] == tree.depths[image] >= 1 and
        not membership(reconstruct(st2.diaries[0, other], st2.kappa),
                       lab.sentence_of(0, image)))
    st2.diaries[0, image] = st2.diaries[0, other]
    recon = stage2_check(st2, "stage2-reconstruction-membership")
    assert recon.status == "fail"
    assert {"uid": image, "color": 0} in recon.violations
    # the length is kept: one page per tree edge still
    assert len(st2.diaries[0, image]) == tree.depths[image]


@pytest.mark.parametrize("preset", list(PRESETS))
def test_reconstruction_counts_only_images_with_a_sentence(preset):
    # the root's sentence is empty, and the graph root maps to the tree
    # root in every color, so C of the images have nothing to reconstruct;
    # on the grid preset (max level 1) every image is a root
    st2 = Pipeline(PRESETS[preset]).stage2
    emb, lab = st2.stage1, st2.labelling
    images = {(c, emb.image(c, v)) for c in st2.colors
              for v in emb.graph.vertices}
    spoken = {(c, uid) for c, uid in images if lab.sentence_of(c, uid)}
    assert len(images) - len(spoken) == len(st2.colors)
    recon = stage2_check(st2, "stage2-reconstruction-membership")
    assert recon.checked == len(spoken) == {"cantor": 40, "circle": 20,
                                            "grid": 0}[preset]


@pytest.mark.parametrize("preset", ["cantor", "circle"])
def test_shared_binary_word_fails_the_sandwich(preset, monkeypatch):
    # two color-0 image diaries two pages apart or more share one binary
    # word, so their binary distance is 0
    monkeypatch.setattr(reporting, "MAX_VIOLATIONS_KEPT", 10**6)
    st2, _, _ = doctored_tables(preset)
    graph = st2.stage1.graph
    assert stage2_check(st2, "stage2-binary-sandwich").status == PASS
    images = sorted({st2.diary_of(0, v) for v in graph.vertices}, key=repr)
    da, db = next((da, db) for da, db in itertools.combinations(images, 2)
                  if word_distance(da, db) >= 2)
    st2.binary[da] = st2.binary[db]
    sandwich = stage2_check(st2, "stage2-binary-sandwich")
    assert sandwich.status == "fail"
    assert {"color": 0, "D": word_distance(da, db), "Dbin": 0,
            "lam": binary_width(len(st2.page_index))} in sandwich.violations
