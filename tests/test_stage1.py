from collections import Counter
from fractions import Fraction as F

import pytest

from qtrees.approx import Vertex, build_approximation
from qtrees.coverings import build_covering
from qtrees.geometry import open_ball
from qtrees.labelling import check_critical_letters
from qtrees.metric import ScaleParams, generate_space, make_space
from qtrees.pipeline import Pipeline
from qtrees.presets import config_for
from qtrees.stage1 import (
    CLOSE,
    DISTINCT,
    UNCLASSIFIED,
    PairClass,
    check_level_escape,
    check_segment_dip,
    classify_pair,
    embed_stage1,
    stage1_suite,
    write_pairs_csv,
)
from qtrees.trees import LevelledTree


@pytest.fixture(scope="module")
def cantor_emb():
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 4)
    g = build_approximation(s, sc)
    seq = build_covering("ultrametric", g)
    return embed_stage1(g, seq)


@pytest.fixture(scope="module")
def circle_emb():
    s = generate_space("circle", 81)
    sc = ScaleParams.for_space(s, F(1, 12), 2)
    g = build_approximation(s, sc)
    seq = build_covering("shifted_arcs", g, n_colors=2)
    return embed_stage1(g, seq)


def reference_image(seq, tree, graph, v):
    """The stage-1 map by a scan of the tree's levels: the first element,
    from level min(level(v) - 1, J) down to 0, that contains the vertex
    ball; the root maps to the tree root."""
    if v == graph.root:
        return tree.root
    top = min(v.level - 1, seq.max_level)
    if top < 0:
        return tree.root
    kernel = seq.kernel
    ball = kernel.ball(v.level, v.center)
    for j in range(top, -1, -1):
        for uid in tree.level_vertices(j):
            if kernel.regions[uid].contains_region(ball):
                return uid
    raise ValueError(f"no element contains the ball of {v}")


MAP_CONFIGS = {
    **{name: config_for(name) for name in ("cantor", "circle", "grid")},
    **{f"grid{n}-L2": config_for(None, space_kind="grid", space_param=n,
                                 max_level=2) for n in (3, 4, 5)},
}


@pytest.mark.parametrize("name", list(MAP_CONFIGS))
def test_the_map_read_off_the_chains_is_the_level_scan(name):
    emb = Pipeline(MAP_CONFIGS[name]).stage1
    graph, seq = emb.graph, emb.seq
    deep = 0
    for v in graph.vertices:
        expected = tuple(reference_image(seq, emb.trees[c], graph, v)
                         for c in emb.colors)
        assert emb.images[v] == expected, v
        deep += any(u != emb.trees[c].root
                    for c, u in zip(emb.colors, expected))
    # below depth 2 every image is at level <= 0, a tree root (the grid
    # preset); deeper, some vertex maps below the roots
    assert (deep > 0) == (seq.max_level > 1), deep


def test_root_maps_to_root(cantor_emb):
    emb = cantor_emb
    for c in emb.colors:
        assert emb.image(c, emb.graph.root) == emb.trees[c].root


def test_images_contain_balls_below_own_level(cantor_emb):
    emb = cantor_emb
    g = emb.graph
    elements = {e.uid: e for e in emb.seq.elements}
    for c in emb.colors:
        tree = emb.trees[c]
        for v in g.vertices:
            uid = emb.image(c, v)
            elem = elements[uid]
            if v == g.root:
                continue
            assert elem.level <= v.level - 1
            ball = open_ball(g.space.coords[v.center],
                             2 * g.scale.sep(v.level))
            assert elem.region.contains_region(ball)
            # maximality of the image level
            for j in range(elem.level + 1, v.level):
                for other in tree.level_vertices(j):
                    assert not elements[other].region.contains_region(ball)


def test_cantor_level2_maps_into_level1_block(cantor_emb):
    emb = cantor_emb
    elements = {e.uid: e for e in emb.seq.elements}
    for v in emb.graph.vertices:
        if v.level == 2:
            assert elements[emb.image(0, v)].level == 1


def test_classification_examples():
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 4)
    g = build_approximation(s, sc)
    v = g.vertices[5]
    assert classify_pair(g, v, v).kind == CLOSE
    # boundary: d = r^l exactly gives critical level l
    rows = [[F(0), F(1, 36)], [F(1, 36), F(0)]]
    s2 = make_space(rows)
    sc2 = ScaleParams.for_space(s2, F(1, 6), 2)
    g2 = build_approximation(s2, sc2)
    a, b = Vertex(2, 0), Vertex(2, 1)
    pc = classify_pair(g2, a, b)
    assert pc.kind == DISTINCT and pc.critical_level == 2
    assert classify_pair(g2, a, a) == PairClass(CLOSE)


def test_scan_example_r6():
    # r = 1/6, d = 1/7: 1/36 <= 1/7 < 1/6
    rows = [[F(0), F(1, 7)], [F(1, 7), F(0)]]
    s = make_space(rows)
    sc = ScaleParams.for_space(s, F(1, 6), 2)
    g = build_approximation(s, sc)
    pc = classify_pair(g, Vertex(2, 0), Vertex(2, 1))
    assert pc.kind == DISTINCT and pc.critical_level == 2


def test_negative_level_pairs_unclassified():
    s = generate_space("grid", 3)
    sc = ScaleParams.for_space(s, F(1, 16))
    g = build_approximation(s, sc)
    assert sc.k0 == -1
    root = g.root
    other = next(v for v in g.vertices if v.level == 0
                 and v.center != root.center)
    kind = classify_pair(g, root, other).kind
    assert kind in (CLOSE, UNCLASSIFIED)


def test_product_distance(cantor_emb):
    emb = cantor_emb
    g = emb.graph

    def product_distance(v, w):
        return sum(emb.trees[c].generation_distance(a, b)
                   for c, a, b in zip(emb.colors, emb.images[v],
                                      emb.images[w]))

    v = g.vertices[10]
    assert product_distance(v, v) == 0
    for a in g.vertices[:10]:
        for b in g.vertices[:10]:
            assert product_distance(a, b) <= \
                2 * len(emb.colors) * g.distances_from(a)[b]


def test_stage1_suites_pass(cantor_emb, circle_emb):
    for emb in (cantor_emb, circle_emb):
        checks, rows = stage1_suite(emb)
        for check in checks:
            assert check.status == "pass", (check.check_id,
                                            check.violations[:1])
        assert not any(r.violation for r in rows)


def test_pairs_csv(cantor_emb, tmp_path):
    _, rows = stage1_suite(cantor_emb)
    path = tmp_path / "pairs.csv"
    write_pairs_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("v,v'")
    assert len(lines) == len(rows) + 1


def test_single_vertex_graph_vacuous():
    s = generate_space("cantor", 3)
    sc = ScaleParams.for_space(s, F(1, 9), 0)
    g = build_approximation(s, sc)
    seq = build_covering("ultrametric", g)
    emb = embed_stage1(g, seq)
    checks, rows = stage1_suite(emb)
    assert not rows
    for check in checks:
        assert check.status == "pass"


def test_one_stage1_builds_its_tree_side_once(monkeypatch):
    """Stage 1 with the stage-1 map, the stage-1 suite (with its
    segment-dip and level-escape checks), those two checks again and the
    critical-letter check read one set of tables: no meet of a color tree
    is computed twice, and the containing chains, which the map is read
    off, are built once, one region test per center and tree vertex."""
    pipe = Pipeline(config_for("circle"))
    regions = pipe.seq.kernel.regions
    meets, tests = Counter(), Counter()
    lca = LevelledTree.lca

    def counted_lca(tree, u, v):
        meets[id(tree), frozenset((u, v))] += 1
        return lca(tree, u, v)

    def counted(contains_point):
        def wrapper(region, coord):
            tests["contains_point"] += 1
            return contains_point(region, coord)
        return wrapper

    monkeypatch.setattr(LevelledTree, "lca", counted_lca)
    for cls in {type(region) for region in regions.values()}:
        monkeypatch.setattr(cls, "contains_point",
                            counted(cls.contains_point))
    st2 = pipe.stage2
    emb = st2.stage1
    stage1_suite(emb)
    check_segment_dip(emb)
    check_level_escape(emb)
    check_critical_letters(st2)
    assert meets and max(meets.values()) == 1
    centers = {v.center for v in emb.graph.vertices}
    tree_vertices = sum(len(emb.trees[c].parent) for c in emb.colors)
    assert tests["contains_point"] == len(centers) * tree_vertices
