from fractions import Fraction as F

import pytest

from qtrees.approx import (
    HORIZONTAL,
    RADIAL,
    Vertex,
    approx_suite,
    build_approximation,
    central_ancestor,
    estimate_delta,
    graph_summary,
    visual_metric_constants,
)
from qtrees.metric import ScaleParams, generate_space, make_space


def two_point_graph():
    rows = [[F(0), F(1)], [F(1), F(0)]]
    s = make_space(rows)
    sc = ScaleParams.for_space(s, F(1, 6), max_level=0)
    return s, build_approximation(s, sc)


def test_two_point_space_structure():
    # root at level -1 plus two level-0 vertices joined horizontally and
    # radially to the root
    s, g = two_point_graph()
    assert g.root.level == -1
    assert len(g.vertices) == 3
    v0, v1 = Vertex(0, 0), Vertex(0, 1)
    assert g.edge_kind[frozenset((v0, v1))] == HORIZONTAL
    assert g.edge_kind[frozenset((v0, g.root))] == RADIAL
    assert g.edge_kind[frozenset((v1, g.root))] == RADIAL
    assert g.distance(v0, v1) == 1


def test_single_root_graph():
    rows = [[F(0), F(1)], [F(1), F(0)]]
    s = make_space(rows)
    sc = ScaleParams.for_space(s, F(1, 6), max_level=-1)
    g = build_approximation(s, sc)
    assert len(g.vertices) == 1
    assert not g.edge_kind
    assert estimate_delta(g) == 0


def test_graph_distance_basics():
    s = generate_space("cantor", 3)
    sc = ScaleParams.for_space(s, F(1, 9), 3)
    g = build_approximation(s, sc)
    for v in g.vertices:
        assert g.distance(v, v) == 0
        assert g.distance(g.root, v) <= v.level - sc.k0


def test_central_ancestor_contract():
    s = generate_space("cantor", 3)
    sc = ScaleParams.for_space(s, F(1, 9), 3)
    g = build_approximation(s, sc)
    for v in g.vertices:
        if v == g.root:
            with pytest.raises(ValueError):
                central_ancestor(g, v)
            continue
        w = central_ancestor(g, v)
        assert w.level == v.level - 1
        assert g.space.d(v.center, w.center) <= sc.sep(w.level)
        assert g.has_edge(v, w)
        for u in g.neighbors(v):
            if u.level == v.level:
                assert g.has_edge(u, w)


def test_two_point_central_ancestor_is_root():
    _, g = two_point_graph()
    for v in g.vertices:
        if v != g.root:
            assert central_ancestor(g, v) == g.root


def test_gromov_product_identities():
    s = generate_space("cantor", 3)
    sc = ScaleParams.for_space(s, F(1, 9), 2)
    g = build_approximation(s, sc)
    o = g.root
    for v in g.vertices:
        assert g.gromov_row(v)[v] == 2 * g.distance(o, v)
        assert g.gromov_row(o)[v] == 0


def test_radial_only_graph_is_tree_with_zero_delta():
    # two far points at a scale where no horizontal edges appear below the
    # root level: only radial chains remain, and trees are 0-hyperbolic
    rows = [[F(0), F(1)], [F(1), F(0)]]
    s = make_space(rows)
    sc = ScaleParams.for_space(s, F(1, 6), max_level=2)
    g = build_approximation(s, sc)
    horizontals = [e for e in g.edge_kind.values() if e == HORIZONTAL]
    assert len(horizontals) == 1  # only at level 0; deeper levels split
    assert estimate_delta(g) <= F(1, 2)


def test_delta_fixture_cantor():
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 4)
    g = build_approximation(s, sc)
    assert estimate_delta(g) == F(1, 2)


def test_delta_fixture_cantor3():
    s = generate_space("cantor", 3)
    sc = ScaleParams.for_space(s, F(1, 9), 3)
    g = build_approximation(s, sc)
    assert len(g.vertices) == 21
    assert estimate_delta(g) == F(1, 2)


def test_visual_band_fixture_and_level_stability():
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 4)
    band = visual_metric_constants(build_approximation(s, sc))
    assert band.c1_sq == F(2116, 6561)
    assert band.c2_sq == F(64, 9)
    assert band.ratio_sq == F(11664, 529)
    # one more level leaves the extremes within a factor of 4
    sc5 = ScaleParams.for_space(s, F(1, 9), 5)
    band5 = visual_metric_constants(build_approximation(s, sc5))
    assert band.c1_sq / 16 <= band5.c1_sq <= band.c1_sq * 16
    assert band.c2_sq / 16 <= band5.c2_sq <= band.c2_sq * 16


def test_visual_band_needs_two_deep_vertices():
    rows = [[F(0), F(1)], [F(1), F(0)]]
    s = make_space(rows)
    sc = ScaleParams.for_space(s, F(1, 6), max_level=-1)
    g = build_approximation(s, sc)
    with pytest.raises(ValueError):
        visual_metric_constants(g)


def test_full_suite_on_presets():
    for kind, param, r, J in [("cantor", 4, F(1, 9), 4),
                              ("circle", 81, F(1, 12), 2)]:
        s = generate_space(kind, param)
        g = build_approximation(s, ScaleParams.for_space(s, r, J))
        for check in approx_suite(g):
            assert check.status == "pass", (kind, check.check_id,
                                            check.violations[:1])


def test_graph_summary_shape():
    s, g = two_point_graph()
    summary = graph_summary(g)
    assert summary["vertexCount"] == 3
    assert summary["edgeCounts"]["H"] == 1
    assert summary["edgeCounts"]["R"] == 2
