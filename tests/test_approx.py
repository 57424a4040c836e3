from fractions import Fraction as F

import pytest

from qtrees import approx, reporting
from qtrees.approx import (
    HORIZONTAL,
    RADIAL,
    Vertex,
    approx_suite,
    build_approximation,
    check_geodesic_shape,
    estimate_delta,
    graph_summary,
    visual_metric_constants,
)
from qtrees.metric import ScaleParams, generate_space, make_space
from qtrees.pipeline import Pipeline, StageError
from qtrees.presets import PRESETS
from qtrees.reporting import jsonable
from test_pair_table import descents_apart, distinct_pairs_too_far, \
    touching_balls_too_far, vertices_without_central_ancestor


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
    assert g.distances_from(v0)[v1] == 1


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
        assert g.distances_from(v)[v] == 0
        assert g.distances_from(g.root)[v] <= v.level - sc.k0


def test_gromov_product_identities():
    s = generate_space("cantor", 3)
    sc = ScaleParams.for_space(s, F(1, 9), 2)
    g = build_approximation(s, sc)
    o = g.root
    for v in g.vertices:
        assert g.gromov_row(v)[v] == 2 * g.distances_from(o)[v]
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
    assert band.c2_sq / band.c1_sq == F(11664, 529)
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


# -- doctored graphs: each check fails with its named violation --------------


def cantor_graph():
    s = generate_space("cantor", 4)
    return build_approximation(s, ScaleParams.for_space(s, F(1, 9), 4))


def doctor(g, drop=(), add=()):
    """Remove the edges ``drop``, add the (v, w, kind) edges ``add``, and
    forget what was built on the old edges.  The graph stays connected."""
    adj = {v: list(ws) for v, ws in g.adj.items()}
    for v, w in drop:
        adj[v].remove(w)
        adj[w].remove(v)
        del g.edge_kind[frozenset((v, w))]
    for v, w, kind in add:
        assert not g.has_edge(v, w)
        adj[v].append(w)
        adj[w].append(v)
        g.edge_kind[frozenset((v, w))] = kind
    g.adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}
    g._dist_cache.clear()
    g._raddesc_cache.clear()
    g.__dict__.pop("pairs", None)
    assert len(g.distances_from(g.root)) == len(g.vertices)
    return g


def in_pair_order(g, v, w):
    index = g.vertices.index
    return (v, w) if index(v) < index(w) else (w, v)


@pytest.fixture
def keep_every_violation(monkeypatch):
    monkeypatch.setattr(reporting, "MAX_VIOLATIONS_KEPT", 10**6)


@pytest.mark.parametrize("reason", ["no radial edge to vertex",
                                    "neighbor not joined to ancestor"])
def test_doctored_central_ancestor_fails(reason):
    # a vertex v with a same-level neighbor u: drop the edges from every
    # vertex one level down and closer than r^(level - 1) to v, or to u
    g = cantor_graph()
    v, u = next((v, u) for v in g.vertices for u in g.adj[v]
                if u.level == v.level)
    near = [w for w in g.adj[v] if w.level == v.level - 1 and
            g.d(v, w) < g.scale.sep(w.level)]
    assert vertices_without_central_ancestor(g) == [] and near
    end = v if reason == "no radial edge to vertex" else u
    doctor(g, drop=[(end, w) for w in near if g.has_edge(end, w)])
    assert v in vertices_without_central_ancestor(g)


def test_doctored_geodesic_shape_fails(keep_every_violation):
    # a shortcut from a deepest vertex to the farthest vertex two levels
    # up: no radial descent and one horizontal edge spans it
    g = cantor_graph()
    x = next(v for v in g.vertices if v.level == g.scale.max_level)
    y = max((v for v in g.vertices if v.level == x.level - 2),
            key=lambda v: (g.distances_from(x)[v], v))
    assert g.distances_from(x)[y] > 2
    doctor(g, add=[(x, y, HORIZONTAL)])
    res = check_geodesic_shape(g)
    assert res.status == "fail"
    assert jsonable({"pair": in_pair_order(g, x, y), "dist": 1}) \
        in res.violations


def test_doctored_horizontal_descent_fails():
    # join the two farthest deepest vertices: the vertices radially below
    # them stay far apart
    g = cantor_graph()
    deep = [v for v in g.vertices if v.level == g.scale.max_level]
    v, w = max(((v, w) for v in deep for w in deep if v != w),
               key=lambda p: (g.d(*p), p))
    assert descents_apart(g) == []
    doctor(g, add=[(v, w, HORIZONTAL)])
    pair = in_pair_order(g, v, w)
    hits = [(a, b) for *edge, a, b in descents_apart(g)
            if tuple(edge) == pair]
    assert hits and all(g.distances_from(a)[b] > 1 for a, b in hits)


def test_doctored_ball_intersection_bound_fails():
    # drop a horizontal edge: its ends' balls still touch, so the bound
    # stays one step, but the ends are now farther apart
    g = cantor_graph()
    v, w = next(in_pair_order(g, v, w) for v, w, kind in g.edges()
                if kind == HORIZONTAL)
    assert touching_balls_too_far(g) == []
    doctor(g, drop=[(v, w)])
    assert (v, w) in touching_balls_too_far(g)
    assert g.distances_from(v)[w] > 1


def test_doctored_critical_level_distance_fails():
    # cut the first level-1 vertex off the root and off its level-1
    # neighbor: it reaches the last level-1 vertex only through the level
    # below, farther than their critical level allows
    g = cantor_graph()
    first, *_, last = (v for v in g.vertices if v.level == 1)
    u = next(u for u in g.adj[first] if u.level == 1)
    assert distinct_pairs_too_far(g) == []
    doctor(g, drop=[(g.root, first), (first, u)])
    l = next(l for v, w, _, _, l in g.pairs if (v, w) == (first, last))
    assert (first, last) in distinct_pairs_too_far(g)
    assert g.distances_from(first)[last] > 2 * (1 - l) + 3


def test_disconnected_graph_is_an_approximation_error(monkeypatch):
    # keep one center of the level above the deepest: the deepest centers
    # far from it get no radial edge, and the graph is not built
    original = approx.maximal_separated_net
    pipe = Pipeline(PRESETS["cantor"])
    scale = pipe.scale

    def thinned(space, sep):
        centers = original(space, sep)
        if sep == scale.sep(scale.max_level - 1):
            return centers[:1]
        return centers

    monkeypatch.setattr(approx, "maximal_separated_net", thinned)
    with pytest.raises(StageError,
                       match=r"^\[approximation\] .*not connected"):
        pipe.graph
