"""The report-only numbers, δ and the doubling constant, against the direct
computations they replaced: the loop over every vertex triple and the
greedy cover that rebuilds each ball point by point."""
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrees.approx import ApproxGraph, Vertex, build_approximation, \
    estimate_delta
from qtrees.metric import ScaleParams, compute_k0, doubling_estimate, \
    generate_space, make_space


def reference_delta(graph) -> F:
    """Every vertex triple, every choice of the pair on the right."""
    verts = graph.vertices
    do = graph.distances_from(graph.root)
    pair_dist = {v: graph.distances_from(v) for v in verts}

    def gp(x, y):
        return do[x] + do[y] - pair_dist[x][y]  # 2 * gromov product

    worst = 0
    for x, y, z in itertools.combinations(verts, 3):
        xy, yz, xz = gp(x, y), gp(y, z), gp(x, z)
        worst = max(
            worst,
            min(xy, yz) - xz,
            min(yz, xz) - xy,
            min(xy, xz) - yz,
        )
    return F(worst, 2)


def reference_doubling(space) -> int:
    """Greedy (rho/2)-cover of each open ball B(z, rho), in ascending
    point order, with the balls rebuilt point by point."""
    radii = sorted({space.d(i, j) for i in space.points
                    for j in space.points if space.d(i, j) > 0})
    worst = 1
    for z in space.points:
        for rho in radii:
            ball = [p for p in space.points if space.d(z, p) < rho]
            half = rho / 2
            covered: set[int] = set()
            count = 0
            for p in ball:
                if p in covered:
                    continue
                count += 1
                covered.update(q for q in ball if space.d(p, q) < half)
            worst = max(worst, count)
    return worst


coords = st.fractions(min_value=0, max_value=1, max_denominator=24)
METRICS = {
    "line": lambda a, b: abs(a - b),
    "circle": lambda a, b: min(abs(a - b), 1 - abs(a - b)),
    "grid": lambda a, b: max(abs(a[0] - b[0]), abs(a[1] - b[1])),
}


@st.composite
def samples(draw):
    """(kind, points): up to 10 distinct rational points of the unit
    interval, of the circle of circumference 1, or of the unit square."""
    kind = draw(st.sampled_from(sorted(METRICS)))
    point = {"line": coords, "circle": coords.filter(lambda x: x < 1),
             "grid": st.tuples(coords, coords)}[kind]
    return kind, tuple(draw(st.lists(point, min_size=2, max_size=10,
                                     unique=True)))


def sample_space(kind, points):
    d = METRICS[kind]
    return make_space([[F(d(a, b)) for b in points] for a in points],
                      label=kind)


def sample_graph(kind, points, r, depth):
    """The graph over the sample down to ``depth`` levels below its root."""
    space = sample_space(kind, points)
    k0 = compute_k0(space.diam, r)
    return build_approximation(space, ScaleParams(r, k0, k0 + depth))


rs = st.sampled_from([F(1, 6), F(1, 8), F(1, 9)])


# δ = 0 on the first two, where the close points only form radial chains
# below the root level, and δ = 1/2 on the third
@example(("line", (F(0), F(1, 12))), F(1, 6), 3)
@example(("circle", (F(0), F(1, 24), F(1, 2))), F(1, 9), 3)
@example(("line", (F(0), F(1, 2), F(1))), F(1, 6), 3)
@settings(max_examples=150, deadline=None)
@given(samples(), rs, st.integers(0, 3))
def test_delta_matches_every_triple(sample, r, depth):
    graph = sample_graph(*sample, r, depth)
    assert estimate_delta(graph) == reference_delta(graph)


def test_samples_reach_zero_and_positive_delta():
    tree = sample_graph("line", (F(0), F(1, 12)), F(1, 6), 3)
    assert estimate_delta(tree) == reference_delta(tree) == 0
    assert len(tree.vertices) == 7
    cycle = sample_graph("line", (F(0), F(1, 2), F(1)), F(1, 6), 3)
    assert estimate_delta(cycle) == reference_delta(cycle) == F(1, 2)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on up to 14 vertices plus random chords: δ
    takes larger values here than on the ball graphs."""
    n = draw(st.integers(1, 14))
    edges = {(i, draw(st.integers(0, i - 1))) for i in range(1, n)}
    ends = st.integers(0, n - 1)
    edges |= set(draw(st.lists(st.tuples(ends, ends), max_size=n)))
    adj = {Vertex(0, i): set() for i in range(n)}
    for a, b in edges:
        if a != b:
            adj[Vertex(0, a)].add(Vertex(0, b))
            adj[Vertex(0, b)].add(Vertex(0, a))
    return ApproxGraph(space=None, scale=None, nets={}, vertices=tuple(adj),
                       adj={v: tuple(sorted(ws)) for v, ws in adj.items()},
                       edge_kind={}, root=Vertex(0, 0))


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_delta_matches_every_triple_on_any_graph(graph):
    assert estimate_delta(graph) == reference_delta(graph)


@settings(max_examples=150, deadline=None)
@given(samples())
def test_doubling_matches_the_greedy_cover(sample):
    space = sample_space(*sample)
    assert doubling_estimate(space) == reference_doubling(space)


@pytest.mark.parametrize("kind, param", [("cantor", 3), ("circle", 12),
                                         ("grid", 4), ("grid", 5)])
def test_report_numbers_on_generated_spaces(kind, param):
    space = generate_space(kind, param)
    assert doubling_estimate(space) == reference_doubling(space)
    graph = build_approximation(space, ScaleParams.for_space(space, F(1, 9),
                                                             2))
    assert estimate_delta(graph) == reference_delta(graph)
