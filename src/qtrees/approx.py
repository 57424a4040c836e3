"""Levelled ball graph over a finite metric space.

Vertices are (level, net center) pairs for maximal r^k-separated nets,
one level per k0..J.  Horizontal edges join same-level vertices whose
closed balls of radius 2 r^k touch (d <= 4 r^k); radial edges join
adjacent levels when the upper ball sits inside the lower one, certified
on centers by d + 2 r^(k+1) <= 2 r^k.  The center rule is what the
containment proofs actually produce, it is transitive, and it does not
depend on how densely the space was sampled.

Gromov products are taken at the root and held doubled, as ints.  The
exact δ over all vertex triples and the visual band are reported, never
asserted.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from qtrees.metric import FiniteMetricSpace, ScaleParams, maximal_separated_net
from qtrees.reporting import CheckResult, PASS


class Vertex(NamedTuple):
    level: int
    center: int


HORIZONTAL = "H"
RADIAL = "R"


@dataclass
class ApproxGraph:
    """The graph over one space and scale.

    ``nets`` holds the net centers of every graph level k0..max_level.
    ``net(level)`` reads them, and builds the net of any other level on
    first use and keeps it there; the covering contract and the edge
    letters read the level one past the truncation.
    """

    space: FiniteMetricSpace
    scale: ScaleParams
    nets: dict[int, tuple[int, ...]]
    vertices: tuple[Vertex, ...]
    adj: dict[Vertex, tuple[Vertex, ...]]
    edge_kind: dict[frozenset, str]
    root: Vertex
    threshold_hits: int = 0  # comparisons that landed exactly on a boundary
    _dist_cache: dict[Vertex, dict[Vertex, int]] = field(default_factory=dict)
    _raddesc_cache: dict[Vertex, dict[int, set]] = field(default_factory=dict)

    # -- basic queries ------------------------------------------------------

    def net(self, level: int) -> tuple[int, ...]:
        """Centers of the maximal r^level-separated net."""
        centers = self.nets.get(level)
        if centers is None:
            centers = maximal_separated_net(
                self.space, self.scale.sep(level), level).centers
            self.nets[level] = centers
        return centers

    def ball_radius(self, v: Vertex) -> Fraction:
        return 2 * self.scale.sep(v.level)

    def d(self, v: Vertex, w: Vertex) -> Fraction:
        return self.space.d(v.center, w.center)

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return self.adj[v]

    def has_edge(self, v: Vertex, w: Vertex) -> bool:
        return frozenset((v, w)) in self.edge_kind

    def edges(self):
        for pair, kind in self.edge_kind.items():
            v, w = sorted(pair)
            yield v, w, kind

    def distances_from(self, source: Vertex) -> dict[Vertex, int]:
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        self._dist_cache[source] = dist
        return dist

    def distance(self, v: Vertex, w: Vertex) -> int:
        return self.distances_from(v)[w]

    def gromov_row(self, x: Vertex) -> dict[Vertex, int]:
        """Twice the Gromov product (x|y) at the root, for every vertex y:
        |ox| + |oy| - |xy|, an int read off the cached BFS rows."""
        do, dx = self.distances_from(self.root), self.distances_from(x)
        return {y: do[x] + oy - dx[y] for y, oy in do.items()}

    def radial_descendants(self, v: Vertex) -> dict[int, set]:
        """Vertices reachable from v by strictly descending radial edges,
        grouped by level (v itself included)."""
        cached = self._raddesc_cache.get(v)
        if cached is not None:
            return cached
        by_level: dict[int, set] = {v.level: {v}}
        for level in range(v.level, self.scale.k0, -1):
            nxt = set()
            for u in by_level.get(level, ()):
                for w in self.adj[u]:
                    if w.level == level - 1 and \
                            self.edge_kind[frozenset((u, w))] == RADIAL:
                        nxt.add(w)
            if nxt:
                by_level[level - 1] = nxt
        self._raddesc_cache[v] = by_level
        return by_level


def build_approximation(space: FiniteMetricSpace, scale: ScaleParams
                        ) -> ApproxGraph:
    """Construct the graph with nets for levels k0..max_level."""
    if scale.max_level < scale.k0:
        raise ValueError("max_level below base level")
    r = scale.r
    nets = {
        k: maximal_separated_net(space, scale.sep(k), k).centers
        for k in range(scale.k0, scale.max_level + 1)
    }
    if len(nets[scale.k0]) != 1:
        raise AssertionError("base level net must be a single point")
    vertices = tuple(
        Vertex(k, c) for k in sorted(nets) for c in nets[k]
    )
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    edge_kind: dict[frozenset, str] = {}
    threshold_hits = 0

    def add_edge(v, w, kind):
        adj[v].append(w)
        adj[w].append(v)
        edge_kind[frozenset((v, w))] = kind

    for k in range(scale.k0, scale.max_level + 1):
        bound = 4 * scale.sep(k)
        centers = nets[k]
        for i, a in enumerate(centers):
            for b in centers[i + 1:]:
                d = space.d(a, b)
                if d == bound:
                    threshold_hits += 1
                if d <= bound:
                    add_edge(Vertex(k, a), Vertex(k, b), HORIZONTAL)
        if k == scale.max_level:
            continue
        upper = nets[k + 1]
        margin = 2 * scale.sep(k) - 2 * scale.sep(k + 1)
        for up in upper:
            for lo in centers:
                d = space.d(up, lo)
                if d == margin:
                    threshold_hits += 1
                if d <= margin:
                    add_edge(Vertex(k + 1, up), Vertex(k, lo), RADIAL)

    graph = ApproxGraph(
        space=space,
        scale=scale,
        nets=nets,
        vertices=vertices,
        adj={v: tuple(sorted(ws)) for v, ws in adj.items()},
        edge_kind=edge_kind,
        root=Vertex(scale.k0, nets[scale.k0][0]),
        threshold_hits=threshold_hits,
    )
    reach = graph.distances_from(graph.root)
    if len(reach) != len(vertices):
        raise AssertionError("approximation graph is not connected")
    return graph


def central_ancestor(graph: ApproxGraph, v: Vertex) -> Vertex:
    """A vertex one level down within r^(level-1) of v, radially joined to v
    and to every same-level neighbor of v; first candidate in ascending
    center order.  Existence is guaranteed by net maximality."""
    if v == graph.root:
        raise ValueError("the root has no ancestor")
    k = v.level - 1
    for c in graph.nets[k]:
        if graph.space.d(v.center, c) <= graph.scale.sep(k):
            w = Vertex(k, c)
            return w
    raise AssertionError(f"no central ancestor for {v}: net not maximal")


def estimate_delta(graph: ApproxGraph) -> Fraction:
    """Hyperbolicity defect at the root, exact over all vertex triples: the
    largest amount by which min((x|y), (y|z)) exceeds (x|z).  With g the
    doubled products, max_y min(g(x,y), g(y,z)) >= t exactly when the
    bitsets {y : g(x,y) >= t} and {y : g(z,y) >= t} meet (Fournier,
    Viennot and Vigliotti, IPL 2015).  Thresholds run down from the largest
    g; since g >= 0, none at or below the worst defect can beat it."""
    verts = graph.vertices
    gp = [[row[y] for y in verts] for row in map(graph.gromov_row, verts)]
    worst = 0
    for t in range(max(map(max, gp)), 0, -1):
        if t <= worst:
            break
        rows = [sum(1 << j for j, g in enumerate(gi) if g >= t) for gi in gp]
        for i, gi in enumerate(gp):
            for k in range(i + 1, len(verts)):
                if gi[k] < t - worst and rows[i] & rows[k]:
                    worst = t - gi[k]
    return Fraction(worst, 2)


@dataclass(frozen=True)
class VisualBand:
    """Extremes of d(center, center') * a^(gromov product) over deepest-level
    pairs, stored squared so half-integer exponents stay exact."""

    c1_sq: Fraction
    c2_sq: Fraction

    @property
    def c1(self) -> float:
        return float(self.c1_sq) ** 0.5

    @property
    def c2(self) -> float:
        return float(self.c2_sq) ** 0.5

    @property
    def ratio_sq(self) -> Fraction:
        return self.c2_sq / self.c1_sq


def visual_metric_constants(graph: ApproxGraph) -> VisualBand:
    """Treat deepest-level centers as boundary proxies and measure how well
    the space metric matches a^-(gromov product)."""
    deepest = [v for v in graph.vertices if v.level == graph.scale.max_level]
    if len(deepest) < 2:
        raise ValueError("need at least two deepest-level vertices")
    a = graph.scale.a
    vals_sq = []  # (d * a^(g2/2))^2
    for i, v in enumerate(deepest):
        g2 = graph.gromov_row(v)
        vals_sq += [graph.d(v, w) ** 2 * a**g2[w] for w in deepest[i + 1:]]
    return VisualBand(c1_sq=min(vals_sq), c2_sq=max(vals_sq))


# ---------------------------------------------------------------------------
# Invariant checks


def check_connectivity(graph: ApproxGraph) -> CheckResult:
    res = CheckResult("approx-connected", PASS, checked=len(graph.vertices))
    reach = graph.distances_from(graph.root)
    for v in graph.vertices:
        if v not in reach:
            res.add_violation({"vertex": v})
    return res


def check_ball_intersection_bound(graph: ApproxGraph) -> CheckResult:
    """Pairs whose closed certified balls touch satisfy
    |vv'| <= |level difference| + 1."""
    res = CheckResult("approx-ball-intersect-bound", PASS)
    for v, w in itertools.combinations(graph.vertices, 2):
        if graph.d(v, w) <= graph.ball_radius(v) + graph.ball_radius(w):
            res.checked += 1
            if graph.distance(v, w) > abs(v.level - w.level) + 1:
                res.add_violation({
                    "pair": (v, w),
                    "graph_dist": graph.distance(v, w),
                    "bound": abs(v.level - w.level) + 1,
                })
    return res


def check_central_ancestors(graph: ApproxGraph) -> CheckResult:
    """Every non-root vertex has a central ancestor: one level down, within
    r^(k-1) of the center, radially joined to the vertex and to each of its
    same-level neighbors."""
    res = CheckResult("approx-central-ancestor", PASS)
    for v in graph.vertices:
        if v == graph.root:
            continue
        res.checked += 1
        try:
            w = central_ancestor(graph, v)
        except AssertionError as exc:
            res.add_violation({"vertex": v, "reason": str(exc)})
            continue
        if not graph.has_edge(v, w) or \
                graph.edge_kind[frozenset((v, w))] != RADIAL:
            res.add_violation({"vertex": v, "ancestor": w,
                               "reason": "no radial edge to vertex"})
            continue
        for u in graph.neighbors(v):
            if u.level == v.level and not graph.has_edge(u, w):
                res.add_violation({"vertex": v, "ancestor": w, "neighbor": u,
                                   "reason": "neighbor not joined to ancestor"})
    return res


def check_horizontal_descent(graph: ApproxGraph) -> CheckResult:
    """If |vv'| <= 1 at one level, any radially adjacent vertices one level
    below are also within distance 1."""
    res = CheckResult("approx-horizontal-descent", PASS)
    for v, w in itertools.combinations(graph.vertices, 2):
        if v.level != w.level or not graph.has_edge(v, w):
            continue
        below_v = [u for u in graph.neighbors(v) if u.level == v.level - 1]
        below_w = [u for u in graph.neighbors(w) if u.level == w.level - 1]
        for a in below_v:
            for b in below_w:
                res.checked += 1
                if a != b and graph.distance(a, b) > 1:
                    res.add_violation({"pair": (v, w), "below": (a, b),
                                       "dist": graph.distance(a, b)})
    return res


def check_geodesic_shape(graph: ApproxGraph) -> CheckResult:
    """Every pair admits a shortest path that descends radially, crosses at
    most one horizontal edge at its lowest level, and ascends radially."""
    res = CheckResult("approx-geodesic-shape", PASS)
    for v, w in itertools.combinations(graph.vertices, 2):
        res.checked += 1
        target = graph.distance(v, w)
        dv = graph.radial_descendants(v)
        dw = graph.radial_descendants(w)
        found = False
        for m in range(min(v.level, w.level), graph.scale.k0 - 1, -1):
            if found:
                break
            down = (v.level - m) + (w.level - m)
            if down > target:
                break
            av, aw = dv.get(m, ()), dw.get(m, ())
            if down == target:
                if any(u in aw for u in av):
                    found = True
            elif down + 1 == target:
                for u in av:
                    if any(graph.has_edge(u, x) for x in aw if x != u):
                        found = True
                        break
        if not found:
            res.add_violation({"pair": (v, w), "dist": target})
    return res


def check_gromov_products(graph: ApproxGraph) -> CheckResult:
    """Nonnegativity plus the endpoint identities (o,x,x) -> |ox| and
    (o,o,y) -> 0."""
    res = CheckResult("approx-gromov-product", PASS)
    o = graph.root
    g2 = {v: graph.gromov_row(v) for v in graph.vertices}
    for v, w in itertools.combinations(graph.vertices, 2):
        res.checked += 1
        if g2[v][w] < 0:
            res.add_violation({"pair": (v, w),
                               "product": Fraction(g2[v][w], 2)})
    for v in graph.vertices:
        if g2[v][v] != 2 * graph.distance(o, v):
            res.add_violation({"vertex": v, "reason": "(o,x,x) != |ox|"})
        if g2[o][v] != 0:
            res.add_violation({"vertex": v, "reason": "(o,o,y) != 0"})
    return res


def approx_suite(graph: ApproxGraph) -> list[CheckResult]:
    return [
        check_connectivity(graph),
        check_ball_intersection_bound(graph),
        check_central_ancestors(graph),
        check_horizontal_descent(graph),
        check_geodesic_shape(graph),
        check_gromov_products(graph),
    ]


# ---------------------------------------------------------------------------
# Export


def export_edges(graph: ApproxGraph, path) -> None:
    """`level:center level:center H|R`, one edge per line, sorted."""
    lines = []
    for v, w, kind in graph.edges():
        lines.append(f"{v.level}:{v.center} {w.level}:{w.center} {kind}")
    with open(path, "w") as fh:
        fh.write("\n".join(sorted(lines)) + "\n")


def graph_summary(graph: ApproxGraph, delta=None, band=None) -> dict:
    kinds = {"H": 0, "R": 0}
    for _, _, kind in graph.edges():
        kinds[kind] += 1
    out = {
        "levels": [graph.scale.k0, graph.scale.max_level],
        "vertexCount": len(graph.vertices),
        "edgeCounts": kinds,
        "thresholdHits": graph.threshold_hits,
    }
    if delta is not None:
        out["delta"] = delta
    if band is not None:
        out["c1"] = f"{band.c1:.6g}"
        out["c2"] = f"{band.c2:.6g}"
    return out
