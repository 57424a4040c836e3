"""Levelled ball graph over a finite metric space.

Vertices are (level, net center) pairs for maximal r^k-separated nets,
one level per k0..J.  Horizontal edges join same-level vertices whose
closed balls of radius 2 r^k touch (d <= 4 r^k); radial edges join
adjacent levels when the upper ball sits inside the lower one, certified
on centers by d + 2 r^(k+1) <= 2 r^k.  The center rule is what the
containment proofs actually produce, it is transitive, and it does not
depend on how densely the space was sampled.

The graph owns the pair table, ``ApproxGraph.pairs``: one row per vertex
pair in ``itertools.combinations`` order, with the graph distance and the
pair's class (horizontally close, or distinct at a critical level).  The
edges and the classes compare the space's int distances with r^k moved
into the space's unit (rounded up for a strict test, down otherwise), so
every pair loop of every stage reads the same exact answers.

Gromov products are taken at the root and held doubled, as ints.  The
exact δ over all vertex triples and the squares of the visual band's
extremes are reported as exact rationals, never asserted.  The suite
checks the shape of shortest paths, the one lemma of the graph whose proof
is not a triangle inequality on the edge thresholds.  What the
construction guarantees is not rechecked: the products' identities hold
by their formula, a graph that is not connected is never built, and four
lemmas of the hyperbolic approximation (Buyalo–Schroeder, *Elements of
Asymptotic Geometry*, ch. 6) follow from the thresholds, the maximal nets
and r <= 1/6 by one triangle inequality each:

- Central ancestor.  For v at level k + 1, the maximal r^k-net has a
  center c with d(v, c) < r^k, within the radial threshold
  2 r^k - 2 r^(k+1) since r <= 1/2.  A same-level neighbour u of v has
  d(u, c) < 4 r^(k+1) + r^k <= 2 r^k - 2 r^(k+1) since 6 r <= 1, so c is
  radially joined to v and to u.
- Horizontal descent.  For a radially below v and b radially below w,
  where v and w are joined at level k,
  d(a, b) <= 4 r^k + 2 (2 r^(k-1) - 2 r^k) = 4 r^(k-1): a and b are equal
  or joined.
- Ball intersection.  Balls of v at level a and w at level b > a that
  touch have d(v, w) <= 2 r^a + 2 r^b <= (2 + 1/3) r^a.  The chain of w's
  central ancestors down to level a is shorter than
  r^a / (1 - r) <= 6 r^a / 5, so its end lies within
  (2 + 1/3 + 6/5) r^a < 4 r^a of v, and the graph distance is at most
  b - a + 1.  At b = a touching balls are joined.
- Critical-level distance.  A distinct pair at critical level l has
  r^l <= d(v, w) < r^(l-1), and d < r^k0, so l - 1 >= k0.  Both ends'
  chains down to level l - 1 end within (1 + 12/5) r^(l-1) < 4 r^(l-1)
  of each other, so the graph distance is at most
  level v + level w - 2l + 3.

``tests/test_pair_table.py`` holds each of the four as a brute-force
predicate, and a doctored graph fails each.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from qtrees.metric import FiniteMetricSpace, ScaleParams, maximal_separated_net
from qtrees.reporting import CheckResult, PASS


class Vertex(NamedTuple):
    level: int
    center: int


HORIZONTAL = "H"
RADIAL = "R"

# pair classes: horizontally close, d < r^(min level); distinct with
# critical level l, r^l <= d < r^(l-1); a pair with a vertex below level 0
# that is not close stays unclassified
CLOSE = "close"
DISTINCT = "distinct"
UNCLASSIFIED = "unclassified"


class ApproxGraph:
    """The graph over one space and scale.

    ``nets`` holds the net centers of every graph level k0..max_level.
    ``net(level)`` reads them, and builds the net of any other level on
    first use and keeps it there; the covering contract and the edge
    letters read the level one past the truncation.
    """

    def __init__(self, space: FiniteMetricSpace, scale: ScaleParams,
                 nets: dict[int, tuple[int, ...]],
                 vertices: tuple[Vertex, ...],
                 adj: dict[Vertex, tuple[Vertex, ...]],
                 edge_kind: dict[frozenset, str], root: Vertex,
                 threshold_hits: int = 0):
        self.space = space
        self.scale = scale
        self.nets = nets
        self.vertices = vertices
        self.adj = adj
        self.edge_kind = edge_kind
        self.root = root
        # comparisons that landed exactly on a boundary
        self.threshold_hits = threshold_hits
        self._dist_cache: dict[Vertex, dict[Vertex, int]] = {}
        self._raddesc_cache: dict[Vertex, dict[int, set]] = {}

    # -- basic queries ------------------------------------------------------

    def net(self, level: int) -> tuple[int, ...]:
        """Centers of the maximal r^level-separated net."""
        centers = self.nets.get(level)
        if centers is None:
            centers = maximal_separated_net(self.space,
                                            self.scale.sep(level))
            self.nets[level] = centers
        return centers

    def d(self, v: Vertex, w: Vertex) -> Fraction:
        return self.space.d(v.center, w.center)

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

    # -- the pair table -----------------------------------------------------

    @cached_property
    def pairs(self) -> tuple[tuple, ...]:
        """One row (v, w, graph distance, class, critical level or None)
        per vertex pair, in ``itertools.combinations(vertices, 2)``
        order."""
        scale, unit = self.scale, self.space.unit
        # d < r^k exactly when the int distance is below ceil(r^k * unit)
        sep = {k: math.ceil(scale.sep(k) * unit)
               for k in range(scale.k0 - 1, scale.max_level + 1)}
        verts = self.vertices
        rows = []
        for i, v in enumerate(verts):
            hops, row = self.distances_from(v), self.space.rows[v.center]
            for w in verts[i + 1:]:
                d = row[w.center]
                lo = min(v.level, w.level)
                if d < sep[lo]:
                    rows.append((v, w, hops[w], CLOSE, None))
                elif lo < 0:
                    rows.append((v, w, hops[w], UNCLASSIFIED, None))
                else:
                    l = lo
                    while d >= sep[l - 1]:
                        l -= 1
                    rows.append((v, w, hops[w], DISTINCT, l))
        return tuple(rows)

    def gromov_row(self, x: Vertex) -> dict[Vertex, int]:
        """Twice the Gromov product (x|y) at the root, for every vertex y:
        |ox| + |oy| - |xy|, an int read off the cached BFS rows."""
        do, dx = self.distances_from(self.root), self.distances_from(x)
        return {y: do[x] + oy - dx[y] for y, oy in do.items()}

    def radial_descendants(self, v: Vertex) -> dict[int, set]:
        """Vertices reachable from v by strictly descending radial edges,
        grouped by level (v itself included).  ``build_approximation``
        joins adjacent levels by radial edges only, so every neighbour one
        level down is radial."""
        cached = self._raddesc_cache.get(v)
        if cached is not None:
            return cached
        by_level: dict[int, set] = {v.level: {v}}
        for level in range(v.level, self.scale.k0, -1):
            nxt = set()
            for u in by_level.get(level, ()):
                nxt.update(w for w in self.adj[u] if w.level == level - 1)
            if nxt:
                by_level[level - 1] = nxt
        self._raddesc_cache[v] = by_level
        return by_level


def build_approximation(space: FiniteMetricSpace, scale: ScaleParams
                        ) -> ApproxGraph:
    """Construct the graph with nets for levels k0..max_level."""
    if scale.max_level < scale.k0:
        raise ValueError("max_level below base level")
    nets = {
        k: maximal_separated_net(space, scale.sep(k))
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
    dist = space.rows

    def add_edge(v, w, kind):
        adj[v].append(w)
        adj[w].append(v)
        edge_kind[frozenset((v, w))] = kind

    def at_most(bound: Fraction) -> tuple[int, Optional[int]]:
        # int distances d <= bound, and the one equal to it if any
        top = math.floor(bound * space.unit)
        return top, (top if top == bound * space.unit else None)

    for k in range(scale.k0, scale.max_level + 1):
        top, hit = at_most(4 * scale.sep(k))
        centers = nets[k]
        for i, a in enumerate(centers):
            row = dist[a]
            for b in centers[i + 1:]:
                d = row[b]
                if d == hit:
                    threshold_hits += 1
                if d <= top:
                    add_edge(Vertex(k, a), Vertex(k, b), HORIZONTAL)
        if k == scale.max_level:
            continue
        upper = nets[k + 1]
        top, hit = at_most(2 * scale.sep(k) - 2 * scale.sep(k + 1))
        for up in upper:
            row = dist[up]
            for lo in centers:
                d = row[lo]
                if d == hit:
                    threshold_hits += 1
                if d <= top:
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


class VisualBand(NamedTuple):
    """Extremes of d(center, center') * a^(gromov product) over deepest-level
    pairs, stored squared so half-integer exponents stay exact."""

    c1_sq: Fraction
    c2_sq: Fraction


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


def check_geodesic_shape(graph: ApproxGraph) -> CheckResult:
    """Every pair admits a shortest path that descends radially, crosses at
    most one horizontal edge at its lowest level, and ascends radially."""
    res = CheckResult("approx-geodesic-shape", PASS)
    for v, w, target, _, _ in graph.pairs:
        res.checked += 1
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


def approx_suite(graph: ApproxGraph) -> list[CheckResult]:
    return [check_geodesic_shape(graph)]


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
        out["c1Sq"] = band.c1_sq
        out["c2Sq"] = band.c2_sq
    return out
