"""First embedding stage: graph vertices into one tree per color.

Each vertex, viewed as a certified ball, maps to the highest-level
covering element of the color that contains the ball at a level strictly
below the vertex's own; the root maps to the tree root.  The product map
is bilipschitz up to constants depending only on the number of colors,
and every inequality in that statement is checked pair by pair.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from qtrees.approx import ApproxGraph, Vertex
from qtrees.coverings import CoveringKernel, CoveringSequence
from qtrees.reporting import CheckResult, PASS
from qtrees.trees import ColorTree, build_color_tree

CLOSE = "close"
DISTINCT = "distinct"
UNCLASSIFIED = "unclassified"  # a vertex below level 0 is involved


@dataclass(frozen=True)
class PairClass:
    kind: str
    critical_level: Optional[int] = None


@dataclass
class Stage1:
    graph: ApproxGraph
    seq: CoveringSequence
    trees: dict[int, ColorTree]
    fc: dict[tuple[int, Vertex], str]  # (color, vertex) -> element uid
    kernel: CoveringKernel  # the region tests of the map, chains and letters
    _chains: dict[tuple[int, Vertex], tuple[str, ...]] = field(
        default_factory=dict)

    @property
    def colors(self) -> tuple[int, ...]:
        return self.seq.colors

    def image(self, color: int, v: Vertex) -> str:
        return self.fc[(color, v)]

    def tree_distance(self, color: int, v: Vertex, w: Vertex) -> int:
        t = self.trees[color].tree
        return t.generation_distance(self.image(color, v), self.image(color, w))

    def product_distance(self, v: Vertex, w: Vertex) -> int:
        return sum(self.tree_distance(c, v, w) for c in self.colors)

    def containing_chain(self, color: int, v: Vertex) -> tuple[str, ...]:
        """Tree vertices of the color whose region contains the center point
        of v, in tree vertex order."""
        key = (color, v)
        cached = self._chains.get(key)
        if cached is None:
            coord = self.kernel.coords[v.center]
            regions = self.kernel.regions
            cached = tuple(uid for uid in self.trees[color].tree.vertices()
                           if regions[uid].contains_point(coord))
            self._chains[key] = cached
        return cached


def map_fc(seq: CoveringSequence, kernel: CoveringKernel, tree: ColorTree,
           graph: ApproxGraph, color: int, v: Vertex) -> str:
    """Highest-level element of the color containing the vertex ball at a
    level <= level(v) - 1; the root maps to the tree root.  Vertices whose
    level-bound falls below the covering hierarchy (level 0 over a base
    level of -1) also land on the root, the one element that contains
    every ball."""
    if v == graph.root:
        return tree.tree.root
    top = min(v.level - 1, seq.max_level)
    if top < 0:
        return tree.tree.root
    radius = kernel.radius(v.level)
    coord = kernel.coords[v.center]
    for j in range(top, -1, -1):
        for uid in tree.level_vertices(j):
            if kernel.regions[uid].contains_ball(coord, radius):
                return uid
    raise ValueError(
        f"no covering element of color {color} contains the ball of {v}")


def embed_stage1(graph: ApproxGraph, seq: CoveringSequence) -> Stage1:
    trees = {c: build_color_tree(seq, c) for c in seq.colors}
    kernel = CoveringKernel(seq, max(seq.max_level, graph.scale.max_level))
    fc = {}
    for c in seq.colors:
        for v in graph.vertices:
            fc[(c, v)] = map_fc(seq, kernel, trees[c], graph, c, v)
    return Stage1(graph=graph, seq=seq, trees=trees, fc=fc, kernel=kernel)


# ---------------------------------------------------------------------------
# Pair classification


def classify_pair(graph: ApproxGraph, v: Vertex, w: Vertex) -> PairClass:
    """Horizontally close when d < r^(min level); otherwise the critical
    level l satisfies r^l <= d < r^(l-1).  Pairs involving levels below 0
    stay unclassified (they are covered by the Lipschitz and global
    suites only)."""
    sep = graph.scale.sep
    lo = min(v.level, w.level)
    d = graph.d(v, w)
    if lo < 0:
        return PairClass(UNCLASSIFIED) if d >= sep(lo) else PairClass(CLOSE)
    if d < sep(lo):
        return PairClass(CLOSE)
    l = lo
    while d >= sep(l - 1):
        l -= 1
    return PairClass(DISTINCT, critical_level=l)


def critical_level(graph: ApproxGraph, v: Vertex, w: Vertex) -> int:
    pc = classify_pair(graph, v, w)
    if pc.kind != DISTINCT:
        raise ValueError(f"pair {v},{w} is not horizontally distinct")
    return pc.critical_level


# ---------------------------------------------------------------------------
# Pairwise verification


@dataclass
class PairRow:
    v: Vertex
    w: Vertex
    graph_dist: int
    kind: str
    critical: Optional[int]
    sum_tree_dist: int
    best_color: Optional[int]
    bound_rhs: Optional[int]
    violation: bool


def stage1_suite(emb: Stage1) -> tuple[list[CheckResult], list[PairRow]]:
    graph = emb.graph
    C = len(emb.colors)
    lip = CheckResult("stage1-tree-lipschitz", PASS)
    close_radial = CheckResult("stage1-close-radial-segment", PASS)
    close_bound = CheckResult("stage1-close-pair-bound", PASS)
    distinct_bound = CheckResult("stage1-distinct-pair-bound", PASS)
    global_bound = CheckResult("stage1-global-lower-bound", PASS)
    radclose = CheckResult("stage1-close-levels-differ", PASS)
    critdist = CheckResult("stage1-critical-level-distance", PASS)
    rows: list[PairRow] = []

    for v, w in itertools.combinations(graph.vertices, 2):
        gd = graph.distance(v, w)
        per_color = {c: emb.tree_distance(c, v, w) for c in emb.colors}
        total = sum(per_color.values())
        pc = classify_pair(graph, v, w)

        # (a) every color is 2-Lipschitz
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
                t = emb.trees[c].tree
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
            # distinct vertices that are close have different levels and
            # nested certified balls
            if v != w:
                radclose.checked += 1
                hi, lo = (v, w) if v.level > w.level else (w, v)
                if v.level == w.level:
                    radclose.add_violation({"pair": (v, w),
                                            "reason": "equal levels"})
                elif graph.d(hi, lo) + graph.ball_radius(hi) > graph.ball_radius(lo):
                    radclose.add_violation({"pair": (v, w),
                                            "reason": "upper ball not inside lower"})
                elif gd > abs(v.level - w.level) + 1:
                    radclose.add_violation({"pair": (v, w), "dist": gd})

        elif pc.kind == DISTINCT:
            l = pc.critical_level
            hi, lo_v = (v, w) if v.level >= w.level else (w, v)
            critdist.checked += 1
            if gd > hi.level + lo_v.level - 2 * l + 3:
                critdist.add_violation({"pair": (v, w), "dist": gd,
                                        "bound": hi.level + lo_v.level - 2 * l + 3})
            distinct_bound.checked += 1
            ok = False
            for c in emb.colors:
                t = emb.trees[c].tree
                a, b = emb.image(c, hi), emb.image(c, lo_v)
                wv = t.lca(a, b)
                dist_aw = t.generation_distance(a, wv)
                lhs_levels = max(t.level[a], t.level[b]) - l + 1
                if lhs_levels <= C * (dist_aw + 1) and \
                        gd <= 2 * C * dist_aw + (2 * C + 1):
                    ok, best_color, bound_rhs = True, c, 2 * C * dist_aw + 2 * C + 1
                    break
            if not ok:
                violation = True
                distinct_bound.add_violation({"pair": (v, w), "dist": gd,
                                              "critical": l})

        # (d) global lower bound, all pairs
        global_bound.checked += 1
        if gd > 2 * C * total + (2 * C + 1):
            violation = True
            global_bound.add_violation({"pair": (v, w), "dist": gd,
                                        "product_dist": total})

        rows.append(PairRow(v, w, gd, pc.kind, pc.critical_level, total,
                            best_color, bound_rhs, violation))

    checks = [lip, close_radial, close_bound, distinct_bound, global_bound,
              radclose, critdist,
              check_segment_dip(emb), check_level_escape(emb)]
    return checks, rows


def check_segment_dip(emb: Stage1) -> CheckResult:
    """For horizontally distinct pairs, every same-color pair of elements
    containing the two centers meets strictly below the critical level, with
    at most three sub-critical vertices on each side of the meet.

    The tree root is the whole space: its certificate diameter is bounded by
    r^k0, not by the level-0 mesh, so it counts with effective level k0.
    """
    res = CheckResult("stage1-critical-segment-shape", PASS)
    graph = emb.graph
    k0 = graph.scale.k0

    for v, w in itertools.combinations(graph.vertices, 2):
        pc = classify_pair(graph, v, w)
        if pc.kind != DISTINCT:
            continue
        l = pc.critical_level
        for c in emb.colors:
            tree = emb.trees[c]
            t = tree.tree

            def eff(uid):
                return k0 if uid == t.root else t.level[uid]

            for a in emb.containing_chain(c, v):
                for b in emb.containing_chain(c, w):
                    res.checked += 1
                    meet = t.lca(a, b)
                    if eff(meet) >= l:
                        res.add_violation({"pair": (v, w), "color": c,
                                           "meet": meet, "critical": l})
                        continue
                    for end in (a, b):
                        seg = _segment(t, meet, end)
                        below = sum(1 for u in seg if eff(u) < l)
                        if below > 3:
                            res.add_violation({"pair": (v, w), "color": c,
                                               "end": end, "below": below})
    return res


def check_level_escape(emb: Stage1) -> CheckResult:
    """Some color keeps the image far from every shallow tree level: for a
    vertex at level j+1 and any i <= j, a color c has
    (distance from the image to level-i vertices) + 1 >= (j-i+1)/|C|."""
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
                    best = None  # empty level: infinite distance, satisfied
                    break
                m = min(tree.tree.generation_distance(uid, u) for u in level_i)
                if best is None or m > best:
                    best = m
            if best is not None and Fraction(j - i + 1, C) > best + 1:
                res.add_violation({"vertex": v, "i": i, "best": best})
    return res


def _segment(tree, meet: str, end: str) -> list[str]:
    path = tree.root_path(end)
    i = path.index(meet)
    return list(path[i:])


# ---------------------------------------------------------------------------
# Pair dump


def write_pairs_csv(rows: list[PairRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v", "v'", "graph_dist", "class", "critical_level",
                         "sum_tree_dist", "best_color", "bound_rhs",
                         "violation"])
        for row in rows:
            writer.writerow([
                f"{row.v.level}:{row.v.center}",
                f"{row.w.level}:{row.w.center}",
                row.graph_dist,
                row.kind,
                "" if row.critical is None else row.critical,
                row.sum_tree_dist,
                "" if row.best_color is None else row.best_color,
                "" if row.bound_rhs is None else row.bound_rhs,
                int(row.violation),
            ])
