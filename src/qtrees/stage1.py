"""First embedding stage: graph vertices into one tree per color.

Each vertex, viewed as a certified ball, maps to the highest-level
covering element of the color that contains the ball at a level strictly
below the vertex's own; the root maps to the tree root.  The product map
is bilipschitz up to constants depending only on the number of colors,
and every inequality in that statement is checked pair by pair.

The pair loops read the graph's pair table, ``ApproxGraph.pairs``: the
graph distance, the class and the critical level of every vertex pair,
compared on ints.  What the pair table alone decides, such as the graph
distance at a critical level, follows from the graph's edge rule (see the
``approx`` module); every check here reads the trees.  The map is read
off the containing chains: an element holding a vertex's ball holds its
center.  Both are built together, with one region scan per center and
tree vertex on the covering's own int kernel, ``seq.kernel``.  The tree
side has one owner per quantity, each built once: the color trees own
depths, root-path levels and meets (``LevelledTree``), and ``Stage1``
owns the images of every vertex and its containing chains with their int
keys.  A pair reaches the tree side only through its images or chains in
each color, with the critical level, so each check computes an outcome
once per distinct key (tree distances per image pair, the distinct-pair
bound per (images, level), the segment dip per (color, a, b, level)) and
replays it to every pair that has the key, in pair-table order: instance
counts and the first violations are those of a plain pair-by-pair loop.

The segment dip quantifies over every element pair of two containing
chains, but it decides most chain pairs from their two tips alone.  An
element holding a point has its parent holding it, so a chain is the root
path of its deepest element, its tip.  Every element pair of the chains
of tips x and y then meets on the root path of meet(x, y), whose level
bounds theirs, and an end's count of sub-critical vertices is at most its
tip's count from the root: levels rise along root paths, so the
sub-critical vertices come first.  Both bounds are attained, so the chain
pair fails exactly when one of them does (`check_segment_dip` gives the
proof).  The element-pair loop stays for the chain pairs that this tip
test cannot clear, and for any chain that is not its tip's root path with
levels rising from k0, so violations and their order come from it alone.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple, Optional

from qtrees.approx import CLOSE, DISTINCT, UNCLASSIFIED, ApproxGraph, Vertex
from qtrees.coverings import CoveringSequence
from qtrees.reporting import CheckResult, PASS
from qtrees.trees import LevelledTree, build_color_tree


class PairClass(NamedTuple):
    kind: str
    critical_level: Optional[int] = None


class Stage1:
    def __init__(self, graph: ApproxGraph, seq: CoveringSequence,
                 trees: dict[int, LevelledTree],
                 images: dict[Vertex, tuple[str, ...]],
                 chains: dict[Vertex, tuple[tuple[int, ...], tuple]]):
        self.graph = graph
        self.seq = seq
        self.trees = trees
        self.images = images  # element uid per color, in order
        # per vertex: one int key per color and the containing chain of
        # every color, in tree vertex order
        self.chains = chains

    @property
    def colors(self) -> tuple[int, ...]:
        return self.seq.colors

    def image(self, color: int, v: Vertex) -> str:
        return self.images[v][self.colors.index(color)]


def embed_stage1(graph: ApproxGraph, seq: CoveringSequence) -> Stage1:
    """The color trees, the containing chains and the stage-1 map of a
    sequence reaching the graph's depth, with their region tests on the
    sequence's kernel.

    The containing chain of a vertex in a color is the tree vertices whose
    region contains the vertex's center point, in tree vertex order; equal
    chains of a color share an int key, and vertices with one center share
    one entry.  The image of a vertex is the highest-level element of its
    chain at a level <= min(level(v) - 1, J) that contains the vertex's
    ball, or the tree root when no element does.  An element holding the
    ball holds its center, so it lies on the chain, and a validated
    covering has at most one same-color element per level there.  The
    root, at level 0 and the whole space, is on every chain and holds
    every ball; the graph root, at level k0 <= 0, maps to it."""
    trees = {c: build_color_tree(seq, c) for c in seq.colors}
    kernel = seq.kernel
    coords, regions, ball = kernel.coords, kernel.regions, kernel.ball
    uids = [trees[c].vertices() for c in seq.colors]
    levels = [trees[c].level for c in seq.colors]
    roots = [trees[c].root for c in seq.colors]
    keys: dict[tuple[int, tuple[str, ...]], int] = {}
    # per center: its chains entry, and each chain from its highest level
    # down (a stable sort, so one level keeps tree vertex order)
    by_center: dict[int, tuple] = {}
    images, chains = {}, {}
    for v in graph.vertices:
        coord = coords[v.center]
        entry = by_center.get(v.center)
        if entry is None:
            chain = tuple(tuple(u for u in color_uids
                                if regions[u].contains_point(coord))
                          for color_uids in uids)
            key = tuple(keys.setdefault((c, ch), len(keys))
                        for c, ch in zip(seq.colors, chain))
            down = tuple(sorted(ch, key=level.__getitem__, reverse=True)
                         for ch, level in zip(chain, levels))
            entry = by_center[v.center] = (key, chain), down
        chains[v], down = entry
        top = min(v.level - 1, seq.max_level)
        images[v] = tuple(
            next((u for u in ch if level[u] <= top and
                  regions[u].contains_region(ball(v.level, v.center))), root)
            for ch, level, root in zip(down, levels, roots))
    return Stage1(graph=graph, seq=seq, trees=trees, images=images,
                  chains=chains)


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


# ---------------------------------------------------------------------------
# Pairwise verification


class PairRow(NamedTuple):
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
    colors = emb.colors
    C = len(colors)
    lip = CheckResult("stage1-tree-lipschitz", PASS)
    close_radial = CheckResult("stage1-close-radial-segment", PASS)
    close_bound = CheckResult("stage1-close-pair-bound", PASS)
    distinct_bound = CheckResult("stage1-distinct-pair-bound", PASS)
    global_bound = CheckResult("stage1-global-lower-bound", PASS)
    rows: list[PairRow] = []

    trees = [emb.trees[c] for c in colors]
    images = emb.images
    # per image pair: tree distances by color and the colors whose two
    # images are incomparable
    tree_side: dict[tuple, tuple] = {}
    # per (hi images, lo images, l): (color, rhs) of the colors meeting the
    # level half of the distinct-pair bound, in color order
    distinct_side: dict[tuple, tuple] = {}

    for v, w, gd, kind, l in graph.pairs:
        iv, iw = images[v], images[w]
        side = tree_side.get((iv, iw))
        if side is None:
            dists = tuple(t.generation_distance(a, b)
                          for t, a, b in zip(trees, iv, iw))
            apart = tuple(c for c, t, a, b in zip(colors, trees, iv, iw)
                          if t.meets[a, b] not in (a, b))
            side = tree_side[(iv, iw)] = dists, sum(dists), apart
        dists, total, apart = side

        # (a) every color is 2-Lipschitz
        lip.checked += 1
        for c, td in zip(colors, dists):
            if td > 2 * gd:
                lip.add_violation({"pair": (v, w), "color": c,
                                   "tree_dist": td, "graph_dist": gd})

        best_color = None
        bound_rhs = None
        violation = False

        if kind == CLOSE:
            close_radial.checked += 1
            for c in apart:
                close_radial.add_violation({"pair": (v, w), "color": c})
            close_bound.checked += 1
            # the largest tree distance gives the largest right-hand side
            top = max(dists)
            if gd <= C * top + (C + 1):
                best_color = colors[dists.index(top)]
                bound_rhs = C * top + (C + 1)
            else:
                violation = True
                close_bound.add_violation({"pair": (v, w), "dist": gd,
                                           "per_color": dict(zip(colors,
                                                                 dists))})

        elif kind == DISTINCT:
            hi, lo = (v, w) if v.level >= w.level else (w, v)
            distinct_bound.checked += 1
            key = (images[hi], images[lo], l)
            fits = distinct_side.get(key)
            if fits is None:
                fits = distinct_side[key] = _distinct_fits(colors, trees,
                                                           *key)
            for c, rhs in fits:
                if gd <= rhs:
                    best_color, bound_rhs = c, rhs
                    break
            else:
                violation = True
                distinct_bound.add_violation({"pair": (v, w), "dist": gd,
                                              "critical": l})

        # (d) global lower bound, all pairs
        global_bound.checked += 1
        if gd > 2 * C * total + (2 * C + 1):
            violation = True
            global_bound.add_violation({"pair": (v, w), "dist": gd,
                                        "product_dist": total})

        rows.append(PairRow(v, w, gd, kind, l, total,
                            best_color, bound_rhs, violation))

    checks = [lip, close_radial, close_bound, distinct_bound, global_bound,
              check_segment_dip(emb), check_level_escape(emb)]
    return checks, rows


def _distinct_fits(colors: tuple[int, ...], trees: list[LevelledTree],
                   hi: tuple, lo: tuple, l: int
                   ) -> tuple[tuple[int, int], ...]:
    """(color, 2C d(a, meet) + 2C + 1) for each color whose images a (of
    the higher vertex) and b pass max(level a, level b) - l + 1 <=
    C (d(a, meet) + 1)."""
    fits = []
    C = len(colors)
    for c, t, a, b in zip(colors, trees, hi, lo):
        dist_aw = t.depths[a] - t.depths[t.meets[a, b]]
        if max(t.level[a], t.level[b]) - l + 1 <= C * (dist_aw + 1):
            fits.append((c, 2 * C * dist_aw + 2 * C + 1))
    return tuple(fits)


def check_segment_dip(emb: Stage1) -> CheckResult:
    """For horizontally distinct pairs, every same-color pair of elements
    containing the two centers meets strictly below the critical level, with
    at most three sub-critical vertices on each side of the meet.

    The tip test clears two vertices' chains in a color without a visit to
    their element pairs.  A chain passes it when it is the root path of
    its deepest element, its tip, with levels rising from k0 at the root;
    an element holding a point has its parent holding the point, so every
    chain of a color tree does.  Let x and y be the tips of the two
    chains, m = meet(x, y), and F(z) the index of the first vertex below
    the root on z's root path at level >= l (the path's length when there
    is none).  Then

    - every element pair (a, b) meets on m's root path: a lies on x's root
      path and b on y's, so the common ancestors of a and b are common
      ancestors of x and y.  Levels rise along that path, so the meet's
      effective level (k0 at the root) is at most m's;
    - from a meet at depth i, end a has at most F(x) - i <= F(x)
      sub-critical vertices: a's root path is a prefix of x's, and the
      sub-critical vertices of a rising path come first.

    So the two chains have no violation in the color when m's effective
    level is below l and F(x), F(y) <= 3; they count |chain_v| |chain_w|
    instances.  Both bounds are attained, by (m, m) and by (a, root) with
    a at depth F(x) - 1, so the test clears exactly the chains that have
    no violation.  The test runs once per pair of chain keys, in either
    order, for every color at once: it yields the critical levels (lo, hi]
    that it clears in each color and in all of them.

    Wherever it does not clear a color, or a chain fails it, the
    element-pair loop runs: the violations of an element pair are found
    once per (color, a, b, critical level), those of two vertices' chains
    once per (chain keys of v, chain keys of w, critical level), and each
    is replayed to every pair in pair order.  Instance counts and
    violations, in order, are those of visiting every element pair."""
    res = CheckResult("stage1-critical-segment-shape", PASS)
    chains = emb.chains
    k0 = emb.graph.scale.k0
    colors = emb.colors
    trees = [emb.trees[c] for c in colors]
    # per chain keys of a vertex: the (tip, cap) of each color's chain,
    # None where the chain fails the tip test
    tips: dict[tuple[int, ...], tuple] = {}
    # per (chain keys of v, chain keys of w), in either order: see _spans
    spans: dict[tuple, tuple] = {}
    dips: dict[tuple[int, str, str, int], tuple[dict, ...]] = {}
    outcomes: dict[tuple, list[dict]] = {}
    for v, w, _, kind, l in emb.graph.pairs:
        if kind != DISTINCT:
            continue
        (kv, cv), (kw, cw) = chains[v], chains[w]
        span = spans.get((kv, kw))
        if span is None:
            for key, ch in ((kv, cv), (kw, cw)):
                if key not in tips:
                    tips[key] = tuple(_tip(t, k0, chain)
                                      for t, chain in zip(trees, ch))
            span = spans[kv, kw] = spans[kw, kv] = _spans(
                trees, k0, tips[kv], tips[kw], cv, cw)
        instances, lo, hi, by_color = span
        res.checked += instances
        if lo < l <= hi:
            continue
        found = outcomes.get((kv, kw, l))
        if found is None:
            found = outcomes[(kv, kw, l)] = []
            for c, t, clear, chain_v, chain_w in zip(colors, trees, by_color,
                                                     cv, cw):
                if clear is not None and clear[0] < l <= clear[1]:
                    continue
                for a in chain_v:
                    for b in chain_w:
                        dip = dips.get((c, a, b, l))
                        if dip is None:
                            dip = dips[(c, a, b, l)] = _dip(t, k0, c, a, b,
                                                            l)
                        found += dip
        for info in found:
            res.add_violation({"pair": (v, w), **info})
    return res


def _tip(t: LevelledTree, k0: int, chain: tuple[str, ...]
         ) -> Optional[tuple[str, float]]:
    """(tip, cap) when the chain is the root path of its deepest element,
    the tip, with levels strictly rising from k0 at the root; None
    otherwise.  The cap is the level of the tip's depth-3 ancestor, or
    infinity when the tip is shallower: F(tip) <= 3 exactly when l <= cap."""
    if not chain:
        return None
    tip = max(chain, key=t.depths.__getitem__)
    path = t.paths[tip]
    if len(path) != len(chain) or not set(path).issuperset(chain):
        return None
    levels = (k0, *t.path_levels[tip][1:])
    if any(a >= b for a, b in zip(levels, levels[1:])):
        return None
    return tip, (levels[3] if len(levels) > 3 else math.inf)


def _spans(trees: list[LevelledTree], k0: int, tips_v: tuple, tips_w: tuple,
           cv: tuple, cw: tuple) -> tuple:
    """(instances, lo, hi, by color) for two vertices' chains of every
    color: the tip test clears a color at critical level l when
    lo_c < l <= hi_c, with lo_c the effective level of the two tips' meet
    and hi_c the lesser cap, and every color when lo < l <= hi.  A color
    whose chain fails the tip test has (lo_c, hi_c) None and makes lo
    infinite."""
    instances, lo, hi = 0, -math.inf, math.inf
    by_color = []
    for t, x, y, chain_v, chain_w in zip(trees, tips_v, tips_w, cv, cw):
        instances += len(chain_v) * len(chain_w)
        if x is None or y is None:
            by_color.append(None)
            lo = math.inf
            continue
        meet = t.meets[x[0], y[0]]
        low = k0 if meet == t.root else t.level[meet]
        high = x[1] if x[1] < y[1] else y[1]
        by_color.append((low, high))
        if low > lo:
            lo = low
        if high < hi:
            hi = high
    return instances, lo, hi, tuple(by_color)


def _dip(t: LevelledTree, k0: int, color: int, a: str, b: str, l: int
         ) -> tuple[dict, ...]:
    """The violations of one element pair.  The tree root is the whole
    space: its certificate diameter is bounded by r^k0, not by the level-0
    mesh, so it counts as level k0.  Below it levels strictly increase, so
    the sub-critical vertices from the meet to an end are one bisect on the
    end's level list."""
    meet = t.meets[a, b]
    i = t.depths[meet]
    if (k0 if i == 0 else t.level[meet]) >= l:
        return ({"color": color, "meet": meet, "critical": l},)
    # search from index 1: a meet at the root (i == 0) counts with level
    # k0 < l, not with its tree level
    return tuple({"color": color, "end": end, "below": below}
                 for end in (a, b)
                 for below in [bisect_left(t.path_levels[end], l, max(i, 1))
                               - i]
                 if below > 3)


def check_level_escape(emb: Stage1) -> CheckResult:
    """Some color keeps the image far from every shallow tree level: for a
    vertex at level j+1 and any i <= j, a color c has
    (distance from the image to level-i vertices) + 1 >= (j-i+1)/|C|."""
    res = CheckResult("stage1-level-escape", PASS)
    C = len(emb.colors)
    # (color, image, i) -> distance to the nearest level-i vertex, or None
    # when level i is empty
    nearest: dict[tuple[int, str, int], Optional[int]] = {}
    for v in emb.graph.vertices:
        j = v.level - 1
        if j < 0:
            continue
        for i in range(0, j + 1):
            res.checked += 1
            best = None
            for c, uid in zip(emb.colors, emb.images[v]):
                key = (c, uid, i)
                if key not in nearest:
                    tree = emb.trees[c]
                    nearest[key] = min(
                        (tree.generation_distance(uid, u)
                         for u in tree.level_vertices(i)),
                        default=None)
                m = nearest[key]
                if m is None:
                    best = None  # empty level: infinite distance, satisfied
                    break
                if best is None or m > best:
                    best = m
            if best is not None and j - i + 1 > C * (best + 1):
                res.add_violation({"vertex": v, "i": i, "best": best})
    return res


# ---------------------------------------------------------------------------
# Pair dump


def write_pairs_csv(rows: list[PairRow], path) -> None:
    """One comma-separated line per pair row after a header, with CRLF
    line ends and empty fields for None, as the ``csv`` module's default
    dialect writes them: no field holds a comma, quote or line break."""
    vertices = {row.v for row in rows}
    vertices.update(row.w for row in rows)
    labels = {v: f"{v.level}:{v.center}" for v in vertices}
    lines = ["v,v',graph_dist,class,critical_level,sum_tree_dist,best_color,"
             "bound_rhs,violation\r\n"]
    for v, w, gd, kind, crit, total, best, rhs, violation in rows:
        lines.append(
            f"{labels[v]},{labels[w]},{gd},{kind},"
            f"{'' if crit is None else crit},{total},"
            f"{'' if best is None else best},{'' if rhs is None else rhs},"
            f"{int(violation)}\r\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))
