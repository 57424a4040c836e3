"""Levelled trees: directed posets with strictly monotone level functions.

A color tree is a ``LevelledTree`` of the covering elements of one color,
each at its element's level; an edge joins an element to its
maximal-level proper ancestor by certificate inclusion.  Word trees over
an alphabet never get materialized: the vertex set is "all finite
sequences" and the generation distance only needs common prefixes.

A ``LevelledTree`` owns everything that depends only on the tree: the
vertices of each level, root paths, depths, the levels along each root
path and one meet memo.  They are built once with the tree and every
check that reads the tree shares them.
"""
from __future__ import annotations

from typing import Optional, Sequence

from qtrees.coverings import CoveringSequence
from qtrees.reporting import CheckResult, PASS


class _Meets(dict):
    """(u, v) -> youngest common ancestor, computed by the tree's ``lca``
    on the first lookup of either order."""

    def __init__(self, tree: LevelledTree):
        super().__init__()
        self.tree = tree

    def __missing__(self, key: tuple[str, str]) -> str:
        return self.tree.lca(*key)


class LevelledTree:
    """Rooted tree with integer levels strictly increasing away from the
    root along ancestor chains.  A color tree carries its color.

    What depends only on the tree is built with it: the children, the
    vertices of each level, the root path of every vertex with its depth
    and the levels along it, and one meet memo, ``meets[u, v]``, shared by
    every reader of the tree."""

    __slots__ = ("root", "parent", "level", "color", "children", "by_level",
                 "paths", "depths", "path_levels", "meets")

    def __init__(self, root: str, parent: dict[str, Optional[str]],
                 level: dict[str, int], color: int = 0):
        self.root = root
        self.parent = parent
        self.level = level
        self.color = color
        kids: dict[str, list[str]] = {u: [] for u in parent}
        for u, p in parent.items():
            if p is not None:
                kids[p].append(u)
        self.children = {u: tuple(sorted(v)) for u, v in kids.items()}
        by_level: dict[int, list[str]] = {}
        for u in sorted(level):
            by_level.setdefault(level[u], []).append(u)
        self.by_level = {j: tuple(v) for j, v in by_level.items()}
        self.paths = {root: (root,)}
        todo = [root]
        while todo:
            u = todo.pop()
            for k in self.children[u]:
                self.paths[k] = self.paths[u] + (k,)
                todo.append(k)
        self.depths = {u: len(p) - 1 for u, p in self.paths.items()}
        self.path_levels = {u: tuple(level[x] for x in p)
                            for u, p in self.paths.items()}
        self.meets = _Meets(self)

    def vertices(self) -> list[str]:
        return sorted(self.parent)

    def level_vertices(self, i: int) -> tuple[str, ...]:
        return self.by_level.get(i, ())

    def max_valence(self) -> int:
        return max(len(self.children[u]) + (0 if p is None else 1)
                   for u, p in self.parent.items())

    def lca(self, u: str, v: str) -> str:
        """Minimum-level vertex on the unique path: the youngest common
        ancestor (one of the ends when u, v are comparable).  It is kept in
        ``meets`` under both orders, where every later lookup finds it."""
        last = self.root
        for a, b in zip(self.paths[u], self.paths[v]):
            if a != b:
                break
            last = a
        self.meets[u, v] = self.meets[v, u] = last
        return last

    def generation_distance(self, u: str, v: str) -> int:
        """Path length through the youngest common ancestor."""
        d = self.depths
        return d[u] + d[v] - 2 * d[self.meets[u, v]]


def build_color_tree(seq: CoveringSequence, color: int) -> LevelledTree:
    """Parent of U = the certificate-inclusion ancestor of maximal level,
    tested on the sequence's kernel; the level of U is the level of its
    element.

    Separation makes the candidate set per level at most one element, and
    guarantees condition (+): elements sharing a descendant are nested.
    """
    level = {e.uid: e.level for e in seq.color_elements(color)}
    by_level: dict[int, list[str]] = {}
    for uid, j in level.items():
        by_level.setdefault(j, []).append(uid)
    if min(by_level) != 0 or len(by_level[0]) != 1:
        raise ValueError("color family must have a unique level-0 root")
    root = by_level[0][0]

    regions = seq.kernel.regions
    parent: dict[str, Optional[str]] = {root: None}
    for uid, j in level.items():
        if uid == root:
            continue
        parent[uid] = next((cand for i in range(j - 1, -1, -1)
                            for cand in by_level.get(i, ())
                            if regions[cand].contains_region(regions[uid])),
                           None)
        if parent[uid] is None:
            raise ValueError(
                f"covering element {uid} has no ancestor: separation violated")

    return LevelledTree(root=root, parent=parent, level=level, color=color)


def check_color_tree(seq: CoveringSequence, t: LevelledTree, k0: int
                     ) -> CheckResult:
    """Structural invariants: depth bounded by level - k0, and condition
    (+) via nested-or-disjoint regions.  The region tests run on the
    sequence's kernel.
    Incomparable vertices meet strictly below both levels without a test
    of their own: the meet is a proper ancestor of both ends, and
    ``build_color_tree`` takes each parent from a strictly lower level."""
    res = CheckResult(f"tree-structure-c{t.color}", PASS)
    for u in t.vertices():
        res.checked += 1
        if t.depths[u] > t.level[u] - k0:
            res.add_violation({"vertex": u, "depth": t.depths[u],
                               "level": t.level[u],
                               "reason": "depth exceeds level - k0"})
    regions = seq.kernel.regions
    uids = t.vertices()
    for i, u in enumerate(uids):
        for v in uids[i + 1:]:
            ru, rv = regions[u], regions[v]
            nested = ru.contains_region(rv) or rv.contains_region(ru)
            if ru.meets_region(rv) and not nested:
                res.add_violation({"pair": (u, v),
                                   "reason": "overlapping incomparable regions"})
    return res


# ---------------------------------------------------------------------------
# Word trees


def word_distance(u: Sequence, v: Sequence) -> int:
    """Generation distance in the tree of finite sequences: both lengths
    minus twice the common prefix."""
    common = 0
    for a, b in zip(u, v):
        if a != b:
            break
        common += 1
    return len(u) + len(v) - 2 * common


def binary_width(n: int) -> int:
    """Bits needed to write 1..n in binary: floor(log2 n) + 1."""
    if n < 1:
        raise ValueError("alphabet must be nonempty")
    return n.bit_length()


def binary_embed(word: Sequence[int], n: int) -> tuple[int, ...]:
    """Replace each letter 1..n by its zero-padded binary string; the image
    lives in the rooted binary tree and is radially a homothety by the
    bit width."""
    lam = binary_width(n)
    out: list[int] = []
    for letter in word:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside 1..{n}")
        out.extend((letter >> (lam - 1 - i)) & 1 for i in range(lam))
    return tuple(out)


# ---------------------------------------------------------------------------
# Export


def export_tree(t: LevelledTree, path) -> None:
    """`id parentId level colorOrLetter`, one vertex per line."""
    lines = []
    for uid in t.vertices():
        p = t.parent[uid] or "-"
        lines.append(f"{uid} {p} {t.level[uid]} {t.color}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
