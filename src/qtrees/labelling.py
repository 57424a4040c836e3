"""Net colorings, edge words, and the paged composite embedding.

Net points that are close at their scale receive distinct colors from a
finite palette; each tree edge then carries one letter per level it
spans, recording which palette colors appear on net balls touching the
lower endpoint, together with the Thue-Morse bit of the level.  Tree
vertices become sentences, sentences become page sequences, and the
composition graph -> trees -> page trees stays bilipschitz with
constants depending only on the color count.

Stage 2 is built once from the color trees, as two tables:
``Labelling.words`` holds one edge word per (color, non-root tree vertex),
``Stage2.diaries`` one diary per (color, tree vertex), its parent's pages
plus one encoder step.  Sentences and the letter of a level are read off
the root paths; the images' binary words are built with the diaries.
``build_stage2`` pages at any capacity of at least 1, so that the tests
can carry rests from page to page; the pipeline pages at ``min_kappa``,
the 15C + 1 that the proof bounds, or above, and refuses less.

The stage-2 checks test what these tables do not give by construction.
A diary is one page per tree edge, and page distance is at most tree
distance, so neither is a check: the tests of ``build_stage2`` hold them.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

from qtrees.approx import ApproxGraph, Vertex
from qtrees.coverings import _Near
from qtrees.diary import (
    STOP,
    Diary,
    encode_step,
    format_diary,
    is_stop,
    membership,
    reconstruct,
)
from qtrees.morse_thue import mt_bit
from qtrees.reporting import CheckResult, PASS
from qtrees.stage1 import DISTINCT, Stage1
from qtrees.trees import binary_embed, binary_width, word_distance


class NetColoring:
    """Greedy conflict coloring per level: same-level net points at distance
    below 2 r^(j-2) get different palette colors."""

    __slots__ = ("palette_size", "mu")

    def __init__(self, palette_size: int, mu: dict[int, dict[int, int]]):
        self.palette_size = palette_size
        self.mu = mu  # level -> point -> color


def color_nets(graph: ApproxGraph) -> NetColoring:
    """Color levels k0 .. max_level + 1 (edge letters look one level past
    the truncation)."""
    space, scale = graph.space, graph.scale
    mu: dict[int, dict[int, int]] = {}
    palette = 0
    for j in range(scale.k0, scale.max_level + 2):
        bound = math.ceil(2 * scale.sep(j - 2) * space.unit)  # d < 2 r^(j-2)
        assignment: dict[int, int] = {}
        for p in graph.net(j):
            row = space.rows[p]
            used = {c for q, c in assignment.items() if row[q] < bound}
            c = 0
            while c in used:
                c += 1
            assignment[p] = c
            palette = max(palette, c + 1)
        mu[j] = assignment
    return NetColoring(palette_size=palette, mu=mu)


def check_net_coloring(graph: ApproxGraph, coloring: NetColoring) -> CheckResult:
    res = CheckResult("labelling-net-coloring", PASS)
    space, scale = graph.space, graph.scale
    for j, assignment in coloring.mu.items():
        bound = math.ceil(2 * scale.sep(j - 2) * space.unit)  # d < 2 r^(j-2)
        pts = sorted(assignment)
        # conflict degrees, counted in the same pass over the pairs
        degree = dict.fromkeys(pts, 0)
        for i, p in enumerate(pts):
            row = space.rows[p]
            for q in pts[i + 1:]:
                res.checked += 1
                if row[q] < bound:
                    degree[p] += 1
                    degree[q] += 1
                    if assignment[p] == assignment[q]:
                        res.add_violation({"level": j, "pair": (p, q)})
        # greedy never exceeds max conflict degree + 1
        if len(set(assignment.values())) > max(degree.values(), default=0) + 1:
            res.add_violation({"level": j, "reason": "palette above degree+1"})
    return res


# ---------------------------------------------------------------------------
# Edge words and sentences


class Labelling:
    __slots__ = ("stage1", "coloring", "words")

    def __init__(self, stage1: Stage1, coloring: NetColoring,
                 words: dict[tuple[int, str], tuple]):
        self.stage1 = stage1
        self.coloring = coloring
        self.words = words  # (color, non-root uid) -> edge word

    def sentence_of(self, color: int, uid: str) -> tuple:
        """Decorated sentence spelled along the root path: one word per tree
        edge, each word closed by a stop sign carrying the bit of its last
        letter's level."""
        tree = self.stage1.trees[color]
        path, levels = tree.paths[uid], tree.path_levels[uid]
        tokens: list = []
        for child, level in zip(path[1:], levels[1:]):
            tokens.extend(self.words[color, child])
            tokens.append((STOP, mt_bit(level)))
        return tuple(tokens)

    def letter_at_level(self, color: int, uid: str, level: int):
        """(letter, word index) for the sentence letter of the given level,
        one of 1..element level: a letter of the edge into the first
        root-path vertex reaching the level, whose depth is the index."""
        tree = self.stage1.trees[color]
        levels = tree.path_levels[uid]  # from the root's level 0
        if not 1 <= level <= levels[-1]:
            raise ValueError(f"no letter of level {level} in {uid}")
        depth = bisect_left(levels, level)
        word = self.words[color, tree.paths[uid][depth]]
        return word[level - levels[depth - 1] - 1], depth


class _NetBalls(dict):
    """level j -> (the level-j net points, their balls B(p, 2 r^j) on the
    covering's kernel, a `_Near` index of the balls' extents), built on
    the first lookup of the level."""

    def __init__(self, stage1: Stage1):
        super().__init__()
        self.stage1 = stage1

    def __missing__(self, j: int) -> tuple:
        kernel = self.stage1.seq.kernel
        points = self.stage1.graph.net(j)
        balls = [kernel.ball(j, p) for p in points]
        out = self[j] = points, balls, _Near([b.extent() for b in balls])
        return out


def _letter(stage1: Stage1, coloring: NetColoring, uid: str, k: int,
            nets: _NetBalls):
    """Palette colors of level-(k+1) net points whose balls touch the
    element, decorated with the level bit.  A ball whose extent is apart
    from the element's does not touch it and is not tested; a point-set
    ball, or an element, without an extent is near every ball."""
    points, balls, index = nets[k + 1]
    region = stage1.seq.kernel.regions[uid]
    mu = coloring.mu[k + 1]
    hit = frozenset(mu[points[i]] for i in index.near(region.extent())
                    if region.meets_region(balls[i]))
    if not hit:
        raise AssertionError(f"empty letter at level {k} for {uid}")
    return (hit, mt_bit(k))


def build_labelling(stage1: Stage1) -> Labelling:
    """Color the nets and spell every tree edge's word, each letter once,
    with one index of net ball extents per level."""
    coloring = color_nets(stage1.graph)
    nets = _NetBalls(stage1)
    words = {}
    for c in stage1.colors:
        tree = stage1.trees[c]
        for uid, parent in tree.parent.items():
            if parent is not None:
                words[c, uid] = tuple(
                    _letter(stage1, coloring, uid, k, nets)
                    for k in range(tree.level[parent] + 1, tree.level[uid] + 1))
    return Labelling(stage1=stage1, coloring=coloring, words=words)


def check_sentences(lab: Labelling) -> CheckResult:
    """Structural facts: word count equals the generation distance, letter
    count equals the element level, letters carry the bits of their levels,
    and no word is empty."""
    res = CheckResult("labelling-sentences", PASS)
    for c in lab.stage1.colors:
        tree = lab.stage1.trees[c]
        for uid in tree.vertices():
            res.checked += 1
            sent = lab.sentence_of(c, uid)
            words = sum(1 for t in sent if is_stop(t))
            letters = [t for t in sent if not is_stop(t)]
            if words != tree.depths[uid]:
                res.add_violation({"uid": uid, "reason": "word count"})
            if len(letters) != tree.level[uid]:
                res.add_violation({"uid": uid, "reason": "letter count"})
            if any(bit != mt_bit(lv) for lv, (_, bit)
                   in enumerate(letters, start=1)):
                res.add_violation({"uid": uid, "reason": "decoration bits"})
            if words and any(
                    is_stop(a) and is_stop(b) for a, b in zip(sent, sent[1:])):
                res.add_violation({"uid": uid, "reason": "empty word"})
            if words > len(letters):
                res.add_violation({"uid": uid, "reason": "more words than letters"})
    return res


# ---------------------------------------------------------------------------
# Stage 2: page sequences per color


class Stage2:
    __slots__ = ("labelling", "kappa", "diaries", "page_index", "binary")

    def __init__(self, labelling: Labelling, kappa: int,
                 diaries: dict[tuple[int, str], Diary],
                 page_index: dict[tuple, int],
                 binary: dict[Diary, tuple[int, ...]]):
        self.labelling = labelling
        self.kappa = kappa
        self.diaries = diaries  # (color, tree uid) -> pages
        # the page alphabet of the binary re-encoding: every page of an
        # image's diary in any color, numbered from 1 in ``repr`` order
        self.page_index = page_index
        self.binary = binary  # image diary -> its binary word

    @property
    def stage1(self) -> Stage1:
        return self.labelling.stage1

    @property
    def colors(self) -> tuple[int, ...]:
        return self.stage1.colors

    def diary_of(self, color: int, v: Vertex) -> Diary:
        return self.diaries[color, self.stage1.image(color, v)]


def min_kappa(n_colors: int) -> int:
    """The page capacity the embedding's proof bounds: 15C + 1."""
    return 15 * n_colors + 1


def build_stage2(lab: Labelling, kappa: int) -> Stage2:
    """Page every tree vertex's sentence: its parent's pages and rest, then
    one encoder step on the rest and the vertex's edge word, at any page
    capacity of at least 1."""
    stage1 = lab.stage1
    if kappa < 1:
        raise ValueError("page capacity must be at least 1")
    diaries = {}
    for c in stage1.colors:
        tree = stage1.trees[c]
        diaries[c, tree.root], rests = (), {tree.root: ()}
        for uid in sorted(tree.parent, key=tree.depths.get)[1:]:
            parent = tree.parent[uid]
            page, rests[uid] = encode_step(
                rests[parent], lab.words[c, uid],
                ((STOP, mt_bit(tree.level[uid])),), kappa)
            diaries[c, uid] = diaries[c, parent] + (page,)
    images = {diaries[c, uid] for uids in stage1.images.values()
              for c, uid in zip(stage1.colors, uids)}
    pages = sorted({p for d in images for p in d}, key=repr)
    index = {p: i for i, p in enumerate(pages, start=1)}
    width = max(len(index), 1)  # no pages: every image diary is empty
    binary = {d: binary_embed(tuple(index[p] for p in d), width)
              for d in images}
    return Stage2(labelling=lab, kappa=kappa, diaries=diaries,
                  page_index=index, binary=binary)


# ---------------------------------------------------------------------------
# Verification


def sigma_lower(C: int) -> int:
    """Additive constant of the lower bound, absorbing the small-distance
    regime: max(3C+1, 15C^2+4C+1)."""
    return max(2 * C + 1 + C, 15 * C * C + 2 * C + 2 * C + 1)


def stage2_suite(st2: Stage2) -> tuple[list[CheckResult], dict]:
    """The lower-bound, reconstruction and critical-letter checks, and the
    fit: the largest ratio of summed page distance to graph distance, and
    the largest excess of graph distance over 2C times that sum.

    Page distance is not bounded from above here.  ``build_stage2`` makes
    each diary its parent's pages plus one page, so two images' diaries
    share their meet's pages, and each color's page distance is at most
    its tree distance, which ``stage1-tree-lipschitz`` bounds by twice the
    graph distance."""
    emb = st2.stage1
    graph = emb.graph
    C = len(st2.colors)
    lower = CheckResult("stage2-lower-bound", PASS)
    recon = CheckResult("stage2-reconstruction-membership", PASS)

    # diary soundness transported to labelled sentences
    seen: set = set()
    for c in st2.colors:
        for v in graph.vertices:
            uid = emb.image(c, v)
            if (c, uid) in seen:
                continue
            seen.add((c, uid))
            sent = st2.labelling.sentence_of(c, uid)
            if not sent:  # the tree root: nothing to reconstruct
                continue
            recon.checked += 1
            slotted = reconstruct(st2.diary_of(c, v), st2.kappa)
            if not membership(slotted, sent):
                recon.add_violation({"uid": uid, "color": c})

    sig = sigma_lower(C)
    worst_upper = (0, 1)  # the largest total / gd, as (total, gd)
    worst_lower = 0
    images = emb.images
    totals: dict[tuple, int] = {}  # summed page distance per image pair
    for v, w, gd, _, _ in graph.pairs:
        key = (images[v], images[w])
        total = totals.get(key)
        if total is None:
            total = totals[key] = sum(
                word_distance(st2.diary_of(c, v), st2.diary_of(c, w))
                for c in st2.colors)
        if gd and total * worst_upper[1] > worst_upper[0] * gd:
            worst_upper = (total, gd)
        lower.checked += 1
        if gd > 2 * C * total + sig:
            lower.add_violation({"pair": (v, w), "dist": gd, "total": total})
        worst_lower = max(worst_lower, gd - 2 * C * total)

    crit = check_critical_letters(st2)
    checks = [lower, recon, crit]
    fits = {
        "upperWorst": Fraction(*worst_upper),
        "lowerWorst": worst_lower,
        "sigmaBound": sig,
    }
    return checks, fits


def check_critical_letters(st2: Stage2) -> CheckResult:
    """For horizontally distinct vertices sitting (as points) in same-color
    elements deep enough past their critical level, the critical-level
    letters differ and their word positions are within 2.

    The outcome is computed once per (color, two containing chains,
    critical level) and replayed to each pair in pair order."""
    res = CheckResult("stage2-critical-letters", PASS)
    emb = st2.stage1
    chains = emb.chains
    outcomes: dict[tuple[int, int, int], tuple[int, tuple]] = {}
    for v, w, _, kind, l in emb.graph.pairs:
        if kind != DISTINCT or l < 1:
            continue  # sentences carry no level-0 letter
        (kv, cv), (kw, cw) = chains[v], chains[w]
        for c, a, b, chain_v, chain_w in zip(st2.colors, kv, kw, cv, cw):
            out = outcomes.get((a, b, l))
            if out is None:
                out = outcomes[(a, b, l)] = _critical_letters(
                    st2.labelling, c, chain_v, chain_w, l)
            res.checked += out[0]
            for info in out[1]:
                res.add_violation({"pair": (v, w), **info})
    if res.checked == 0 and res.status == PASS:
        res.notes = "no qualifying pairs"
    return res


def _critical_letters(lab: Labelling, color: int, chain_v: tuple,
                      chain_w: tuple, l: int) -> tuple[int, tuple]:
    """(instances, violations less the pair) of one color's chains."""
    level = lab.stage1.trees[color].level
    deep_v = [u for u in chain_v if level[u] >= l + 1]
    deep_w = [u for u in chain_w if level[u] >= l + 1]
    checked = 0
    found = []
    for ua in deep_v:
        for ub in deep_w:
            if ua == ub:
                found.append({"element": ua,
                              "reason": "shared element despite critical gap"})
                continue
            checked += 1
            a, m = lab.letter_at_level(color, ua, l)
            b, mp = lab.letter_at_level(color, ub, l)
            if a == b:
                found.append({"color": color, "elements": (ua, ub),
                              "level": l, "reason": "equal letters"})
            if abs(m - mp) > 2:
                found.append({"color": color, "words": (m, mp)})
    return checked, tuple(found)


def check_binary_stage(st2: Stage2) -> CheckResult:
    """Verify the homothety sandwich lam*(D-2)+2 <= D_bin <= lam*D of the
    binary re-encoding on every occurring pair per color."""
    res = CheckResult("stage2-binary-sandwich", PASS)
    graph = st2.stage1.graph
    n = len(st2.page_index)
    if not n:
        return res
    lam = binary_width(n)
    res.notes = f"{n} distinct pages, width {lam}"
    for c in st2.colors:
        images = sorted({st2.diary_of(c, v) for v in graph.vertices}, key=repr)
        for da, db in itertools.combinations(images, 2):
            D = word_distance(da, db)
            Db = word_distance(st2.binary[da], st2.binary[db])
            res.checked += 1
            if not (lam * (D - 2) + 2 <= Db <= lam * D):
                res.add_violation({"color": c, "D": D, "Dbin": Db, "lam": lam})
    return res


# ---------------------------------------------------------------------------
# Embedding dump


def embedding_dump(st2: Stage2) -> dict:
    graph = st2.stage1.graph
    out = {"kappa": st2.kappa, "pageAlphabet": len(st2.page_index),
           "vertices": {}}
    for v in graph.vertices:
        key = f"{v.level}:{v.center}"
        entry = {}
        for c in st2.colors:
            diary = st2.diary_of(c, v)
            entry[str(c)] = {
                "pages": format_diary(diary),
                "binary": "".join(map(str, st2.binary[diary])),
            }
        out["vertices"][key] = entry
    return out
