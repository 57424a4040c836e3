"""Net colorings, edge words, and the paged composite embedding.

Net points that are close at their scale receive distinct colors from a
finite palette; each tree edge then carries one letter per level it
spans, recording which palette colors appear on net balls touching the
lower endpoint, together with the Thue-Morse bit of the level.  Tree
vertices become sentences, sentences become page sequences, and the
composition graph -> trees -> page trees stays bilipschitz with
constants depending only on the color count.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

from qtrees.approx import ApproxGraph, Vertex
from qtrees.diary import (
    STOP,
    Diary,
    encode,
    is_stop,
    membership,
    reconstruct,
)
from qtrees.morse_thue import mt_bit
from qtrees.reporting import CheckResult, PASS
from qtrees.stage1 import DISTINCT, Stage1, classify_pair
from qtrees.trees import binary_embed, binary_width, word_distance


@dataclass
class NetColoring:
    """Greedy conflict coloring per level: same-level net points at distance
    below 2 r^(j-2) get different palette colors."""

    palette_size: int
    mu: dict[int, dict[int, int]]  # level -> point -> color

    def color(self, level: int, point: int) -> int:
        return self.mu[level][point]


def color_nets(graph: ApproxGraph) -> NetColoring:
    """Color levels k0 .. max_level + 1 (edge letters look one level past
    the truncation)."""
    space, scale = graph.space, graph.scale
    mu: dict[int, dict[int, int]] = {}
    palette = 0
    for j in range(scale.k0, scale.max_level + 2):
        bound = 2 * scale.sep(j - 2)
        assignment: dict[int, int] = {}
        for p in graph.net(j):
            used = {
                assignment[q] for q in assignment
                if space.d(p, q) < bound
            }
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
        bound = 2 * scale.sep(j - 2)
        pts = sorted(assignment)
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                res.checked += 1
                if space.d(p, q) < bound and assignment[p] == assignment[q]:
                    res.add_violation({"level": j, "pair": (p, q)})
        # greedy never exceeds max conflict degree + 1
        degree = max(
            (sum(1 for q in pts if q != p and space.d(p, q) < bound)
             for p in pts), default=0)
        if len(set(assignment.values())) > degree + 1:
            res.add_violation({"level": j, "reason": "palette above degree+1"})
    return res


# ---------------------------------------------------------------------------
# Edge words and sentences


@dataclass
class Labelling:
    stage1: Stage1
    coloring: NetColoring
    # per color: tree vertex uid -> sentence tokens / letter index
    _sentences: dict[tuple[int, str], tuple] = field(default_factory=dict)

    @property
    def graph(self) -> ApproxGraph:
        return self.stage1.graph

    def edge_word(self, color: int, child_uid: str) -> tuple:
        """Letters for the tree edge from child to its parent, one per level
        in (parent level, child level]."""
        tree = self.stage1.trees[color]
        child = tree.elements[child_uid]
        parent_uid = tree.tree.parent[child_uid]
        if parent_uid is None:
            raise ValueError("the root has no incoming edge")
        parent = tree.elements[parent_uid]
        return tuple(
            self._letter(child, k)
            for k in range(parent.level + 1, child.level + 1)
        )

    def _letter(self, element, k: int):
        """Palette colors of level-(k+1) net points whose balls touch the
        element, decorated with the level bit."""
        kernel = self.stage1.kernel
        radius = kernel.radius(k + 1)
        region = kernel.regions[element.uid]
        hit = frozenset(
            self.coloring.color(k + 1, p)
            for p in self.graph.net(k + 1)
            if region.meets_ball(kernel.coords[p], radius)
        )
        if not hit:
            raise AssertionError(
                f"empty letter at level {k} for {element.uid}")
        return (hit, mt_bit(k))

    def sentence_of(self, color: int, uid: str) -> tuple:
        """Decorated sentence spelled along the root path: one word per tree
        edge, each word closed by a stop sign carrying the bit of its last
        letter's level."""
        cached = self._sentences.get((color, uid))
        if cached is not None:
            return cached
        tree = self.stage1.trees[color]
        path = tree.tree.root_path(uid)
        tokens: list = []
        for child_uid in path[1:]:
            word = self.edge_word(color, child_uid)
            tokens.extend(word)
            tokens.append((STOP, mt_bit(tree.elements[child_uid].level)))
        out = tuple(tokens)
        self._sentences[(color, uid)] = out
        return out

    def letter_at_level(self, color: int, uid: str, level: int):
        """(letter, word index) for the sentence letter of the given level;
        letters sit at levels 1..element level, one each."""
        sent = self.sentence_of(color, uid)
        word_idx = 1
        lv = 0
        for tok in sent:
            if is_stop(tok):
                word_idx += 1
            else:
                lv += 1
                if lv == level:
                    return tok, word_idx
        raise ValueError(f"no letter of level {level} in {uid}")


def build_labelling(stage1: Stage1) -> Labelling:
    return Labelling(stage1=stage1, coloring=color_nets(stage1.graph))


def check_sentences(lab: Labelling) -> CheckResult:
    """Structural facts: word count equals the generation distance, letter
    count equals the element level, letters carry the bits of their levels,
    and no word is empty."""
    res = CheckResult("labelling-sentences", PASS)
    for c in lab.stage1.colors:
        tree = lab.stage1.trees[c]
        for uid in tree.tree.vertices():
            res.checked += 1
            sent = lab.sentence_of(c, uid)
            words = sum(1 for t in sent if is_stop(t))
            letters = [t for t in sent if not is_stop(t)]
            if words != tree.tree.depth(uid):
                res.add_violation({"uid": uid, "reason": "word count"})
            if len(letters) != tree.elements[uid].level:
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


@dataclass
class Stage2:
    labelling: Labelling
    kappa: int
    pages: dict[tuple[int, str], Diary] = field(default_factory=dict)

    @property
    def stage1(self) -> Stage1:
        return self.labelling.stage1

    @property
    def colors(self) -> tuple[int, ...]:
        return self.stage1.colors

    def diary_of(self, color: int, v: Vertex) -> Diary:
        uid = self.stage1.image(color, v)
        key = (color, uid)
        cached = self.pages.get(key)
        if cached is None:
            cached = encode(self.labelling.sentence_of(color, uid), self.kappa)
            self.pages[key] = cached
        return cached

    @cached_property
    def page_index(self) -> dict[tuple, int]:
        """The page alphabet of the binary re-encoding: every page of every
        vertex's diary in any color, numbered from 1 in ``repr`` order."""
        pages = sorted(
            {p for c in self.colors for v in self.stage1.graph.vertices
             for p in self.diary_of(c, v)},
            key=repr,
        )
        return {p: i + 1 for i, p in enumerate(pages)}

    def page_distance(self, color: int, v: Vertex, w: Vertex) -> int:
        return word_distance(self.diary_of(color, v), self.diary_of(color, w))

    def product_distance(self, v: Vertex, w: Vertex) -> int:
        return sum(self.page_distance(c, v, w) for c in self.colors)


def min_kappa(n_colors: int) -> int:
    return 15 * n_colors + 1


def build_stage2(lab: Labelling, kappa: Optional[int] = None,
                 research_kappa: bool = False) -> Stage2:
    C = len(lab.stage1.colors)
    if kappa is None:
        kappa = min_kappa(C)
    if kappa < min_kappa(C) and not research_kappa:
        raise ValueError(
            f"page capacity {kappa} below the safe bound {min_kappa(C)}; "
            "pass research_kappa to experiment below it")
    return Stage2(labelling=lab, kappa=kappa)


# ---------------------------------------------------------------------------
# Verification


def sigma_lower(C: int) -> int:
    """Additive constant of the lower bound, absorbing the small-distance
    regime: max(3C+1, 15C^2+4C+1)."""
    return max(2 * C + 1 + C, 15 * C * C + 2 * C + 2 * C + 1)


def stage2_suite(st2: Stage2) -> tuple[list[CheckResult], dict]:
    emb = st2.stage1
    graph = emb.graph
    C = len(st2.colors)
    radial_iso = CheckResult("stage2-radially-isometric", PASS)
    upper = CheckResult("stage2-upper-bound", PASS)
    lower = CheckResult("stage2-lower-bound", PASS)
    recon = CheckResult("stage2-reconstruction-membership", PASS)

    for v in graph.vertices:
        radial_iso.checked += 1
        for c in st2.colors:
            uid = emb.image(c, v)
            depth = emb.trees[c].tree.depth(uid)
            if len(st2.diary_of(c, v)) != depth:
                radial_iso.add_violation({"vertex": v, "color": c})

    # diary soundness transported to labelled sentences
    seen: set = set()
    for c in st2.colors:
        for v in graph.vertices:
            uid = emb.image(c, v)
            if (c, uid) in seen:
                continue
            seen.add((c, uid))
            recon.checked += 1
            sent = st2.labelling.sentence_of(c, uid)
            if not sent:
                continue
            slotted = reconstruct(st2.diary_of(c, v), st2.kappa)
            if not membership(slotted, sent):
                recon.add_violation({"uid": uid, "color": c})

    sig = sigma_lower(C)
    worst_upper = Fraction(0)
    worst_lower = 0
    for v, w in itertools.combinations(graph.vertices, 2):
        gd = graph.distance(v, w)
        per_color = {c: st2.page_distance(c, v, w) for c in st2.colors}
        total = sum(per_color.values())
        upper.checked += 1
        for c, pd in per_color.items():
            if pd > 2 * gd:
                upper.add_violation({"pair": (v, w), "color": c, "page": pd})
        if total > 2 * C * gd:
            upper.add_violation({"pair": (v, w), "total": total, "dist": gd})
        if gd:
            worst_upper = max(worst_upper, Fraction(total, gd))
        lower.checked += 1
        if gd > 2 * C * total + sig:
            lower.add_violation({"pair": (v, w), "dist": gd, "total": total})
        worst_lower = max(worst_lower, gd - 2 * C * total)

    crit = check_critical_letters(st2)
    checks = [radial_iso, upper, lower, recon, crit]
    fits = {
        "pairs": upper.checked,
        "upperWorst": worst_upper,
        "lowerWorst": worst_lower,
        "sigmaBound": sig,
        "violations": [v for c in (upper, lower) for v in c.violations],
    }
    return checks, fits


def critical_letters(lab: Labelling, color: int, ua: str, ub: str, l: int
                     ) -> tuple:
    """The critical-level letters of two same-color tree vertices and their
    word positions: (a, m, a', m').

    Precondition: both elements sit at level >= l+1 and l >= 1, so both
    sentences carry a letter of level l; otherwise the hypothesis is unmet
    and a ValueError is raised.
    """
    tree = lab.stage1.trees[color]
    if l < 1:
        raise ValueError("sentences carry no letter below level 1")
    for uid in (ua, ub):
        if tree.elements[uid].level < l + 1:
            raise ValueError(f"{uid} is too shallow for critical level {l}")
    a, m = lab.letter_at_level(color, ua, l)
    b, mp = lab.letter_at_level(color, ub, l)
    return a, m, b, mp


def check_critical_letters(st2: Stage2) -> CheckResult:
    """For horizontally distinct vertices sitting (as points) in same-color
    elements deep enough past their critical level, the critical-level
    letters differ and their word positions are within 2."""
    res = CheckResult("stage2-critical-letters", PASS)
    emb = st2.stage1
    graph = emb.graph
    lab = st2.labelling
    for v, w in itertools.combinations(graph.vertices, 2):
        pc = classify_pair(graph, v, w)
        if pc.kind != DISTINCT:
            continue
        l = pc.critical_level
        if l < 1:
            continue  # sentences carry no level-0 letter
        for c in st2.colors:
            tree = emb.trees[c]
            for ua in emb.containing_chain(c, v):
                if tree.elements[ua].level < l + 1:
                    continue
                for ub in emb.containing_chain(c, w):
                    if tree.elements[ub].level < l + 1:
                        continue
                    if ua == ub:
                        res.add_violation({"pair": (v, w), "element": ua,
                                           "reason": "shared element despite critical gap"})
                        continue
                    res.checked += 1
                    a, m, b, mp = critical_letters(lab, c, ua, ub, l)
                    if a == b:
                        res.add_violation({"pair": (v, w), "color": c,
                                           "elements": (ua, ub), "level": l,
                                           "reason": "equal letters"})
                    if abs(m - mp) > 2:
                        res.add_violation({"pair": (v, w), "color": c,
                                           "words": (m, mp)})
    if res.checked == 0 and res.status == PASS:
        res.notes = "no qualifying pairs"
    return res


def check_binary_stage(st2: Stage2) -> CheckResult:
    """Re-encode occurring pages in binary and verify the homothety sandwich
    lam*(D-2)+2 <= D_bin <= lam*D on every occurring pair per color."""
    res = CheckResult("stage2-binary-sandwich", PASS)
    graph = st2.stage1.graph
    index = st2.page_index
    if not index:
        return res
    n = len(index)
    lam = binary_width(n)
    res.notes = f"{n} distinct pages, width {lam}"
    for c in st2.colors:
        images = sorted({st2.diary_of(c, v) for v in graph.vertices}, key=repr)
        coded = {d: binary_embed(tuple(index[p] for p in d), n) for d in images}
        for da, db in itertools.combinations(images, 2):
            D = word_distance(da, db)
            Db = word_distance(coded[da], coded[db])
            res.checked += 1
            if not (lam * (D - 2) + 2 <= Db <= lam * D):
                res.add_violation({"color": c, "D": D, "Dbin": Db, "lam": lam})
    return res


# ---------------------------------------------------------------------------
# Embedding dump


def embedding_dump(st2: Stage2) -> dict:
    from qtrees.diary import format_diary

    graph = st2.stage1.graph
    index = st2.page_index
    n = max(len(index), 1)
    out = {"kappa": st2.kappa, "pageAlphabet": len(index), "vertices": {}}
    for v in graph.vertices:
        key = f"{v.level}:{v.center}"
        entry = {}
        for c in st2.colors:
            diary = st2.diary_of(c, v)
            entry[str(c)] = {
                "pages": format_diary(diary),
                "binary": "".join(
                    str(b)
                    for b in binary_embed(tuple(index[p] for p in diary), n)
                ),
            }
        out["vertices"][key] = entry
    return out
