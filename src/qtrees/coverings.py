"""Colored covering hierarchies and their validator.

A covering sequence assigns to each level j >= 0 a family of certified
subsets per color.  The validator is the module's contract; generators
are heuristics whose output must pass it:

  (1) level 0 is the whole space, once per color; mesh at level j >= 1
      is strictly below r^j;
  (2) the open ball of radius 2 r^(j+1) around every level-(j+1) net
      point fits inside some level-j element;
  (3) separation: for same-color elements U (level j) and U' (level
      j' <= j), the union B(U) of level-(j+1) net balls touching U is
      either inside U' or disjoint from it.

Property (3) with j' = j forces same-color same-level elements to be
pairwise disjoint.

The validator runs the region tests of every property but the mesh on the
sequence's own `CoveringKernel`, ``seq.kernel``: its certificates, its
points and its net balls as ints in one unit, a multiple of the space's.
A net ball is a certificate of the kernel (`CoveringKernel.ball`): the
interval, arc or box around the point, or on a space without coordinates
the set of sample points inside it, so each ball test of properties (2)
and (3) is a region test.  A sequence builds its kernel when it is built
and cannot change after, so the kernel always scales the certificates it
serves.  Generation drops on the candidates' kernel every candidate that
holds no sample point, and the sequence it returns keeps that kernel: a
run builds one, and every later stage reads it from the sequence.  What
is reported stays as it was: the mesh, its bound and the Lebesgue numbers
are Fractions, and violations name elements and points by id.

The validator's pair loops skip the pairs that cannot fail.  Each region,
and so each ball, has an extent (`Region.extent`): one half-open int
range per axis that holds it, or None for the whole space, a point subset
and an arc that wraps, as a ball reaching past 0 or the circumference
does.  Two sets whose extents are apart on some axis do not meet, so the
skips are exact:

- disjointness tests no same-color pair whose extents are apart;
- property (3) gathers U's balls among those whose extent is not apart
  from U's, and tests no U' whose extent is apart from the union of
  those balls' extents (None when one is None): every ball is then
  outside U', so the pair cannot break separation.  It still counts in
  ``checked``.

An extent that lies in [0, circ] is the same set on the line as on the
circle.  `_Near` sorts the extents by their start on the first axis, so
the pairs left are found by bisection without a visit to the others, and
are tested in the order of the plain loops: the checked counts and the
violations, in order, are those of testing every pair.
"""
from __future__ import annotations

import collections
import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

from qtrees.geometry import Arc, BoxRegion, Frozen, LineInterval, \
    PointSubset, Region, WholeSpace, open_ball, region_from_json, \
    scale_number
from qtrees.metric import FiniteMetricSpace, ScaleParams
from qtrees.reporting import CheckResult, FAIL, PASS, frac_str


class CoveringElement(NamedTuple):
    uid: str
    color: int
    level: int
    region: Region


class CoveringSequence(Frozen):
    """``levels[j][color]``, a read-only map to the tuple of that color's
    level-j elements, with the sequence's kernel and, once validated by
    `generate_covering_sequence`, its ``contract``.  Building a sequence
    builds its kernel, and raises ValueError where that cannot scale it.
    ``_kernel`` is for `generate_covering_sequence` alone: the kernel of
    candidates that hold every element of ``levels``."""

    __slots__ = ("space", "r", "colors", "levels", "contract", "kernel")

    def __init__(self, space: FiniteMetricSpace, r: Fraction,
                 colors: tuple[int, ...],
                 levels: dict[int, dict[int, tuple[CoveringElement, ...]]],
                 contract: Optional[CheckResult] = None,
                 _kernel: Optional[CoveringKernel] = None):
        put = object.__setattr__
        put(self, "space", space)
        put(self, "r", r)
        put(self, "colors", colors)
        put(self, "levels", MappingProxyType(
            {j: MappingProxyType(dict(family))
             for j, family in levels.items()}))
        put(self, "contract", contract)
        put(self, "kernel", _kernel or CoveringKernel(self))

    @property
    def max_level(self) -> int:
        return max(self.levels)

    @property
    def elements(self) -> list[CoveringElement]:
        return [e for j in sorted(self.levels) for e in self.family(j)]

    def family(self, j: int) -> list[CoveringElement]:
        return [e for fam in self.levels[j].values() for e in fam]

    def color_elements(self, color: int) -> list[CoveringElement]:
        out = []
        for j in sorted(self.levels):
            out.extend(self.levels[j].get(color, ()))
        return out


class CoveringError(ValueError):
    """Raised when a generated sequence fails its own validation."""


class CoveringKernel(Frozen):
    """A covering sequence's certificates, its space's points and its net
    balls, as ints in one unit; built by the sequence alone.

    The unit is the lcm of the space's unit, of the denominator of
    r^(max_level + 1) and of every certificate number, so each scaled
    region test gives the same answer as on the Fractions.  ``coords`` is
    the space's lattice in that unit: point ids for a space without
    coordinates, which takes point-subset certificates (and the whole
    space) only.  ``regions`` maps each element uid to its scaled
    certificate.  `ball` gives the open ball B(p, 2 r^k) as a certificate
    of the same unit, for the region tests of the validator, the stage-1
    map and the edge letters; a circle's circumference is read off the
    sequence's arcs.
    """

    __slots__ = ("unit", "coords", "regions", "_space", "_circ", "_radii",
                 "_balls")

    def __init__(self, seq: CoveringSequence):
        space, top = seq.space, seq.max_level + 1
        certificates: dict[str, Region] = {}
        for e in seq.elements:
            if certificates.setdefault(e.uid, e.region) != e.region:
                raise ValueError(
                    f"element id {e.uid!r} names two certificates")
        if not space.coords and not all(
                isinstance(region, (PointSubset, WholeSpace))
                for region in certificates.values()):
            raise ValueError("a space without coordinates takes "
                             "point-subset certificates only")
        unit = math.lcm(space.unit, (seq.r ** top).denominator,
                        *(region.denominator()
                          for region in certificates.values()))
        put = object.__setattr__
        put(self, "unit", unit)
        put(self, "coords", space.lattice(unit))
        put(self, "regions", MappingProxyType(
            {uid: region.scaled(unit)
             for uid, region in certificates.items()}))
        put(self, "_space", space)
        put(self, "_circ", next((region.circ
                                 for region in self.regions.values()
                                 if isinstance(region, Arc)), None))
        put(self, "_radii", {k: scale_number(2 * seq.r**k, unit)
                             for k in range(1, top + 1)})
        put(self, "_balls", {k: {} for k in self._radii})

    def ball(self, k: int, p: int) -> Region:
        """The open ball B(p, 2 r^k) in the unit, for 1 <= k <= max_level +
        1, built once: the interval, arc or box around the point's
        coordinate (`geometry.open_ball`), or on a space without
        coordinates the point set {q : d(p, q) < 2 r^k}."""
        try:
            return self._balls[k][p]
        except KeyError:
            pass
        space, radius = self._space, self._radii[k]
        if space.coords:
            ball = open_ball(self.coords[p], radius, self._circ)
        else:
            factor = self.unit // space.unit
            ball = PointSubset(space, [q for q, d in enumerate(space.rows[p])
                                       if d * factor < radius], factor)
        self._balls[k][p] = ball
        return ball


# ---------------------------------------------------------------------------
# Basic quantities


def mesh(family: Sequence[CoveringElement]) -> Fraction:
    if not family:
        raise ValueError("mesh of an empty family")
    return max(e.region.diameter() for e in family)


def lebesgue_number(seq: CoveringSequence, j: int) -> Fraction:
    """min over sample points z of min(sup_U dist(z, complement of U), mesh)
    for the level-j family U of ``seq``.

    The inner sup is infinite when some member is the whole space; it is
    then clipped by the mesh.  The depths are taken on the sequence's
    kernel, over its space's points.
    """
    family, kernel = seq.family(j), seq.kernel
    cap = mesh(family) * kernel.unit
    regions = [kernel.regions[e.uid] for e in family]
    worst = None
    for z, coord in enumerate(kernel.coords):
        depths = [d for region in regions
                  if (d := region.depth(coord, cap)) is not None]
        if not depths:
            raise ValueError(f"sample point {z} covered by no element")
        val = min(max(depths), cap)
        if worst is None or val < worst:
            worst = val
    return Fraction(worst, kernel.unit)


# ---------------------------------------------------------------------------
# Validator


def validate_covering_sequence(seq: CoveringSequence, graph
                               ) -> CheckResult:
    """Run the full contract against the nets of ``graph`` (an
    `ApproxGraph` over the same space), on the sequence's kernel; returns
    a CheckResult whose first violation names the offending element(s)."""
    scale = graph.scale
    if seq.r != scale.r:
        raise ValueError("covering scale differs from graph scale")
    space = seq.space
    result = CheckResult("covering-contract", PASS)
    levels = sorted(seq.levels)
    if levels[0] != 0 or levels != list(range(levels[-1] + 1)):
        raise ValueError(f"covering levels must be 0..J, got {levels}")
    # the stage-1 map reads level-(J-1) elements and level-J ball radii
    if levels[-1] + 1 < scale.max_level:
        raise ValueError(
            f"covering reaches level {levels[-1]}, short of level "
            f"{scale.max_level - 1} that a graph of depth "
            f"{scale.max_level} needs")

    # (1) level 0 is the whole space once per color; strict mesh above it.
    for c in seq.colors:
        fam0 = seq.levels[0].get(c, ())
        if len(fam0) != 1 or not isinstance(fam0[0].region, WholeSpace):
            result.add_violation({"property": 1, "color": c,
                                  "reason": "level 0 must be the whole space"})
    for j in levels[1:]:
        fam = seq.family(j)
        if not fam:
            result.add_violation({"property": 1, "level": j, "reason": "empty level"})
            continue
        m = mesh(fam)
        if m >= scale.sep(j):
            result.add_violation({"property": 1, "level": j, "mesh": m,
                                  "bound": scale.sep(j)})
        result.checked += 1

    # coverage and same-color disjointness per level; two regions whose
    # extents are apart on some axis do not meet, and are not tested
    kernel = seq.kernel
    coords, regions = kernel.coords, kernel.regions
    extents = {uid: region.extent() for uid, region in regions.items()}
    for j in levels:
        fam = [regions[e.uid] for e in seq.family(j)]
        for z in space.points:
            coord = coords[z]
            if not any(region.contains_point(coord) for region in fam):
                result.add_violation({"property": "cover", "level": j, "point": z})
        for c in seq.colors:
            colored = seq.levels[j].get(c, ())
            index = _Near([extents[e.uid] for e in colored])
            for i, e in enumerate(colored):
                region = regions[e.uid]
                for k in index.near(extents[e.uid]):
                    if k > i and region.meets_region(regions[colored[k].uid]):
                        result.add_violation({
                            "property": "disjoint", "level": j, "color": c,
                            "pair": (e.uid, colored[k].uid)})
        result.checked += 1

    # (2) every level-(j+1) net ball fits in some level-j element; two
    # same-color elements holding one ball both hold its center, so they
    # meet and disjointness has reported them
    for j in levels:
        fam = [regions[e.uid] for e in seq.family(j)]
        for v in graph.net(j + 1):
            ball = kernel.ball(j + 1, v)
            if not any(region.contains_region(ball) for region in fam):
                result.add_violation({"property": 2, "level": j, "net_point": v})
            result.checked += 1

    # (3) separation on same-color cross-level pairs (U, U').  A ball
    # whose extent is apart from U's does not meet U, and every ball
    # meeting U is outside a U' whose extent is apart from their union:
    # such a pair cannot break separation, and is counted without a test
    nets = {}
    for j in levels:
        net = [(v, kernel.ball(j + 1, v)) for v in graph.net(j + 1)]
        nets[j] = net, _Near([ball.extent() for _, ball in net])
    for c in seq.colors:
        elements = seq.color_elements(c)
        index = _Near([extents[e.uid] for e in elements])
        # U pairs with the elements before upto[U.level] (elements run by
        # level) but those of its own level and id, itself among them
        upto = {e.level: k + 1 for k, e in enumerate(elements)}
        own = collections.Counter((e.level, e.uid) for e in elements)
        for U in elements:
            region = regions[U.uid]
            net, net_index = nets[U.level]
            balls = [net[k] for k in net_index.near(extents[U.uid])
                     if region.meets_region(net[k][1])]
            result.checked += upto[U.level] - own[U.level, U.uid]
            if not balls:
                continue
            for k in index.near(_union([ball.extent() for _, ball in balls])):
                if k >= upto[U.level]:
                    break
                Up = elements[k]
                if Up.level == U.level and Up.uid == U.uid:
                    continue
                region_p = regions[Up.uid]
                inside = outside = 0
                witness = None
                for v, ball in balls:
                    if region_p.contains_region(ball):
                        inside += 1
                    elif not region_p.meets_region(ball):
                        outside += 1
                    else:
                        witness = v
                        break
                if witness is not None or (inside > 0 and outside > 0):
                    result.add_violation({
                        "property": 3, "color": c, "pair": (U.uid, Up.uid),
                        "ball": witness})
    return result


def _apart(a: tuple, b: tuple) -> bool:
    """Are two hulls, each one half-open ``(lo, hi)`` per axis, apart on
    some axis?"""
    for (lo, hi), (lo2, hi2) in zip(a, b):
        if hi <= lo2 or hi2 <= lo:
            return True
    return False


def _union(hulls: list[Optional[tuple]]) -> Optional[tuple]:
    """The least hull holding every one of ``hulls``; None when one of
    them is None."""
    if any(hull is None for hull in hulls):
        return None
    return tuple((min(lo for lo, _ in axis), max(hi for _, hi in axis))
                 for axis in zip(*hulls))


class _Near:
    """Hulls sorted by where they start on the first axis, so that the
    hulls not apart from a query are found by bisection, without a visit
    to the others.  A hull that is None is near every query."""

    def __init__(self, hulls: list[Optional[tuple]]):
        self.hulls = hulls
        self.unbounded = [k for k, h in enumerate(hulls) if h is None]
        keyed = sorted((h[0][0], k) for k, h in enumerate(hulls)
                       if h is not None)
        self.starts = [lo for lo, _ in keyed]
        self.order = [k for _, k in keyed]
        self.width = max((h[0][1] - h[0][0] for h in hulls if h is not None),
                         default=0)

    def near(self, hull: Optional[tuple]) -> Sequence[int]:
        """The indices, ascending, of the hulls not apart from ``hull``;
        every index when ``hull`` is None."""
        if hull is None:
            return range(len(self.hulls))
        lo, hi = hull[0]
        # a hull meeting [lo, hi) on the first axis starts before hi, and
        # no earlier than its width before lo
        first = bisect_right(self.starts, lo - self.width)
        last = bisect_left(self.starts, hi)
        hulls = self.hulls
        return sorted([*self.unbounded,
                       *(k for k in self.order[first:last]
                         if not _apart(hulls[k], hull))])


# ---------------------------------------------------------------------------
# Generators


def _candidate(color, level, region, index) -> CoveringElement:
    return CoveringElement(uid=f"c{color}-j{level}-{index}", color=color,
                           level=level, region=region)


def _whole_level(space, colors) -> dict[int, tuple[CoveringElement, ...]]:
    region = WholeSpace(space.diam)
    return {
        c: (CoveringElement(uid=f"c{c}-j0-0", color=c, level=0,
                            region=region),)
        for c in colors
    }


def generate_ultrametric(space: FiniteMetricSpace, scale: ScaleParams,
                         n_colors: int = 1) -> CoveringSequence:
    """Single-color hierarchy for triadic line samples.

    Level j >= 1 uses the triadic blocks of the least depth d whose
    widened length 2 * 3^-d is below the mesh bound r^j (d = 2j+1 at
    r = 1/9).  Each block [a, a + L) is widened to [a - 2L/3, a + 4L/3):
    wide enough for the net balls of the next level, and at r = 1/9
    adjacent sibling blocks meet exactly at the open-ball boundary, so
    separation holds with nothing to spare.
    """
    if space.kind != "cantor":
        raise CoveringError("ultrametric generator expects a cantor space")
    if n_colors != 1:
        raise CoveringError("the triadic hierarchy is a one-color family")
    colors = (0,)
    levels = {0: _whole_level(space, colors)}
    for j in range(1, scale.max_level + 1):
        depth = 0
        while 2 * Fraction(1, 3**depth) >= scale.sep(j):
            depth += 1
        length = Fraction(1, 3**depth)
        blocks: dict[int, list[int]] = {}
        for p in space.points:
            idx = int(space.coords[p] / length)
            blocks.setdefault(idx, []).append(p)
        fam = []
        for i, idx in enumerate(sorted(blocks)):
            a = idx * length
            region = LineInterval(a - 2 * length / 3, a + 4 * length / 3)
            fam.append(_candidate(0, j, region, i))
        levels[j] = {0: tuple(fam)}
    return CoveringSequence(space=space, r=scale.r, colors=colors, levels=levels)


def _circle_blocks(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Consecutive point blocks [first, last] around the circle."""
    blocks = []
    start = 0
    for s in sizes:
        blocks.append((start, start + s - 1))
        start += s
    return blocks


def default_circle_blocks(n_points: int) -> list[int]:
    """Block pattern: alternating colors need an even count; sizes 4 and 5
    keep arcs under the mesh and same-color gaps past the ball window.
    The number of blocks of 5 is n mod 4, or four more where that makes
    the block count even and still fits: each four 5s in place of five 4s
    take one block away.  2, 3, 6, 7 and 11 points cannot be cut so, and
    4, 5, 12-15, 21-23 and 31 points only into an odd count."""
    fives = n_points % 4
    if 5 * fives > n_points:
        raise CoveringError(f"{n_points} points cannot be cut into blocks "
                            "of 4 and 5 points")
    if (n_points - fives) // 4 % 2 and 5 * (fives + 4) <= n_points:
        fives += 4
    return [5] * fives + [4] * ((n_points - 5 * fives) // 4)


def generate_shifted_arcs(space: FiniteMetricSpace, scale: ScaleParams,
                          n_colors: int = 2) -> CoveringSequence:
    """Two alternating families of arcs over consecutive point blocks.

    Level 1 arcs reach exactly one open-ball radius past their end points;
    deeper levels shrink to per-point arcs colored by the owning block, so
    same-color elements across levels are nested or far apart.

    ``n_colors=1`` builds the natural single-family attempt (disjoint arcs
    broken between blocks); it is expected to fail validation whenever the
    level-1 net balls are wider than the point spacing.
    """
    if space.kind != "circle":
        raise CoveringError("shifted arcs expect a circle space")
    if not 1 <= n_colors <= 2:
        raise CoveringError("shifted arcs alternate one or two colors, "
                            f"not {n_colors}")
    n = space.n
    unit = Fraction(1, n)
    sizes = default_circle_blocks(n)
    if len(sizes) % n_colors:
        raise CoveringError("alternating colors need an even number of blocks")
    pt_blocks = _circle_blocks(sizes)
    color_of_point = {p: i % n_colors
                      for i, (first, last) in enumerate(pt_blocks)
                      for p in range(first, last + 1)}

    colors = tuple(range(n_colors))
    levels = {0: _whole_level(space, colors)}

    # level 1: one arc per block, margins one level-2 ball radius wide
    h1 = 2 * scale.sep(2)
    fam: dict[int, list[CoveringElement]] = {c: [] for c in colors}
    for i, (first, last) in enumerate(pt_blocks):
        lo = first * unit - h1
        length = (last - first) * unit + 2 * h1
        region = Arc(lo % 1, length)
        c = i % n_colors
        fam[c].append(_candidate(c, 1, region, i))
    levels[1] = {c: tuple(v) for c, v in fam.items()}

    # levels >= 2: per-point arcs, certificate twice the ball radius wide,
    # colored by the point's block so cross-level pairs are nested
    for j in range(2, scale.max_level + 1):
        hj = 2 * scale.sep(j + 1)
        fam = {c: [] for c in colors}
        for p in space.points:
            region = Arc((space.coords[p] - 2 * hj) % 1, 4 * hj)
            c = color_of_point[p]
            fam[c].append(_candidate(c, j, region, p))
        levels[j] = {c: tuple(v) for c, v in fam.items()}
    return CoveringSequence(space=space, r=scale.r, colors=colors, levels=levels)


def generate_shifted_cubes(space: FiniteMetricSpace, scale: ScaleParams,
                           n_colors: int = 3) -> CoveringSequence:
    """Three diagonally shifted square tilings per level, each shrunk by one
    ball radius so no net ball pokes across a same-family seam.

    Family c at level j tiles the plane with squares of side S = r^j / 2,
    offset by (c/3, c/3) * S, then shrunk by g = 2 r^(j+1) on every
    side.  A point near one family's gridline is deep inside another's tile,
    which is why three colors suffice in the plane.  Alignment of seams
    across levels requires 1/r = 1 (mod 3).  The tiles are found on the
    int lattice of a unit that clears S/3 and g, and each distinct bound
    becomes a Fraction once.
    """
    if space.kind != "grid":
        raise CoveringError("shifted cubes expect a grid space")
    if not 1 <= n_colors <= 3:
        raise CoveringError("shifted cubes offset one to three families, "
                            f"not {n_colors}")
    a = scale.a
    if a.denominator != 1 or a.numerator % 3 != 1:
        raise CoveringError("cube seams align across levels only when 1/r = 1 mod 3")
    colors = tuple(range(n_colors))
    levels = {0: _whole_level(space, colors)}
    for j in range(1, scale.max_level + 1):
        side = scale.sep(j) / 2
        g = 2 * scale.sep(j + 1)
        if 2 * g >= side:
            raise CoveringError(f"tiles at level {j} vanish after shrinking")
        unit = math.lcm(space.unit, (side / 3).denominator, g.denominator)
        # S/3, g and S as ints in that unit
        third, g = scale_number(side / 3, unit), scale_number(g, unit)
        side = 3 * third
        bounds: dict[int, Fraction] = {}
        fam: dict[int, list[CoveringElement]] = {c: [] for c in colors}
        seen: set[tuple] = set()
        for x, y in space.lattice(unit):
            for c in colors:
                off = c * third
                mx = (x - off) // side
                my = (y - off) // side
                key = (c, mx, my)
                if key in seen:
                    continue
                box = (off + mx * side + g, off + (mx + 1) * side - g,
                       off + my * side + g, off + (my + 1) * side - g)
                for b in box:
                    if b not in bounds:
                        bounds[b] = Fraction(b, unit)
                fam[c].append(_candidate(
                    c, j, BoxRegion(*map(bounds.__getitem__, box)),
                    len(seen)))
                seen.add(key)
        levels[j] = {c: tuple(v) for c, v in fam.items()}
    return CoveringSequence(space=space, r=scale.r, colors=colors, levels=levels)


GENERATORS = {
    "ultrametric": generate_ultrametric,
    "shifted_arcs": generate_shifted_arcs,
    "shifted_cubes": generate_shifted_cubes,
}


def generate_covering_sequence(candidates: CoveringSequence, graph
                               ) -> CoveringSequence:
    """The candidates whose certificate holds a sample point, on the
    candidates' kernel, validated against the nets of ``graph``;
    generation fails when validation fails.  A sequence that passes keeps
    its validation result as ``contract``."""
    kernel = candidates.kernel
    coords, regions = kernel.coords, kernel.regions
    levels = {j: {c: tuple(e for e in members
                           if any(map(regions[e.uid].contains_point, coords)))
                  for c, members in family.items()}
              for j, family in candidates.levels.items()}
    head = candidates.space, candidates.r, candidates.colors, levels
    contract = validate_covering_sequence(
        CoveringSequence(*head, _kernel=kernel), graph)
    if contract.status == FAIL:
        raise CoveringError("generated sequence fails validation: "
                            f"{contract.violations[0]}")
    return CoveringSequence(*head, contract, _kernel=kernel)


def build_covering(kind: str, graph, **params) -> CoveringSequence:
    """The generated sequence of ``kind`` on the space and scale of
    ``graph``, down to its depth, validated against its nets."""
    if kind not in GENERATORS:
        raise CoveringError(f"unknown covering generator {kind!r}")
    candidates = GENERATORS[kind](graph.space, graph.scale, **params)
    return generate_covering_sequence(candidates, graph)


# ---------------------------------------------------------------------------
# Covering file format (JSON)


def save_covering_json(seq: CoveringSequence, path) -> None:
    data = {
        "r": frac_str(seq.r),
        "colors": list(seq.colors),
        "levels": [
            {
                "j": j,
                "families": {
                    str(c): [
                        {"id": e.uid, **e.region.to_json()}
                        for e in seq.levels[j].get(c, ())
                    ]
                    for c in seq.colors
                },
            }
            for j in sorted(seq.levels)
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_covering_json(path, space: FiniteMetricSpace) -> CoveringSequence:
    with open(path) as fh:
        data = json.load(fh)
    colors = tuple(data["colors"])
    levels: dict[int, dict[int, tuple[CoveringElement, ...]]] = {}
    for entry in data["levels"]:
        j = entry["j"]
        fams = {}
        for c_str, elems in entry["families"].items():
            c = int(c_str)
            fams[c] = tuple(
                CoveringElement(uid=e.get("id", f"c{c}-j{j}-{i}"), color=c,
                                level=j, region=region_from_json(e, space))
                for i, e in enumerate(elems))
        levels[j] = fams
    return CoveringSequence(space=space, r=Fraction(data["r"]),
                            colors=colors, levels=levels)
