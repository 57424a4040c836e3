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
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from qtrees.geometry import Arc, BoxRegion, LineIntervals, Region, WholeSpace
from qtrees.metric import FiniteMetricSpace, ScaleParams, maximal_separated_net
from qtrees.reporting import CheckResult, FAIL, PASS, frac_str, parse_frac


@dataclass(frozen=True)
class CoveringElement:
    uid: str
    color: int
    level: int
    region: Region
    members: tuple[int, ...]  # sample point ids inside the certificate


@dataclass
class CoveringSequence:
    space: FiniteMetricSpace
    r: Fraction
    colors: tuple[int, ...]
    # levels[j][color] -> tuple of elements
    levels: dict[int, dict[int, tuple[CoveringElement, ...]]]
    # the validator's result, kept by generate_covering_sequence
    contract: Optional[CheckResult] = None

    @property
    def max_level(self) -> int:
        return max(self.levels)

    def family(self, j: int) -> list[CoveringElement]:
        return [e for fam in self.levels[j].values() for e in fam]

    def color_elements(self, color: int) -> list[CoveringElement]:
        out = []
        for j in sorted(self.levels):
            out.extend(self.levels[j].get(color, ()))
        return out

    def element(self, uid: str) -> CoveringElement:
        for j in self.levels:
            for fam in self.levels[j].values():
                for e in fam:
                    if e.uid == uid:
                        return e
        raise KeyError(uid)


class CoveringError(ValueError):
    """Raised when a generated sequence fails its own validation."""


# ---------------------------------------------------------------------------
# Basic quantities


def mesh(family: Sequence[CoveringElement]) -> Fraction:
    if not family:
        raise ValueError("mesh of an empty family")
    return max(e.region.diameter() for e in family)


def lebesgue_number(family: Sequence[CoveringElement],
                    space: FiniteMetricSpace) -> Fraction:
    """min over sample points z of min(sup_U dist(z, complement of U), mesh).

    The inner sup is infinite when some member is the whole space; it is
    then clipped by the mesh.
    """
    m = mesh(family)
    worst: Optional[Fraction] = None
    for z in space.points:
        best: Optional[Fraction] = None
        for e in family:
            depth = _depth_inside(e, z, space, cap=m)
            if depth is None:
                continue
            if best is None or depth > best:
                best = depth
        if best is None:
            raise ValueError(f"sample point {z} covered by no element")
        val = min(best, m)
        if worst is None or val < worst:
            worst = val
    assert worst is not None
    return worst


def _depth_inside(e: CoveringElement, z: int, space: FiniteMetricSpace,
                  cap: Fraction) -> Optional[Fraction]:
    """Distance from sample point z to the complement of the certificate,
    measured exactly; None when z is outside.  WholeSpace has no complement,
    so any value >= cap works."""
    region = e.region
    if isinstance(region, WholeSpace):
        return cap
    coord = space.coord(z)
    if not region.contains_point(coord):
        return None
    if isinstance(region, LineIntervals):
        return max(
            min(coord - lo, hi - coord)
            for lo, hi in region.intervals
            if lo <= coord < hi
        )
    if isinstance(region, Arc):
        if region.length == 1:
            return cap
        off = (coord - region.start) % 1
        return min(off, region.length - off)
    if isinstance(region, BoxRegion):
        x, y = coord
        return min(x - region.x0, region.x1 - x, y - region.y0, region.y1 - y)
    # PointSubset: distance to the nearest sample outside the member set
    outside = [p for p in space.points if p not in region.members]
    if not outside:
        return cap
    return min(space.d(z, p) for p in outside)


# ---------------------------------------------------------------------------
# Validator


def _net_centers(seq: CoveringSequence, scale: ScaleParams, level: int,
                 graph=None) -> tuple[int, ...]:
    if graph is not None and level in graph.nets:
        return graph.nets[level]
    return maximal_separated_net(seq.space, scale.sep(level), level).centers


def validate_covering_sequence(seq: CoveringSequence, graph=None,
                               scale: Optional[ScaleParams] = None) -> CheckResult:
    """Run the full contract; returns a CheckResult whose first violation
    names the offending element(s)."""
    if scale is None:
        if graph is None:
            raise ValueError("need a graph or explicit scale parameters")
        scale = graph.scale
    if seq.r != scale.r:
        raise ValueError("covering scale differs from graph scale")
    space = seq.space
    result = CheckResult("covering-contract", PASS)
    levels = sorted(seq.levels)
    if levels[0] != 0 or levels != list(range(levels[-1] + 1)):
        raise ValueError(f"covering levels must be 0..J, got {levels}")

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

    # coverage and same-color disjointness per level
    for j in levels:
        fam = seq.family(j)
        for z in space.points:
            if not any(e.region.contains_point(space.coord(z)) for e in fam):
                result.add_violation({"property": "cover", "level": j, "point": z})
        for c in seq.colors:
            colored = seq.levels[j].get(c, ())
            for i, e in enumerate(colored):
                for e2 in colored[i + 1:]:
                    if e.region.meets_region(e2.region):
                        result.add_violation({
                            "property": "disjoint", "level": j, "color": c,
                            "pair": (e.uid, e2.uid)})
        result.checked += 1

    # (2) every level-(j+1) net ball fits in some level-j element
    for j in levels:
        centers = _net_centers(seq, scale, j + 1, graph)
        radius = 2 * scale.sep(j + 1)
        fam = seq.family(j)
        for v in centers:
            coord = space.coord(v)
            hits = [e for e in fam if e.region.contains_ball(coord, radius)]
            if not hits:
                result.add_violation({"property": 2, "level": j, "net_point": v})
            # per color the witness is unique (disjointness)
            for c in seq.colors:
                if sum(1 for e in hits if e.color == c) > 1:
                    result.add_violation({
                        "property": "witness-unique", "level": j,
                        "color": c, "net_point": v})
            result.checked += 1

    # (3) separation on same-color cross-level pairs
    ball_cache: dict[int, list[tuple[int, object, Fraction]]] = {}
    for j in levels:
        centers = _net_centers(seq, scale, j + 1, graph)
        radius = 2 * scale.sep(j + 1)
        ball_cache[j] = [(v, space.coord(v), radius) for v in centers]
    for c in seq.colors:
        elements = seq.color_elements(c)
        for U in elements:
            balls = [
                (v, coord, radius)
                for v, coord, radius in ball_cache[U.level]
                if U.region.meets_ball(coord, radius)
            ]
            for Up in elements:
                if Up is U or Up.level > U.level:
                    continue
                if Up.level == U.level and Up.uid == U.uid:
                    continue
                inside = outside = 0
                witness = None
                for v, coord, radius in balls:
                    if Up.region.contains_ball(coord, radius):
                        inside += 1
                    elif not Up.region.meets_ball(coord, radius):
                        outside += 1
                    else:
                        witness = v
                        break
                if witness is not None or (inside > 0 and outside > 0):
                    result.add_violation({
                        "property": 3, "color": c, "pair": (U.uid, Up.uid),
                        "ball": witness})
                result.checked += 1
    return result


# ---------------------------------------------------------------------------
# Generators


def _element(space, color, level, region, index) -> Optional[CoveringElement]:
    members = tuple(
        p for p in space.points if region.contains_point(space.coord(p))
    )
    if not members:
        return None
    uid = f"c{color}-j{level}-{index}"
    return CoveringElement(uid=uid, color=color, level=level,
                           region=region, members=members)


def _whole_level(space, colors) -> dict[int, tuple[CoveringElement, ...]]:
    region = WholeSpace(space.diam)
    return {
        c: (CoveringElement(uid=f"c{c}-j0-0", color=c, level=0,
                            region=region,
                            members=tuple(space.points)),)
        for c in colors
    }


def generate_ultrametric(space: FiniteMetricSpace, scale: ScaleParams,
                         max_level: int, n_colors: int = 1) -> CoveringSequence:
    """Single-color hierarchy for triadic line samples.

    Level j >= 1 uses the triadic blocks of depth 2j+1 (length L), each
    widened to [a - 2L/3, a + 4L/3): wide enough for the net balls of the
    next level, and adjacent sibling blocks meet exactly at the open-ball
    boundary, so separation holds with nothing to spare.
    """
    if space.kind != "cantor":
        raise CoveringError("ultrametric generator expects a cantor space")
    if n_colors != 1:
        raise CoveringError("the triadic hierarchy is a one-color family")
    colors = (0,)
    levels = {0: _whole_level(space, colors)}
    for j in range(1, max_level + 1):
        depth = 2 * j + 1
        length = Fraction(1, 3**depth)
        blocks: dict[int, list[int]] = {}
        for p in space.points:
            idx = int(space.coords[p] / length)
            blocks.setdefault(idx, []).append(p)
        fam = []
        for i, idx in enumerate(sorted(blocks)):
            a = idx * length
            region = LineIntervals((
                (a - 2 * length / 3, a + 4 * length / 3),
            ))
            elem = _element(space, 0, j, region, i)
            if elem is not None:
                fam.append(elem)
        levels[j] = {0: tuple(fam)}
    return CoveringSequence(space=space, r=scale.r, colors=colors, levels=levels)


def _circle_blocks(n_points: int, sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Consecutive point blocks [first, last] around the circle."""
    if sum(sizes) != n_points:
        raise CoveringError(f"block sizes sum to {sum(sizes)}, expected {n_points}")
    blocks = []
    start = 0
    for s in sizes:
        blocks.append((start, start + s - 1))
        start += s
    return blocks


def default_circle_blocks(n_points: int) -> list[int]:
    """Block pattern: alternating colors need an even count; sizes 4 and 5
    keep arcs under the mesh and same-color gaps past the ball window."""
    if n_points % 4 == 1:
        return [5] + [4] * ((n_points - 5) // 4)
    if n_points % 4 == 0:
        return [4] * (n_points // 4)
    if n_points % 4 == 2:
        return [5, 5] + [4] * ((n_points - 10) // 4)
    return [5, 5, 5] + [4] * ((n_points - 15) // 4)


def generate_shifted_arcs(space: FiniteMetricSpace, scale: ScaleParams,
                          max_level: int, n_colors: int = 2,
                          blocks: Optional[Sequence[int]] = None
                          ) -> CoveringSequence:
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
    n = space.n
    unit = Fraction(1, n)
    sizes = list(blocks) if blocks is not None else default_circle_blocks(n)
    if n_colors >= 2 and len(sizes) % 2 != 0:
        raise CoveringError("alternating colors need an even number of blocks")
    pt_blocks = _circle_blocks(n, sizes)
    block_color = {i: (i % 2 if n_colors >= 2 else 0)
                   for i in range(len(pt_blocks))}
    color_of_point = {}
    for i, (first, last) in enumerate(pt_blocks):
        for p in range(first, last + 1):
            color_of_point[p] = block_color[i]

    colors = tuple(range(max(n_colors, 1)))
    levels = {0: _whole_level(space, colors)}

    # level 1: one arc per block, margins one level-2 ball radius wide
    h1 = 2 * scale.sep(2)
    fam: dict[int, list[CoveringElement]] = {c: [] for c in colors}
    for i, (first, last) in enumerate(pt_blocks):
        lo = first * unit - h1
        length = (last - first) * unit + 2 * h1
        region = Arc(lo % 1, length)
        c = block_color[i]
        elem = _element(space, c, 1, region, i)
        if elem is not None:
            fam[c].append(elem)
    levels[1] = {c: tuple(v) for c, v in fam.items()}

    # levels >= 2: per-point arcs, certificate twice the ball radius wide,
    # colored by the point's block so cross-level pairs are nested
    for j in range(2, max_level + 1):
        hj = 2 * scale.sep(j + 1)
        fam = {c: [] for c in colors}
        for p in space.points:
            region = Arc((space.coords[p] - 2 * hj) % 1, 4 * hj)
            c = color_of_point[p]
            elem = _element(space, c, j, region, p)
            if elem is not None:
                fam[c].append(elem)
        levels[j] = {c: tuple(v) for c, v in fam.items()}
    return CoveringSequence(space=space, r=scale.r, colors=colors, levels=levels)


def generate_shifted_cubes(space: FiniteMetricSpace, scale: ScaleParams,
                           max_level: int, n_colors: int = 3,
                           tile_scale: Fraction = Fraction(1, 2)
                           ) -> CoveringSequence:
    """Three diagonally shifted square tilings per level, each shrunk by one
    ball radius so no net ball pokes across a same-family seam.

    Family c at level j tiles the plane with squares of side S = tile_scale
    * r^j, offset by (c/3, c/3) * S, then shrunk by g = 2 r^(j+1) on every
    side.  A point near one family's gridline is deep inside another's tile,
    which is why three colors suffice in the plane.  Alignment of seams
    across levels requires 1/r = 1 (mod 3).
    """
    if space.kind != "grid":
        raise CoveringError("shifted cubes expect a grid space")
    a = scale.a
    if a.denominator != 1 or a.numerator % 3 != 1:
        raise CoveringError("cube seams align across levels only when 1/r = 1 mod 3")
    colors = tuple(range(n_colors))
    levels = {0: _whole_level(space, colors)}
    for j in range(1, max_level + 1):
        side = tile_scale * scale.sep(j)
        g = 2 * scale.sep(j + 1)
        if 2 * g >= side:
            raise CoveringError(f"tiles at level {j} vanish after shrinking")
        fam: dict[int, list[CoveringElement]] = {c: [] for c in colors}
        seen: dict[tuple, int] = {}
        for p in space.points:
            x, y = space.coords[p]
            for c in colors:
                off = Fraction(c, 3) * side
                mx = (x - off) // side
                my = (y - off) // side
                key = (c, mx, my)
                if key in seen:
                    continue
                x0 = off + mx * side + g
                x1 = off + (mx + 1) * side - g
                y0 = off + my * side + g
                y1 = off + (my + 1) * side - g
                region = BoxRegion(x0, x1, y0, y1)
                elem = _element(space, c, j, region, len(seen))
                seen[key] = 1
                if elem is not None:
                    fam[c].append(elem)
        levels[j] = {c: tuple(v) for c, v in fam.items()}
    return CoveringSequence(space=space, r=scale.r, colors=colors, levels=levels)


GENERATORS = {
    "ultrametric": generate_ultrametric,
    "shifted_arcs": generate_shifted_arcs,
    "shifted_cubes": generate_shifted_cubes,
}


def generate_covering_sequence(kind: str, space: FiniteMetricSpace,
                               scale: ScaleParams, max_level: int,
                               graph=None, **params) -> CoveringSequence:
    """Build and validate; generation fails when validation fails, and a
    sequence that passes keeps its validation result as ``contract``."""
    if kind not in GENERATORS:
        raise CoveringError(f"unknown covering generator {kind!r}")
    seq = GENERATORS[kind](space, scale, max_level, **params)
    seq.contract = validate_covering_sequence(seq, graph=graph, scale=scale)
    if seq.contract.status == FAIL:
        raise CoveringError("generated sequence fails validation: "
                            f"{seq.contract.violations[0]}")
    return seq


# ---------------------------------------------------------------------------
# Covering file format (JSON)


def _region_to_json(region: Region):
    if isinstance(region, WholeSpace):
        return {"whole_space": True, "diam": frac_str(region.diam)}
    if isinstance(region, LineIntervals):
        return {"intervals": [[frac_str(lo), frac_str(hi)]
                              for lo, hi in region.intervals]}
    if isinstance(region, Arc):
        return {"arc": [frac_str(region.start), frac_str(region.length)]}
    if isinstance(region, BoxRegion):
        return {"box": [frac_str(region.x0), frac_str(region.x1),
                        frac_str(region.y0), frac_str(region.y1)]}
    return {"points": sorted(region.members)}


def _region_from_json(data, space):
    from qtrees.geometry import PointSubset

    if data.get("whole_space"):
        return WholeSpace(parse_frac(data["diam"]))
    if "intervals" in data:
        return LineIntervals(tuple(
            (parse_frac(lo), parse_frac(hi)) for lo, hi in data["intervals"]))
    if "arc" in data:
        return Arc(parse_frac(data["arc"][0]), parse_frac(data["arc"][1]))
    if "box" in data:
        x0, x1, y0, y1 = (parse_frac(v) for v in data["box"])
        return BoxRegion(x0, x1, y0, y1)
    return PointSubset(space, data["points"])


def save_covering_json(seq: CoveringSequence, path) -> None:
    data = {
        "r": frac_str(seq.r),
        "colors": list(seq.colors),
        "levels": [
            {
                "j": j,
                "families": {
                    str(c): [
                        {"id": e.uid, **_region_to_json(e.region)}
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
            built = []
            for i, e in enumerate(elems):
                region = _region_from_json(e, space)
                members = tuple(
                    p for p in space.points
                    if region.contains_point(space.coord(p))
                )
                built.append(CoveringElement(
                    uid=e.get("id", f"c{c}-j{j}-{i}"), color=c, level=j,
                    region=region, members=members))
            fams[c] = tuple(built)
        levels[j] = fams
    return CoveringSequence(space=space, r=parse_frac(data["r"]),
                            colors=colors, levels=levels)
