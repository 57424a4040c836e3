"""Geometric certificates for covering elements.

Certificates make containment and disjointness checks exact and
independent of how densely the space was sampled: every test reduces to
rational comparisons between interval endpoints.  Balls are always open;
covering certificates are half-open, so two certificates may share a
boundary point without intersecting.

Certificates are stored as JSON objects tagged by their form, with
rationals as "p/q" strings: {"whole_space": true, "diam"},
{"intervals": [[lo, hi], ...]}, {"arc": [start, length]},
{"box": [x0, x1, y0, y1]} or {"points": [id, ...]}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from qtrees.reporting import frac_str, parse_frac

ONE = Fraction(1)


class Region:
    """Base certificate.  Coordinates are Fractions (line, circle) or
    (Fraction, Fraction) pairs (sup-metric plane)."""

    def diameter(self) -> Fraction:
        raise NotImplementedError

    def contains_point(self, coord) -> bool:
        raise NotImplementedError

    def contains_ball(self, center, radius: Fraction) -> bool:
        """Does the open ball B(center, radius) lie inside the region?"""
        raise NotImplementedError

    def meets_ball(self, center, radius: Fraction) -> bool:
        """Does the open ball B(center, radius) intersect the region?"""
        raise NotImplementedError

    def contains_region(self, other: "Region") -> bool:
        raise NotImplementedError

    def meets_region(self, other: "Region") -> bool:
        raise NotImplementedError

    def depth(self, coord, cap: Fraction) -> Optional[Fraction]:
        """Exact distance from the point at ``coord`` to the complement of
        the region; None when the point is outside, ``cap`` when there is
        no complement."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class WholeSpace(Region):
    """The entire space as a covering element; its diameter is the space
    diameter and it contains every ball by definition."""

    diam: Fraction

    def diameter(self) -> Fraction:
        return self.diam

    def contains_point(self, coord) -> bool:
        return True

    def contains_ball(self, center, radius) -> bool:
        return True

    def meets_ball(self, center, radius) -> bool:
        return True

    def contains_region(self, other) -> bool:
        return True

    def meets_region(self, other) -> bool:
        return True

    def depth(self, coord, cap):
        return cap

    def to_json(self):
        return {"whole_space": True, "diam": frac_str(self.diam)}


@dataclass(frozen=True)
class LineIntervals(Region):
    """Disjoint union of half-open intervals [lo, hi) on the line."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = tuple(sorted(self.intervals))
        for lo, hi in ivs:
            if lo >= hi:
                raise ValueError(f"empty interval [{lo}, {hi})")
        for (_, b), (c, _) in zip(ivs, ivs[1:]):
            if b > c:
                raise ValueError("overlapping intervals in one certificate")
        object.__setattr__(self, "intervals", ivs)

    def diameter(self) -> Fraction:
        return self.intervals[-1][1] - self.intervals[0][0]

    def contains_point(self, x) -> bool:
        return any(lo <= x < hi for lo, hi in self.intervals)

    def contains_ball(self, center, radius) -> bool:
        # open (c-h, c+h) inside [lo, hi) iff lo <= c-h and c+h <= hi
        return any(
            lo <= center - radius and center + radius <= hi
            for lo, hi in self.intervals
        )

    def meets_ball(self, center, radius) -> bool:
        return any(
            lo < center + radius and center - radius < hi
            for lo, hi in self.intervals
        )

    def contains_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return False
        if not isinstance(other, LineIntervals):
            raise TypeError("mixed certificate geometries")
        return all(
            any(lo <= olo and ohi <= hi for lo, hi in self.intervals)
            for olo, ohi in other.intervals
        )

    def meets_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return True
        return any(
            max(lo, olo) < min(hi, ohi)
            for lo, hi in self.intervals
            for olo, ohi in other.intervals
        )

    def depth(self, x, cap):
        inside = [min(x - lo, hi - x)
                  for lo, hi in self.intervals if lo <= x < hi]
        return max(inside) if inside else None

    def to_json(self):
        return {"intervals": [[frac_str(lo), frac_str(hi)]
                              for lo, hi in self.intervals]}


@dataclass(frozen=True)
class Arc(Region):
    """Half-open arc [start, start+length) on the unit circle.

    ``length`` <= 1; the full circle is length 1.  Arc-metric diameters are
    only meaningful for length <= 1/2, which covers every certificate the
    generators produce above level 0.
    """

    start: Fraction
    length: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", self.start % 1)
        if not (0 < self.length <= 1):
            raise ValueError(f"arc length {self.length} outside (0, 1]")

    def diameter(self) -> Fraction:
        return min(self.length, Fraction(1, 2))

    def contains_point(self, x) -> bool:
        if self.length == 1:
            return True
        return (x - self.start) % 1 < self.length

    def contains_ball(self, center, radius) -> bool:
        # lift the open ball (center-radius, center+radius) relative to start
        if self.length == 1:
            return True
        if 2 * radius > self.length:
            return False
        offset = (center - radius - self.start) % 1
        return offset + 2 * radius <= self.length

    def meets_ball(self, center, radius) -> bool:
        if self.length == 1:
            return True
        offset = (center - radius - self.start) % 1
        if offset < self.length:
            return True
        # ball may wrap past 1 back into the arc
        return offset + 2 * radius > 1

    def contains_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return False
        if not isinstance(other, Arc):
            raise TypeError("mixed certificate geometries")
        if self.length == 1:
            return True
        if other.length > self.length:
            return False
        offset = (other.start - self.start) % 1
        return offset + other.length <= self.length

    def meets_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return True
        if self.length == 1 or other.length == 1:
            return True
        offset = (other.start - self.start) % 1
        return offset < self.length or offset + other.length > 1

    def depth(self, x, cap):
        if self.length == 1:
            return cap
        off = (x - self.start) % 1
        return min(off, self.length - off) if off < self.length else None

    def to_json(self):
        return {"arc": [frac_str(self.start), frac_str(self.length)]}


@dataclass(frozen=True)
class BoxRegion(Region):
    """Half-open axis box [x0,x1) x [y0,y1) under the sup metric."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ValueError("empty box")

    def diameter(self) -> Fraction:
        return max(self.x1 - self.x0, self.y1 - self.y0)

    def contains_point(self, p) -> bool:
        x, y = p
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def contains_ball(self, center, radius) -> bool:
        x, y = center
        return (
            self.x0 <= x - radius
            and x + radius <= self.x1
            and self.y0 <= y - radius
            and y + radius <= self.y1
        )

    def meets_ball(self, center, radius) -> bool:
        x, y = center
        return (
            self.x0 < x + radius
            and x - radius < self.x1
            and self.y0 < y + radius
            and y - radius < self.y1
        )

    def contains_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return False
        if not isinstance(other, BoxRegion):
            raise TypeError("mixed certificate geometries")
        return (
            self.x0 <= other.x0
            and other.x1 <= self.x1
            and self.y0 <= other.y0
            and other.y1 <= self.y1
        )

    def meets_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return True
        return (
            max(self.x0, other.x0) < min(self.x1, other.x1)
            and max(self.y0, other.y0) < min(self.y1, other.y1)
        )

    def depth(self, p, cap):
        if not self.contains_point(p):
            return None
        x, y = p
        return min(x - self.x0, self.x1 - x, y - self.y0, self.y1 - y)

    def to_json(self):
        return {"box": [frac_str(self.x0), frac_str(self.x1),
                        frac_str(self.y0), frac_str(self.y1)]}


class PointSubset(Region):
    """Fallback certificate: an explicit subset of the sample, with all
    checks running through the space metric.  Sampling-dependent, used only
    for user-loaded spaces without generator coordinates."""

    def __init__(self, space, members):
        self.space = space
        self.members = frozenset(members)
        if not self.members:
            raise ValueError("empty point-subset certificate")

    def diameter(self) -> Fraction:
        pts = sorted(self.members)
        return max(
            (self.space.d(a, b) for i, a in enumerate(pts) for b in pts[i:]),
            default=Fraction(0),
        )

    def contains_point(self, p) -> bool:
        return p in self.members

    def contains_ball(self, center, radius) -> bool:
        return all(
            q in self.members
            for q in self.space.points
            if self.space.d(center, q) < radius
        )

    def meets_ball(self, center, radius) -> bool:
        return any(self.space.d(center, q) < radius for q in self.members)

    def contains_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return False
        if not isinstance(other, PointSubset):
            raise TypeError("mixed certificate geometries")
        return other.members <= self.members

    def meets_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return True
        return bool(self.members & other.members)

    def depth(self, p, cap):
        """Distance to the nearest sample point outside the member set."""
        if p not in self.members:
            return None
        return min((self.space.d(p, q) for q in self.space.points
                    if q not in self.members), default=cap)

    def to_json(self):
        return {"points": sorted(self.members)}

    def __eq__(self, other):
        return isinstance(other, PointSubset) and self.members == other.members

    def __hash__(self):
        return hash(("points", self.members))


def region_from_json(data: dict, space) -> Region:
    """The certificate a `Region.to_json` object describes; ``space`` backs
    point-subset certificates."""
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
