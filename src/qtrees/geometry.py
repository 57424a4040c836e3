"""Geometric certificates for covering elements.

Certificates make containment and disjointness checks exact and
independent of how densely the space was sampled: every test reduces to
rational comparisons between interval endpoints.  Covering certificates
are half-open, so two certificates may share a boundary point without
intersecting.

A net ball is a certificate as well, so every ball test of the
construction is a region test between two certificates.  `open_ball`
gives the open ball of the line, of a circle or of the sup-metric plane as
the interval, arc or box from its center minus its radius to its center
plus it; on a space without coordinates a ball is the `PointSubset` of
the sample points inside it.  The interval, arc or box is half-open where
the ball is open, which no region test tells apart: the tests compare
endpoints, and a certificate holds, or meets, an open ball exactly when
it holds, or meets, the half-open one with the same ends.

Certificates are stored as JSON objects tagged by their form, with
rationals as "p/q" strings: {"whole_space": true, "diam"},
{"intervals": [[lo, hi]]} (one interval), {"arc": [start, length]} (an
arc shorter than the circle), {"box": [x0, x1, y0, y1]} or {"points": [id,
...]}.

The region methods use only + - * % and comparisons, so each is written
once and is exact over Fractions and over ints alike.  `Region.scaled`
multiplies every number of a certificate by an int unit and returns the
same class over ints; it raises ValueError when the unit leaves a
denominator, and `Region.denominator` is the least unit that does not.  An
`Arc` reads its circumference from `circ` (1 unless scaled), and a scaled
`PointSubset` reads the space's int distances in the same unit.  A
covering sequence holds its own `coverings.CoveringKernel`: its
certificates, points and net balls in one unit, a multiple of the
space's.  Covering generation, the covering validator, the color trees
and their checks, the stage-1 map, the containing chains and the edge
letters run their region tests on it.  Reported diameters come from the
Fraction certificates.  `Region.extent` is a range per axis holding the
region, by which the covering validator skips the pairs that lie apart.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from qtrees.reporting import frac_str

ONE = Fraction(1)


def scale_number(x, unit: int) -> int:
    """``x * unit`` as an int; ValueError when ``unit`` does not clear the
    denominator of ``x``.  A Fraction is in lowest terms, so ``x * unit``
    is an int exactly when its denominator divides ``unit``: the product
    is taken on ints."""
    steps, rest = divmod(unit, x.denominator)
    if rest:
        raise ValueError(f"unit {unit} does not clear {x}")
    return x.numerator * steps


def _lcm_of_denominators(numbers) -> int:
    return math.lcm(*(x.denominator for x in numbers))


class Frozen:
    """An immutable object: ``__init__`` sets the fields with
    ``object.__setattr__`` and nothing assigns them after it.  It equals
    an instance of its own class with the same ``_key()``, and hashes as
    its ``_key()``; a class without a key of its own compares by
    identity."""

    __slots__ = ()

    def _key(self) -> tuple:
        return (id(self),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Region(Frozen):
    """Base certificate.  Coordinates are Fractions (line, circle) or
    (Fraction, Fraction) pairs (sup-metric plane)."""

    __slots__ = ()

    def diameter(self) -> Fraction:
        raise NotImplementedError

    def contains_point(self, coord) -> bool:
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

    def extent(self) -> Optional[tuple]:
        """A hull of the region on the coordinate line or plane: one
        half-open ``(lo, hi)`` per axis, holding every point of the region.
        None where the region has no such hull: the whole space, a point
        subset, and an arc that wraps past the end of the circle."""
        return None

    def denominator(self) -> int:
        """The least unit that `scaled` accepts."""
        raise NotImplementedError

    def scaled(self, unit: int) -> "Region":
        """The same certificate with every number multiplied by ``unit``,
        as ints; ValueError when ``unit`` does not clear a denominator."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class WholeSpace(Region):
    """The entire space as a covering element; its diameter is the space
    diameter and it contains every ball by definition."""

    __slots__ = ("diam",)

    def __init__(self, diam: Fraction):
        object.__setattr__(self, "diam", diam)

    def _key(self) -> tuple:
        return (self.diam,)

    def __repr__(self) -> str:
        return f"WholeSpace(diam={self.diam!r})"

    def diameter(self) -> Fraction:
        return self.diam

    def contains_point(self, coord) -> bool:
        return True

    def contains_region(self, other) -> bool:
        return True

    def meets_region(self, other) -> bool:
        return True

    def depth(self, coord, cap):
        return cap

    def denominator(self) -> int:
        return 1

    def scaled(self, unit):
        return self

    def to_json(self):
        return {"whole_space": True, "diam": frac_str(self.diam)}


class LineInterval(Region):
    """Half-open interval [lo, hi) on the line."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo >= hi:
            raise ValueError(f"empty interval [{lo}, {hi})")
        put = object.__setattr__
        put(self, "lo", lo)
        put(self, "hi", hi)

    def _key(self) -> tuple:
        return self.lo, self.hi

    def __repr__(self) -> str:
        return f"LineInterval(lo={self.lo!r}, hi={self.hi!r})"

    def diameter(self) -> Fraction:
        return self.hi - self.lo

    def contains_point(self, x) -> bool:
        return self.lo <= x < self.hi

    def contains_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return False
        if not isinstance(other, LineInterval):
            raise TypeError("mixed certificate geometries")
        return self.lo <= other.lo and other.hi <= self.hi

    def meets_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return True
        return self.lo < other.hi and other.lo < self.hi

    def depth(self, x, cap):
        return min(x - self.lo, self.hi - x) if self.lo <= x < self.hi \
            else None

    def extent(self):
        return ((self.lo, self.hi),)

    def denominator(self) -> int:
        return _lcm_of_denominators((self.lo, self.hi))

    def scaled(self, unit):
        return LineInterval(scale_number(self.lo, unit),
                            scale_number(self.hi, unit))

    def to_json(self):
        return {"intervals": [[frac_str(self.lo), frac_str(self.hi)]]}


class Arc(Region):
    """Half-open arc [start, start+length) on a circle of circumference
    ``circ``: the unit circle, or a scaled copy of it.

    ``0 < length < circ``: the whole circle is `WholeSpace`.  Arc-metric
    diameters are only meaningful for length <= circ/2, which covers every
    certificate the generators produce above level 0.  ``circ`` is left
    out of equality, hashing and ``repr``.
    """

    __slots__ = ("start", "length", "circ")

    def __init__(self, start: Fraction, length: Fraction,
                 circ: Fraction = ONE):
        put = object.__setattr__
        put(self, "start", start % circ)
        put(self, "length", length)
        put(self, "circ", circ)
        if not (0 < length < circ):
            raise ValueError(f"arc length {length} outside (0, {circ})")

    def _key(self) -> tuple:
        return self.start, self.length

    def __repr__(self) -> str:
        return f"Arc(start={self.start!r}, length={self.length!r})"

    def diameter(self) -> Fraction:
        return min(self.length, Fraction(self.circ, 2))

    def contains_point(self, x) -> bool:
        return (x - self.start) % self.circ < self.length

    def contains_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return False
        if not isinstance(other, Arc):
            raise TypeError("mixed certificate geometries")
        if other.length > self.length:
            return False
        offset = (other.start - self.start) % self.circ
        return offset + other.length <= self.length

    def meets_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return True
        offset = (other.start - self.start) % self.circ
        return offset < self.length or offset + other.length > self.circ

    def depth(self, x, cap):
        off = (x - self.start) % self.circ
        return min(off, self.length - off) if off < self.length else None

    def extent(self):
        end = self.start + self.length
        return ((self.start, end),) if end <= self.circ else None

    def denominator(self) -> int:
        return _lcm_of_denominators((self.start, self.length, self.circ))

    def scaled(self, unit):
        return Arc(scale_number(self.start, unit),
                   scale_number(self.length, unit),
                   scale_number(self.circ, unit))

    def to_json(self):
        return {"arc": [frac_str(self.start), frac_str(self.length)]}


class BoxRegion(Region):
    """Half-open axis box [x0,x1) x [y0,y1) under the sup metric."""

    __slots__ = ("x0", "x1", "y0", "y1")

    def __init__(self, x0: Fraction, x1: Fraction, y0: Fraction,
                 y1: Fraction):
        if x0 >= x1 or y0 >= y1:
            raise ValueError("empty box")
        put = object.__setattr__
        put(self, "x0", x0)
        put(self, "x1", x1)
        put(self, "y0", y0)
        put(self, "y1", y1)

    def _key(self) -> tuple:
        return self.x0, self.x1, self.y0, self.y1

    def __repr__(self) -> str:
        return (f"BoxRegion(x0={self.x0!r}, x1={self.x1!r}, y0={self.y0!r}, "
                f"y1={self.y1!r})")

    def diameter(self) -> Fraction:
        return max(self.x1 - self.x0, self.y1 - self.y0)

    def contains_point(self, p) -> bool:
        x, y = p
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

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
            self.x0 < other.x1
            and other.x0 < self.x1
            and self.y0 < other.y1
            and other.y0 < self.y1
        )

    def depth(self, p, cap):
        if not self.contains_point(p):
            return None
        x, y = p
        return min(x - self.x0, self.x1 - x, y - self.y0, self.y1 - y)

    def extent(self):
        return (self.x0, self.x1), (self.y0, self.y1)

    def denominator(self) -> int:
        return _lcm_of_denominators((self.x0, self.x1, self.y0, self.y1))

    def scaled(self, unit):
        return BoxRegion(*(scale_number(v, unit)
                           for v in (self.x0, self.x1, self.y0, self.y1)))

    def to_json(self):
        return {"box": [frac_str(self.x0), frac_str(self.x1),
                        frac_str(self.y0), frac_str(self.y1)]}


class PointSubset(Region):
    """Fallback certificate: an explicit subset of the sample, with all
    checks running through the space metric.  Sampling-dependent, used only
    for user-loaded spaces without generator coordinates.  Distances are
    the space's int distances times ``factor``: 1/unit, giving Fractions,
    or an int in a scaled copy."""

    __slots__ = ("space", "members", "factor")

    def __init__(self, space, members, factor=None):
        members = frozenset(members)
        if not members:
            raise ValueError("empty point-subset certificate")
        put = object.__setattr__
        put(self, "space", space)
        put(self, "members", members)
        put(self, "factor",
                Fraction(1, space.unit) if factor is None else factor)

    def _d(self, a, b):
        return self.space.rows[a][b] * self.factor

    def diameter(self) -> Fraction:
        pts = sorted(self.members)
        return max(
            (self._d(a, b) for i, a in enumerate(pts) for b in pts[i:]),
            default=Fraction(0),
        )

    def contains_point(self, p) -> bool:
        return p in self.members

    def contains_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return False
        if not isinstance(other, PointSubset):
            raise TypeError("mixed certificate geometries")
        return other.members <= self.members

    def meets_region(self, other) -> bool:
        if isinstance(other, WholeSpace):
            return True
        return not self.members.isdisjoint(other.members)

    def depth(self, p, cap):
        """Distance to the nearest sample point outside the member set."""
        if p not in self.members:
            return None
        return min((self._d(p, q) for q in self.space.points
                    if q not in self.members), default=cap)

    def denominator(self) -> int:
        """The space's unit, which clears every distance (1 once scaled)."""
        return self.factor.denominator

    def scaled(self, unit):
        factor = self.factor * unit
        if factor.denominator != 1:
            raise ValueError(f"unit {unit} does not clear the distances")
        return PointSubset(self.space, self.members, factor.numerator)

    def to_json(self):
        return {"points": sorted(self.members)}

    def __eq__(self, other):
        return isinstance(other, PointSubset) and self.members == other.members

    def __hash__(self):
        return hash(("points", self.members))


def open_ball(center, radius, circ=None) -> Region:
    """The open ball B(center, radius) as a certificate, for radius > 0:
    the interval, or on a circle of circumference ``circ`` the arc, from
    center - radius to center + radius, or for an (x, y) center the box of
    half-side ``radius``.  On a circle the ball is shorter than the circle,
    2 radius < circ."""
    if isinstance(center, tuple):
        x, y = center
        return BoxRegion(x - radius, x + radius, y - radius, y + radius)
    if circ is None:
        return LineInterval(center - radius, center + radius)
    return Arc(center - radius, 2 * radius, circ)


def region_from_json(data: dict, space) -> Region:
    """The certificate a `Region.to_json` object describes; ``space`` backs
    point-subset certificates."""
    if data.get("whole_space"):
        return WholeSpace(Fraction(data["diam"]))
    if "intervals" in data:
        if len(data["intervals"]) != 1:
            raise ValueError("an interval certificate holds one interval, "
                             f"not {len(data['intervals'])}")
        (lo, hi), = data["intervals"]
        return LineInterval(Fraction(lo), Fraction(hi))
    if "arc" in data:
        return Arc(Fraction(data["arc"][0]), Fraction(data["arc"][1]))
    if "box" in data:
        x0, x1, y0, y1 = map(Fraction, data["box"])
        return BoxRegion(x0, x1, y0, y1)
    return PointSubset(space, data["points"])
