"""Finite metric spaces with exact rational distances, held as ints.

A space has one int scale: ``unit`` clears every distance and generator
coordinate, and ``rows[i][j]`` is d(i, j) times ``unit``.  The
construction branches on strict inequalities like d < r^k, where floating
point would be unsound; a bound x enters the unit once, as
``math.ceil(x * unit)`` for a strict test and ``math.floor(x * unit)``
otherwise, so validation, nets, the graph, the pair table, the net
coloring and the doubling constant compare ints.  Fractions remain where
numbers are read out: ``dist`` and ``diam`` (one Fraction per distinct
value), the coordinates ``coords``, reports, files, and the reference
`stage1.classify_pair`.  Spaces are frozen and safe to share.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from qtrees.geometry import Frozen, scale_number


class MetricViolation(NamedTuple):
    kind: str  # "symmetry" | "diagonal" | "triangle" | "negative"
    triple: tuple[int, ...]

    def __str__(self) -> str:
        pts = ",".join(str(p) for p in self.triple)
        return f"{self.kind} violation at ({pts})"


class FiniteMetricSpace(Frozen):
    """Point set with an exact pairwise distance matrix: ``rows`` holds the
    distances times ``unit``, as ints.

    ``coords`` carries generator coordinates (positions on the line, the
    unit circle, or the unit square) used by covering generators to build
    geometric certificates, or is empty for file-loaded spaces.

    Equal and hashed by its four fields; ``dist`` and ``diam`` are
    computed on first use and kept.
    """

    def __init__(self, rows: tuple[tuple[int, ...], ...], unit: int,
                 kind: str = "custom", coords: tuple = ()):
        put = object.__setattr__
        put(self, "rows", rows)
        put(self, "unit", unit)
        put(self, "kind", kind)
        put(self, "coords", coords)

    def _key(self) -> tuple:
        return self.rows, self.unit, self.kind, self.coords

    def __repr__(self) -> str:
        return (f"FiniteMetricSpace(rows={self.rows!r}, unit={self.unit!r}, "
                f"kind={self.kind!r}, coords={self.coords!r})")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def points(self) -> range:
        return range(len(self.rows))

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as Fractions, one Fraction per distinct value."""
        values = {x: Fraction(x, self.unit) for x in set().union(*self.rows)}
        return tuple(tuple(map(values.__getitem__, row)) for row in self.rows)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    @cached_property
    def diam(self) -> Fraction:
        return Fraction(max(map(max, self.rows)), self.unit)

    def lattice(self, unit: int) -> tuple:
        """Every point's coordinate times ``unit`` (a multiple of the
        space's unit), as ints; the point ids when the space has no
        coordinates.  ValueError when ``unit`` does not clear a
        coordinate."""
        if unit % self.unit:
            raise ValueError(f"unit {unit} is not a multiple of {self.unit}")
        if not self.coords:
            return tuple(self.points)
        return tuple(tuple(scale_number(x, unit) for x in c)
                     if isinstance(c, tuple) else scale_number(c, unit)
                     for c in self.coords)


def validate_metric(rows: Sequence[Sequence]) -> Optional[MetricViolation]:
    """Check symmetry, zero diagonal, nonnegativity and the triangle
    inequality; return the first violating triple, or None.  The entries may
    be Fractions or, as `make_space` passes them, ints in one unit.

    Once the matrix is symmetric, (i, j, k) and (k, j, i) test the same
    inequality, so the first violating triple in the order of
    ``itertools.permutations`` has i < k: only those triples are tested,
    in that order."""
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != n:
            return MetricViolation("shape", (i,))
        if rows[i][i] != 0:
            return MetricViolation("diagonal", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return MetricViolation("symmetry", (i, j))
            if rows[i][j] < 0:
                return MetricViolation("negative", (i, j))
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            if j == i:
                continue
            row_j, d_ij = rows[j], row_i[j]
            for k in range(i + 1, n):
                if k != j and row_i[k] > d_ij + row_j[k]:
                    return MetricViolation("triangle", (i, j, k))
    return None


def scale_rows(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """A unit for a rational matrix, the lcm of its denominators, and the
    matrix times that unit, as ints."""
    rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
            for row in rows]
    unit = math.lcm(*(x.denominator for row in rows for x in row))
    return unit, [[x.numerator * (unit // x.denominator) for x in row]
                  for row in rows]


def make_space(rows: Sequence[Sequence], kind: str = "custom"
               ) -> FiniteMetricSpace:
    """The space of a rational distance matrix, validated on its ints."""
    if len(rows) < 2:
        raise ValueError("metric space must contain at least two points")
    unit, ints = scale_rows(rows)
    violation = validate_metric(ints)
    if violation is not None:
        raise ValueError(f"invalid metric: {violation}")
    return FiniteMetricSpace(tuple(map(tuple, ints)), unit, kind=kind)


# ---------------------------------------------------------------------------
# Generators


# the most points a space may have; a larger one is refused before any row
# is built, where it would otherwise exhaust memory
MAX_POINTS = 512
# the most levels a pipeline takes below its base level; more are refused
# before any net is built.  Each level past full separation adds a vertex
# per point, so the pairs grow with the square of the level count
MAX_LEVELS = 16


def _refuse_above_max(name: str, n: int, count: str) -> None:
    """ValueError when ``name`` has ``n`` points (written ``count``) and
    that is more than ``MAX_POINTS``."""
    if n > MAX_POINTS:
        raise ValueError(
            f"{name} has {count} points, above the limit of {MAX_POINTS}")


def generate_space(kind: str, param: int) -> FiniteMetricSpace:
    """Build one of the test spaces, with int distances read off the
    generator's lattice:

    cantor(depth): left ends of the 2^depth triadic intervals, ascending,
                   line metric, unit 3^depth;
    circle(N):     N equispaced points, arc metric on circumference 1, unit N;
    grid(n):       n x n points spanning the unit square, sup metric, unit n-1.

    A space of more than ``MAX_POINTS`` points is refused first.
    """
    if param < 1:
        raise ValueError(f"{kind} parameter must be >= 1, got {param}")
    # 2^10 is already above the limit, so a deep cantor is not raised to
    _refuse_above_max(f"{kind}({param})", *{
        "cantor": (2 ** min(param, 10), f"2^{param}"),
        "circle": (param, f"{param}"),
        "grid": (param * param, f"{param}^2 = {param * param}"),
    }.get(kind, (0, "")))
    if kind == "cantor":
        unit, pos = 3**param, [0]
        for k in reversed(range(param)):  # level l steps by 2 * 3^(depth - l)
            pos = [p for x in pos for p in (x, x + 2 * 3**k)]
        rows = tuple(tuple(abs(a - b) for b in pos) for a in pos)
        coords = tuple(Fraction(x, unit) for x in pos)
    elif kind == "circle":
        if param < 2:
            raise ValueError("circle needs at least two points")
        unit = param
        base = [min(k, param - k) for k in range(param)]
        rows = tuple(tuple(base[param - i:] + base[:param - i])
                     for i in range(param))
        coords = tuple(Fraction(i, param) for i in range(param))
    elif kind == "grid":
        if param < 2:
            raise ValueError("grid(1) is a single point; nontrivial space required")
        unit = param - 1
        idx = [(i, j) for i in range(param) for j in range(param)]
        rows = tuple(tuple(max(abs(i - a), abs(j - b)) for a, b in idx)
                     for i, j in idx)
        steps = [Fraction(i, unit) for i in range(param)]
        coords = tuple((steps[i], steps[j]) for i, j in idx)
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    return FiniteMetricSpace(rows, unit, kind=kind, coords=coords)


# ---------------------------------------------------------------------------
# Scale parameters and nets


def compute_k0(diam: Fraction, r: Fraction) -> int:
    """Largest integer k with diam < r^k (r < 1, so r^k grows as k drops)."""
    if diam <= 0:
        raise ValueError("trivial space: diameter must be positive")
    if not (0 < r <= Fraction(1, 6)):
        raise ValueError(f"scale parameter must lie in (0, 1/6], got {r}")
    k = 0
    if diam < r**k:
        while diam < r ** (k + 1):
            k += 1
    else:
        while diam >= r**k:
            k -= 1
    return k


class ScaleParams(Frozen):
    """Scale parameter r <= 1/6, its inverse a, the base level k0 and the
    truncation level ``max_level``.  Each power r^k is computed once and
    kept on the instance, out of equality and hashing."""

    __slots__ = ("r", "k0", "max_level", "_powers")

    def __init__(self, r: Fraction, k0: int, max_level: int):
        put = object.__setattr__
        put(self, "r", r)
        put(self, "k0", k0)
        put(self, "max_level", max_level)
        put(self, "_powers", {})

    def _key(self) -> tuple:
        return self.r, self.k0, self.max_level

    def __repr__(self) -> str:
        return (f"ScaleParams(r={self.r!r}, k0={self.k0!r}, "
                f"max_level={self.max_level!r})")

    @property
    def a(self) -> Fraction:
        return 1 / self.r

    def sep(self, level: int) -> Fraction:
        power = self._powers.get(level)
        if power is None:
            power = self._powers[level] = self.r**level
        return power

    @staticmethod
    def for_space(space: FiniteMetricSpace, r: Fraction,
                  max_level: Optional[int] = None) -> "ScaleParams":
        r = Fraction(r)
        k0 = compute_k0(space.diam, r)
        if max_level is None:
            max_level = full_separation_level(space, r, k0)
        if max_level < k0:
            raise ValueError(f"max_level {max_level} below base level {k0}")
        return ScaleParams(r=r, k0=k0, max_level=max_level)


def full_separation_level(space: FiniteMetricSpace, r: Fraction, k0: int) -> int:
    """Smallest level whose net necessarily contains every point: past the
    minimum positive pairwise distance, deeper levels only add radial chains."""
    min_gap = min(min(row[i + 1:]) for i, row in enumerate(space.rows[:-1]))
    level = k0
    while r**level * space.unit > min_gap:
        level += 1
    return level


def maximal_separated_net(space: FiniteMetricSpace, separation: Fraction
                          ) -> tuple[int, ...]:
    """Greedy maximal ``separation``-separated subset, swept in ascending
    point id order, so the centers come out ascending.  Deterministic and
    seed-free."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    bound = math.ceil(separation * space.unit)  # d >= separation, on ints
    centers: list[int] = []
    for p, row in enumerate(space.rows):
        if all(row[c] >= bound for c in centers):
            centers.append(p)
    return tuple(centers)


def doubling_estimate(space: FiniteMetricSpace) -> int:
    """Empirical doubling constant: the largest greedy (rho/2)-cover of any
    open ball B(z, rho), over all centers z and radii rho in the distance set.

    The greedy cover takes its centers in ascending point order.  Balls are
    bitsets over point ids: each point's int row is sorted once with prefix
    bitsets, so an open ball is one bisect, and the next center is the
    lowest point the cover has not reached yet.

    Used for sizing reports only; the construction never branches on it.
    """
    dists, prefixes = [], []
    for row in space.rows:
        order = sorted(space.points, key=row.__getitem__)
        dists.append([row[q] for q in order])
        prefixes.append(list(itertools.accumulate(
            (1 << q for q in order), int.__or__, initial=0)))

    def ball(p: int, rho: int) -> int:
        return prefixes[p][bisect_left(dists[p], rho)]

    radii = sorted({d for row in space.rows for d in row if d > 0})
    worst = 1
    for rho in radii:
        # an int distance is below rho / 2 exactly when below ceil(rho / 2)
        halves = [ball(p, (rho + 1) // 2) for p in space.points]
        for z in space.points:
            rest = ball(z, rho)
            if rest.bit_count() <= worst:  # one center per point at most
                continue
            count = 0
            while rest:
                rest &= ~halves[(rest & -rest).bit_length() - 1]
                count += 1
            worst = max(worst, count)
    return worst


# ---------------------------------------------------------------------------
# Space file format: first line n, then n rows of n exact decimal rationals.


def load_space_csv(path) -> FiniteMetricSpace:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty space file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError("line 1 must be the point count") from None
    _refuse_above_max("the space file", n, str(n))
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.replace(",", " ").split()
        if len(parts) != n:
            raise ValueError(f"row with {len(parts)} entries, expected {n}")
        rows.append([Fraction(p) for p in parts])
    return make_space(rows, kind="custom")


def save_space_csv(space: FiniteMetricSpace, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{space.n}\n")
        for row in space.dist:
            fh.write(",".join(str(x) for x in row) + "\n")
