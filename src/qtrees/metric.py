"""Finite metric spaces with exact rational distances.

All distances are Fractions so that comparisons against powers of the
scale parameter r are exact; the downstream construction branches on
strict inequalities like d < r^k and floating point would make those
checks unsound.  Spaces are frozen after construction and safe to share
across workers.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "symmetry" | "diagonal" | "triangle" | "negative"
    triple: tuple[int, ...]

    def __str__(self) -> str:
        pts = ",".join(str(p) for p in self.triple)
        return f"{self.kind} violation at ({pts})"


@dataclass(frozen=True)
class MetricReport:
    ok: bool
    violation: Optional[MetricViolation] = None


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point set with an exact pairwise distance matrix.

    ``coords`` carries generator coordinates (positions on the line, the
    unit circle, or the unit square) used by covering generators to build
    geometric certificates; it is empty for file-loaded spaces.
    """

    dist: tuple[tuple[Fraction, ...], ...]
    kind: str = "custom"
    coords: tuple = ()
    label: str = ""

    @property
    def n(self) -> int:
        return len(self.dist)

    @property
    def points(self) -> range:
        return range(len(self.dist))

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def coord(self, p: int):
        """Where certificates look for point p: its generator coordinate,
        or the point id itself when the space has no coordinates."""
        return self.coords[p] if self.coords else p

    @property
    def diam(self) -> Fraction:
        return max(max(row) for row in self.dist)


def validate_metric(rows: Sequence[Sequence[Fraction]]) -> MetricReport:
    """Check symmetry, zero diagonal, nonnegativity and the triangle
    inequality; report the first violating triple if any.

    Once the matrix is symmetric, (i, j, k) and (k, j, i) test the same
    inequality, so the first violating triple in the order of
    ``itertools.permutations`` has i < k: only those triples are tested,
    in that order."""
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != n:
            return MetricReport(False, MetricViolation("shape", (i,)))
        if rows[i][i] != 0:
            return MetricReport(False, MetricViolation("diagonal", (i,)))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return MetricReport(False, MetricViolation("symmetry", (i, j)))
            if rows[i][j] < 0:
                return MetricReport(False, MetricViolation("negative", (i, j)))
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            if j == i:
                continue
            row_j, d_ij = rows[j], row_i[j]
            for k in range(i + 1, n):
                if k != j and row_i[k] > d_ij + row_j[k]:
                    return MetricReport(
                        False, MetricViolation("triangle", (i, j, k)))
    return MetricReport(True)


def make_space(
    rows: Sequence[Sequence[Fraction]],
    kind: str = "custom",
    coords: tuple = (),
    label: str = "",
    check: bool = True,
) -> FiniteMetricSpace:
    if len(rows) < 2:
        raise ValueError("metric space must contain at least two points")
    if check:
        report = validate_metric(rows)
        if not report.ok:
            raise ValueError(f"invalid metric: {report.violation}")
    frozen = tuple(tuple(Fraction(x) for x in row) for row in rows)
    return FiniteMetricSpace(dist=frozen, kind=kind, coords=coords, label=label)


# ---------------------------------------------------------------------------
# Generators


def _cantor_positions(depth: int) -> list[Fraction]:
    """Left endpoints of the 2^depth surviving triadic intervals, ascending."""
    positions = [ZERO]
    for level in range(1, depth + 1):
        step = Fraction(2, 3**level)
        positions = [p for x in positions for p in (x, x + step)]
    return sorted(positions)


def generate_space(kind: str, param: int) -> FiniteMetricSpace:
    """Build one of the test spaces: ``cantor(depth)``, ``circle(N)`` or
    ``grid(n)``.

    cantor: triadic middle-third sample with the line metric.
    circle: N equispaced points, arc metric normalized to circumference 1.
    grid:   n x n points spanning the unit square with the sup metric.
    """
    if param < 1:
        raise ValueError(f"{kind} parameter must be >= 1, got {param}")
    if kind == "cantor":
        pos = _cantor_positions(param)
        rows = [[abs(a - b) for b in pos] for a in pos]
        return make_space(rows, kind="cantor", coords=tuple(pos),
                          label=f"cantor({param})", check=False)
    if kind == "circle":
        if param < 2:
            raise ValueError("circle needs at least two points")
        pos = tuple(Fraction(i, param) for i in range(param))
        rows = []
        for i in range(param):
            row = []
            for j in range(param):
                k = abs(i - j)
                row.append(Fraction(min(k, param - k), param))
            rows.append(row)
        return make_space(rows, kind="circle", coords=pos,
                          label=f"circle({param})", check=False)
    if kind == "grid":
        if param < 2:
            raise ValueError("grid(1) is a single point; nontrivial space required")
        step = Fraction(1, param - 1)
        pos = tuple(
            (i * step, j * step) for i in range(param) for j in range(param)
        )
        rows = [
            [max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in pos] for a in pos
        ]
        return make_space(rows, kind="grid", coords=pos,
                          label=f"grid({param})", check=False)
    raise ValueError(f"unknown space kind {kind!r}")


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


@dataclass(frozen=True)
class ScaleParams:
    """Scale parameter r <= 1/6, its inverse a, the base level k0 and the
    truncation level ``max_level``.  Each power r^k is computed once and
    kept on the instance."""

    r: Fraction
    k0: int
    max_level: int
    _powers: dict[int, Fraction] = field(
        default_factory=dict, init=False, compare=False, repr=False)

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
    min_gap = min(
        space.d(i, j)
        for i in space.points
        for j in space.points
        if i < j
    )
    level = k0
    while r**level > min_gap:
        level += 1
    return level


@dataclass(frozen=True)
class Net:
    level: int
    separation: Fraction
    centers: tuple[int, ...]


def maximal_separated_net(
    space: FiniteMetricSpace,
    separation: Fraction,
    level: int = 0,
) -> Net:
    """Greedy maximal ``separation``-separated subset, swept in ascending
    point id order.  Deterministic and seed-free."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    centers: list[int] = []
    for p in space.points:
        if all(space.d(p, c) >= separation for c in centers):
            centers.append(p)
    return Net(level=level, separation=separation, centers=tuple(sorted(centers)))


def doubling_estimate(space: FiniteMetricSpace) -> int:
    """Empirical doubling constant: the largest greedy (rho/2)-cover of any
    open ball B(z, rho), over all centers z and radii rho in the distance set.

    The greedy cover takes its centers in ascending point order.  Balls are
    bitsets over point ids: each point's row is sorted once with prefix
    bitsets, so an open ball is one bisect on exact Fractions, and the next
    center is the lowest point the cover has not reached yet.

    Used for sizing reports only; the construction never branches on it.
    """
    dists, prefixes = [], []
    for p in space.points:
        order = sorted(space.points, key=space.dist[p].__getitem__)
        dists.append([space.d(p, q) for q in order])
        prefixes.append(list(itertools.accumulate(
            (1 << q for q in order), int.__or__, initial=0)))

    def ball(p: int, rho: Fraction) -> int:
        return prefixes[p][bisect_left(dists[p], rho)]

    radii = sorted({d for row in space.dist for d in row if d > 0})
    worst = 1
    for rho in radii:
        halves = [ball(p, rho / 2) for p in space.points]
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
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.replace(",", " ").split()
        if len(parts) != n:
            raise ValueError(f"row with {len(parts)} entries, expected {n}")
        rows.append([Fraction(p) for p in parts])
    return make_space(rows, kind="custom", label=str(path))


def save_space_csv(space: FiniteMetricSpace, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{space.n}\n")
        for row in space.dist:
            fh.write(",".join(str(x) for x in row) + "\n")
