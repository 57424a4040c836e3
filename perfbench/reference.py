"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/reference.py

It imports nothing from qtrees and never changes, so its time moves only
with the host.  ``perfbench/run.py`` runs it between rounds, and divides
every sample's wall time by the reference time around it; the work is the
same mix qtrees spends its time on: exact rational arithmetic and
comparisons, tuples, dicts and sets in pure Python.  Prints a checksum.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

POINTS = 200
THRESHOLDS = (Fraction(1, 9), Fraction(1, 3), Fraction(2, 3))


def main() -> None:
    points = [Fraction(i * i % 97, 97) + Fraction(i, 7) for i in range(POINTS)]
    close: dict = {}
    seen = set()
    total = Fraction(0)
    for a, b in itertools.combinations(range(POINTS), 2):
        d = abs(points[a] - points[b])
        level = sum(d < t for t in THRESHOLDS)
        close.setdefault((level, a % 7), []).append((a, b))
        seen.add(d.denominator)
        total += d / (1 + level)
    print(len(close), len(seen), total.numerator % 1_000_003)


if __name__ == "__main__":
    main()
