"""Scaled certificates: every region test gives the same answer on ints
scaled by a common unit as on the Fractions."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrees.geometry import Arc, BoxRegion, LineIntervals

rationals = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=60)
positive = st.fractions(min_value=F(1, 60), max_value=F(1), max_denominator=60)
radii = st.fractions(min_value=F(0), max_value=F(1), max_denominator=60)


@st.composite
def intervals(draw):
    """Disjoint half-open intervals; a zero gap makes two of them touch."""
    x = draw(rationals)
    ivs = []
    for gap, length in draw(st.lists(st.tuples(radii, positive),
                                     min_size=1, max_size=4)):
        lo = x + (gap if ivs else 0)
        ivs.append((lo, lo + length))
        x = lo + length
    return LineIntervals(tuple(ivs))


arcs = st.builds(Arc, rationals, st.one_of(st.just(F(1)), positive))


@st.composite
def boxes(draw):
    x0, y0 = draw(rationals), draw(rationals)
    return BoxRegion(x0, x0 + draw(positive), y0, y0 + draw(positive))


points = {LineIntervals: rationals, Arc: rationals,
          BoxRegion: st.tuples(rationals, rationals)}


@st.composite
def region_cases(draw):
    """Two certificates of one geometry, a ball, and a unit that clears
    every number in them."""
    regions = draw(st.sampled_from([intervals(), arcs, boxes()]))
    a, b = draw(regions), draw(regions)
    center, radius = draw(points[type(a)]), draw(radii)
    numbers = center if isinstance(center, tuple) else (center,)
    unit = math.lcm(a.denominator(), b.denominator(), radius.denominator,
                    *(x.denominator for x in numbers))
    return a, b, center, radius, unit * draw(st.integers(1, 5))


def scale(x, unit):
    if isinstance(x, tuple):
        return tuple(scale(v, unit) for v in x)
    y = x * unit
    assert y.denominator == 1
    return y.numerator


@settings(max_examples=200, deadline=None)
@given(region_cases())
def test_scaled_region_tests_match_fractions(case):
    a, b, center, radius, unit = case
    sa, sb = a.scaled(unit), b.scaled(unit)
    assert type(sa) is type(a)
    sc, sr = scale(center, unit), scale(radius, unit)
    assert sa.contains_point(sc) == a.contains_point(center)
    assert sa.contains_ball(sc, sr) == a.contains_ball(center, radius)
    assert sa.meets_ball(sc, sr) == a.meets_ball(center, radius)
    assert sa.meets_region(sb) == a.meets_region(b)
    assert sa.contains_region(sb) == a.contains_region(b)
    assert sa.diameter() == a.diameter() * unit
    depth = a.depth(center, F(7))
    assert sa.depth(sc, 7 * unit) == (None if depth is None else depth * unit)


def prime_divisors(d: int) -> list[int]:
    """The primes dividing d, by trial division up to the square root of
    what is left of d."""
    primes, p = [], 2
    while p * p <= d:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return primes + [d] if d > 1 else primes


def test_prime_divisors():
    assert prime_divisors(1) == []
    assert prime_divisors(2 ** 5 * 3 * 59 ** 2) == [2, 3, 59]
    assert prime_divisors(97 * 89) == [89, 97]


@settings(max_examples=100, deadline=None)
@given(st.one_of(intervals(), arcs, boxes()))
def test_scaled_needs_a_clearing_unit(region):
    d = region.denominator()
    region.scaled(d)
    for p in prime_divisors(d):
        with pytest.raises(ValueError):
            region.scaled(d // p)


def test_scaled_arc_keeps_wrap_and_full_circle():
    wrap = Arc(F(5, 6), F(1, 3))  # [5/6, 7/6): crosses 0
    s = wrap.scaled(6)
    assert (s.start, s.length, s.circ) == (5, 2, 6)
    assert s.contains_point(0) and wrap.contains_point(F(0))
    assert not s.contains_point(1) and not wrap.contains_point(F(1, 6))
    full = Arc(F(1, 3), F(1)).scaled(3)
    assert full.contains_ball(1, 2) and full.meets_region(s)
    assert Arc(F(1, 3), F(1, 2)) == Arc(F(1, 3), F(1, 2), F(1))
    assert "circ" not in repr(wrap) and "circ" not in str(wrap.to_json())
