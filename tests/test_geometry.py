"""Scaled certificates: every region test gives the same answer on ints
scaled by a common unit as on the Fractions.  A net ball is a
certificate: the region tests against `open_ball`, and against the point
set of a ball on a space without coordinates, answer as the ball tests
below, which each certificate class carried before, answer."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrees.geometry import Arc, BoxRegion, LineInterval, PointSubset, \
    WholeSpace, open_ball
from qtrees.metric import generate_space, make_space

rationals = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=60)
positive = st.fractions(min_value=F(1, 60), max_value=F(1), max_denominator=60)
# a ball radius is positive, and a ball on the unit circle is shorter than
# it; every radius the program takes, 2 r^k <= 1/3, is among these
radii = st.fractions(min_value=F(1, 60), max_value=F(29, 60),
                     max_denominator=60)
# an arc is shorter than the unit circle
arc_lengths = st.fractions(min_value=F(1, 60), max_value=F(59, 60),
                           max_denominator=60)


@st.composite
def intervals(draw):
    """A half-open interval."""
    lo = draw(rationals)
    return LineInterval(lo, lo + draw(positive))


arcs = st.builds(Arc, rationals, arc_lengths)


@st.composite
def boxes(draw):
    x0, y0 = draw(rationals), draw(rationals)
    return BoxRegion(x0, x0 + draw(positive), y0, y0 + draw(positive))


points = {LineInterval: rationals, Arc: rationals,
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


def ball_of(region, center, radius):
    """The open ball B(center, radius) of the region's space."""
    return open_ball(center, radius,
                     region.circ if isinstance(region, Arc) else None)


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
    ball, sball = ball_of(a, center, radius), ball_of(sa, sc, sr)
    assert sball == ball.scaled(unit)
    assert sa.contains_region(sball) == a.contains_region(ball)
    assert sa.meets_region(sball) == a.meets_region(ball)
    assert sa.meets_region(sb) == a.meets_region(b)
    assert sa.contains_region(sb) == a.contains_region(b)
    assert sa.diameter() == a.diameter() * unit
    depth = a.depth(center, F(7))
    assert sa.depth(sc, 7 * unit) == (None if depth is None else depth * unit)


def apart(a, b) -> bool:
    return any(hi <= lo2 or hi2 <= lo for (lo, hi), (lo2, hi2) in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(region_cases())
def test_what_lies_apart_from_an_extent_misses_the_region(case):
    # the covering validator skips the pairs this makes safe: a region
    # lies in its extent, so a ball or a region apart from it misses it;
    # a ball's extent is its center plus or minus its radius on each axis
    a, b, center, radius, _ = case
    extent = a.extent()
    if extent is None:
        assert isinstance(a, Arc) and a.start + a.length > 1
        return
    if b.extent() is not None and apart(extent, b.extent()):
        assert not a.meets_region(b) and not b.meets_region(a)
    coords = center if isinstance(center, tuple) else (center,)
    hull = tuple((x - radius, x + radius) for x in coords)
    ball = ball_of(a, center, radius)
    if isinstance(a, Arc) and not (0 <= hull[0][0] and hull[0][1] <= 1):
        # the ball wraps past 0 or 1, or the center is off the circle
        assert ball.extent() is None or not 0 <= center < 1
        return
    assert ball.extent() == hull
    if apart(extent, hull):
        assert not a.meets_region(ball)
        assert not a.contains_region(ball)
    if a.contains_point(center) and (not isinstance(a, Arc) or
                                     0 <= center < 1):
        assert all(lo <= x < hi for (lo, hi), x in zip(extent, coords))


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


def test_scaled_arc_keeps_its_wrap_and_no_arc_is_the_whole_circle():
    wrap = Arc(F(5, 6), F(1, 3))  # [5/6, 7/6): crosses 0
    s = wrap.scaled(6)
    assert (s.start, s.length, s.circ) == (5, 2, 6)
    assert s.contains_point(0) and wrap.contains_point(F(0))
    assert not s.contains_point(1) and not wrap.contains_point(F(1, 6))
    # the whole circle is the whole space, at every scale
    for args in ((F(1, 3), F(1)), (1, 3, 3), (F(0), F(2))):
        with pytest.raises(ValueError, match="outside"):
            Arc(*args)
    longest = Arc(F(1, 3), F(5, 6)).scaled(6)
    assert longest.contains_region(open_ball(5, 2, 6))
    assert not longest.contains_region(open_ball(1, 1, 6))
    assert longest.meets_region(s) and longest.extent() is None
    assert Arc(F(1, 3), F(1, 2)) == Arc(F(1, 3), F(1, 2), F(1))
    assert "circ" not in repr(wrap) and "circ" not in str(wrap.to_json())


# -- the ball tests, as each certificate class carried them ------------------


def contains_ball(region, center, radius) -> bool:
    """Does the open ball B(center, radius) lie inside the region?"""
    if isinstance(region, WholeSpace):
        return True
    if isinstance(region, LineInterval):
        # open (c-h, c+h) inside [lo, hi) iff lo <= c-h and c+h <= hi
        return region.lo <= center - radius and center + radius <= region.hi
    if isinstance(region, Arc):
        # lift the open ball (center-radius, center+radius) relative to start
        if 2 * radius > region.length:
            return False
        offset = (center - radius - region.start) % region.circ
        return offset + 2 * radius <= region.length
    if isinstance(region, BoxRegion):
        x, y = center
        return (region.x0 <= x - radius and x + radius <= region.x1
                and region.y0 <= y - radius and y + radius <= region.y1)
    return all(q in region.members for q in region.space.points
               if region._d(center, q) < radius)


def meets_ball(region, center, radius) -> bool:
    """Does the open ball B(center, radius) intersect the region?"""
    if isinstance(region, WholeSpace):
        return True
    if isinstance(region, LineInterval):
        return region.lo < center + radius and center - radius < region.hi
    if isinstance(region, Arc):
        offset = (center - radius - region.start) % region.circ
        if offset < region.length:
            return True
        # ball may wrap past the circumference back into the arc
        return offset + 2 * radius > region.circ
    if isinstance(region, BoxRegion):
        x, y = center
        return (region.x0 < x + radius and x - radius < region.x1
                and region.y0 < y + radius and y - radius < region.y1)
    return any(region._d(center, q) < radius for q in region.members)


# cantor(3) as a bare distance matrix: a space without coordinates
LOADED = make_space(generate_space("cantor", 3).dist)


def point_ball(space, center, radius, factor):
    """The open ball B(center, radius) of a space without coordinates, its
    distances read as the space's ints times ``factor``."""
    return PointSubset(space, [q for q in space.points
                               if space.rows[center][q] * factor < radius],
                       factor)


def edges(region):
    """Per axis, the ends of the region: where a ball that touches it or
    fits it exactly ends."""
    if isinstance(region, LineInterval):
        return ((region.lo, region.hi),)
    if isinstance(region, Arc):
        return ((region.start, region.start + region.length),)
    if isinstance(region, BoxRegion):
        return (region.x0, region.x1), (region.y0, region.y1)
    return ((F(0), F(1)),)


@st.composite
def ball_cases(draw):
    """A certificate, the center and radius of a ball of its space, and a
    unit that clears every number in them.  Arcs start anywhere on the
    circle, so some wrap past 0, and centers and radii are drawn so that
    some balls wrap too.  On each axis the center is drawn at random or
    one radius from an end of the region, so that some balls touch the
    region from outside or fit it exactly.  Point sets lie on a space
    without coordinates."""
    form = draw(st.sampled_from(["interval", "arc", "box", "points",
                                 "whole"]))
    radius = draw(radii)
    if form == "points":
        members = draw(st.sets(st.sampled_from(LOADED.points), min_size=1))
        center = draw(st.sampled_from(LOADED.points))
        region = PointSubset(LOADED, members)
        return region, center, radius, LOADED.unit * radius.denominator
    region = draw({"interval": intervals(), "arc": arcs, "box": boxes(),
                   "whole": st.just(WholeSpace(F(1)))}[form])
    center = tuple(draw(st.one_of(rationals, st.sampled_from(
        [end + side * radius for end in ends for side in (-1, 1)])))
        for ends in edges(region))
    if form == "arc":
        center = center[0] % 1
    elif form != "box":
        center, = center
    numbers = center if isinstance(center, tuple) else (center,)
    unit = math.lcm(region.denominator(), radius.denominator,
                    *(x.denominator for x in numbers))
    return region, center, radius, unit * draw(st.integers(1, 5))


@settings(max_examples=400, deadline=None)
@example((Arc(F(5, 6), F(1, 3)), F(1, 60), F(1, 30), 60))  # both wrap
@example((Arc(F(5, 6), F(1, 3)), F(0), F(1, 6), 6))  # the ball is the arc
@given(ball_cases())
def test_region_tests_on_the_ball_certificate_are_the_ball_tests(case):
    region, center, radius, unit = case
    scaled = region.scaled(unit)
    if isinstance(region, PointSubset):
        ball = point_ball(LOADED, center, radius, region.factor)
        sball = point_ball(LOADED, center, radius * unit, scaled.factor)
        sc, sr = center, radius * unit
        assert sr.denominator == 1
    else:
        ball = ball_of(region, center, radius)
        sc, sr = scale(center, unit), scale(radius, unit)
        sball = ball_of(scaled, sc, sr)
        assert sball == ball.scaled(unit)
    for a, b, c, h in ((region, ball, center, radius),
                       (scaled, sball, sc, sr)):
        assert a.contains_region(b) == contains_ball(a, c, h)
        assert a.meets_region(b) == meets_ball(a, c, h)
    assert contains_ball(scaled, sc, sr) == contains_ball(region, center,
                                                          radius)
    assert meets_ball(scaled, sc, sr) == meets_ball(region, center, radius)
