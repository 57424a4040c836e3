"""The validator skips the pairs whose extents are apart, and the grid
generator finds its tiles on ints.  Both must give what the plain loops
give: the references below are the unpruned validator and the Fraction
tile arithmetic, kept as they were."""
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtrees import reporting
from qtrees.approx import build_approximation
from qtrees.coverings import GENERATORS, CoveringElement, \
    CoveringSequence, build_covering, mesh, validate_covering_sequence
from qtrees.geometry import Arc, BoxRegion, LineInterval, PointSubset, \
    WholeSpace
from qtrees.metric import ScaleParams, generate_space, make_space
from qtrees.reporting import FAIL, PASS, CheckResult


def reference_validate(seq, graph) -> CheckResult:
    """The validator with every pair tested, on the sequence's kernel."""
    scale = graph.scale
    if seq.r != scale.r:
        raise ValueError("covering scale differs from graph scale")
    space = seq.space
    result = CheckResult("covering-contract", PASS)
    levels = sorted(seq.levels)
    if levels[0] != 0 or levels != list(range(levels[-1] + 1)):
        raise ValueError(f"covering levels must be 0..J, got {levels}")
    if levels[-1] + 1 < scale.max_level:
        raise ValueError(
            f"covering reaches level {levels[-1]}, short of level "
            f"{scale.max_level - 1} that a graph of depth "
            f"{scale.max_level} needs")
    for c in seq.colors:
        fam0 = seq.levels[0].get(c, ())
        if len(fam0) != 1 or not isinstance(fam0[0].region, WholeSpace):
            result.add_violation({"property": 1, "color": c,
                                  "reason": "level 0 must be the whole space"})
    for j in levels[1:]:
        fam = seq.family(j)
        if not fam:
            result.add_violation({"property": 1, "level": j,
                                  "reason": "empty level"})
            continue
        m = mesh(fam)
        if m >= scale.sep(j):
            result.add_violation({"property": 1, "level": j, "mesh": m,
                                  "bound": scale.sep(j)})
        result.checked += 1
    kernel = seq.kernel
    coords, regions = kernel.coords, kernel.regions
    for j in levels:
        fam = [regions[e.uid] for e in seq.family(j)]
        for z in space.points:
            coord = coords[z]
            if not any(region.contains_point(coord) for region in fam):
                result.add_violation({"property": "cover", "level": j,
                                      "point": z})
        for c in seq.colors:
            colored = seq.levels[j].get(c, ())
            for i, e in enumerate(colored):
                region = regions[e.uid]
                for e2 in colored[i + 1:]:
                    if region.meets_region(regions[e2.uid]):
                        result.add_violation({
                            "property": "disjoint", "level": j, "color": c,
                            "pair": (e.uid, e2.uid)})
        result.checked += 1
    for j in levels:
        fam = [regions[e.uid] for e in seq.family(j)]
        for v in graph.net(j + 1):
            ball = kernel.ball(j + 1, v)
            if not any(region.contains_region(ball) for region in fam):
                result.add_violation({"property": 2, "level": j,
                                      "net_point": v})
            result.checked += 1
    ball_cache = {j: [(v, kernel.ball(j + 1, v)) for v in graph.net(j + 1)]
                  for j in levels}
    for c in seq.colors:
        elements = seq.color_elements(c)
        for U in elements:
            region = regions[U.uid]
            balls = [(v, ball) for v, ball in ball_cache[U.level]
                     if region.meets_region(ball)]
            for Up in elements:
                if Up is U or Up.level > U.level:
                    continue
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
                result.checked += 1
    return result


def outcome(validate, seq, graph):
    """What ``validate`` gives, every violation kept, or the error it
    raises."""
    with mock.patch.object(reporting, "MAX_VIOLATIONS_KEPT", 10**9):
        try:
            return validate(seq, graph).to_dict()
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)


def assert_same_outcome(seq, graph):
    pruned = outcome(validate_covering_sequence, seq, graph)
    assert pruned == outcome(reference_validate, seq, graph)
    return pruned


# -- random coverings ---------------------------------------------------------

# spaces at r = 1/6, the largest scale the CLI takes, so that net balls are
# wide against the point spacing and many pairs meet
R = F(1, 6)


def setup(space, max_level):
    return space, build_approximation(
        space, ScaleParams.for_space(space, R, max_level))


def loaded_space():
    """cantor(3) as a bare distance matrix, without coordinates."""
    cantor = generate_space("cantor", 3)
    return make_space(cantor.dist)


WORLDS = {
    "intervals": setup(generate_space("cantor", 3), 3),
    "arcs": setup(generate_space("circle", 12), 2),
    "boxes": setup(generate_space("grid", 4), 2),
    "points": setup(loaded_space(), 3),
}
DENOMINATOR = 6**4
# coordinates a little past the sampled range on both sides
coordinates = st.integers(-DENOMINATOR // 4, 5 * DENOMINATOR // 4).map(
    lambda k: F(k, DENOMINATOR))
widths = st.integers(1, DENOMINATOR // 2).map(lambda k: F(k, DENOMINATOR))


@st.composite
def regions(draw, world):
    """A certificate of the world's form; whole spaces and, on the circle,
    wrapping arcs and arcs one step short of the circle among them.  The
    pool a covering draws from leaves gaps between its elements."""
    space = WORLDS[world][0]
    if draw(st.integers(0, 9)) == 0:
        return WholeSpace(space.diam)
    if world == "intervals":
        lo = draw(coordinates)
        return LineInterval(lo, lo + draw(widths))
    if world == "arcs":
        start = draw(st.integers(0, DENOMINATOR - 1))
        length = draw(st.one_of(widths, st.just(1 - F(1, DENOMINATOR)),
                                st.integers(1, DENOMINATOR - 1).map(
                                    lambda k: F(k, DENOMINATOR))))
        return Arc(F(start, DENOMINATOR), length)
    if world == "boxes":
        x0, y0 = draw(coordinates), draw(coordinates)
        return BoxRegion(x0, x0 + draw(widths), y0, y0 + draw(widths))
    return PointSubset(space, draw(st.sets(st.sampled_from(space.points),
                                           min_size=1)))


@st.composite
def coverings(draw, world):
    """A sequence of levels 0..J of the world's graph depth, drawn from a
    pool of certificates: one id may stand in several families and twice
    in one, and level 0 is the whole space unless drawn otherwise."""
    space, graph = WORLDS[world]
    colors = tuple(range(draw(st.integers(1, 2))))
    pool = draw(st.lists(regions(world), min_size=1, max_size=8))
    top = graph.scale.max_level - draw(st.integers(0, 1))
    levels = {}
    for j in range(top + 1):
        levels[j] = {}
        for c in colors:
            if j == 0 and draw(st.integers(0, 5)):
                picks = [("whole", WholeSpace(space.diam))]
            else:
                picks = [(f"u{k}", pool[k]) for k in draw(st.lists(
                    st.integers(0, len(pool) - 1), max_size=6))]
            levels[j][c] = tuple(
                CoveringElement(uid=uid, color=c, level=j, region=region)
                for uid, region in picks)
    return CoveringSequence(space=space, r=R, colors=colors, levels=levels)


@pytest.mark.parametrize("world", list(WORLDS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_coverings_validate_as_with_every_pair(world, data):
    seq = data.draw(coverings(world))
    assert_same_outcome(seq, WORLDS[world][1])


def test_random_coverings_break_disjointness_and_separation():
    # the drawn coverings fail both pair loops; a wrapping arc and the
    # whole space have no extent, and no arc is the whole circle
    assert Arc(F(5, 6), F(1, 3)).extent() is None
    assert Arc(F(1, 6), F(5, 6)).extent() == ((F(1, 6), F(1)),)
    with pytest.raises(ValueError):
        Arc(F(0), F(1))
    assert Arc(F(2, 3), F(1, 3)).extent() == ((F(2, 3), F(1)),)
    assert WholeSpace(F(1)).extent() is None
    seen = set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def collect(data):
        world = data.draw(st.sampled_from(sorted(WORLDS)))
        seq = data.draw(coverings(world))
        found = assert_same_outcome(seq, WORLDS[world][1])
        if isinstance(found, dict):
            seen.add(found["status"])
            seen.update(v["property"] for v in found["violations"])

    collect()
    assert {FAIL, "disjoint", 3} <= seen


def test_a_ball_wrapping_past_zero_meets_an_arc_below_one():
    # W wraps past 0 and meets the level-2 ball around point 0, which
    # reaches back below 1 into the arc U' = [35/36, 1); on the line the
    # two would look apart
    space, graph = WORLDS["arcs"]
    whole = CoveringElement("whole", 0, 0, WholeSpace(space.diam))
    wrap = CoveringElement("W", 0, 1, Arc(F(11, 12), F(1, 6)))
    below = CoveringElement("U'", 0, 1, Arc(F(35, 36), F(1, 36)))
    seq = CoveringSequence(space=space, r=R, colors=(0,),
                           levels={0: {0: (whole,)}, 1: {0: (wrap, below)}})
    found = assert_same_outcome(seq, graph)
    assert {"property": 3, "color": 0, "pair": ["W", "U'"], "ball": 0} in \
        found["violations"]


# -- doctored generated coverings ---------------------------------------------

GENERATED = {
    "cantor": ("cantor", 4, F(1, 9), 4, "ultrametric", 1),
    "circle": ("circle", 81, F(1, 12), 2, "shifted_arcs", 2),
    "grid": ("grid", 9, F(1, 64), 1, "shifted_cubes", 3),
    "grid-L2": ("grid", 5, F(1, 64), 2, "shifted_cubes", 3),
}


def generated(name):
    kind, n, r, level, generator, colors = GENERATED[name]
    space = generate_space(kind, n)
    graph = build_approximation(space,
                                ScaleParams.for_space(space, r, level))
    return build_covering(generator, graph, n_colors=colors), graph


BUILT = {name: generated(name) for name in GENERATED}


def shifted(region, dx):
    if isinstance(region, LineInterval):
        return LineInterval(region.lo + dx, region.hi + dx)
    if isinstance(region, Arc):
        return Arc(region.start + dx, region.length)
    if isinstance(region, BoxRegion):
        return BoxRegion(region.x0 + dx, region.x1 + dx, region.y0 - dx,
                         region.y1 - dx)
    return region


@pytest.mark.parametrize("name", list(GENERATED))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_doctored_coverings_validate_as_with_every_pair(name, data):
    # an element moves by a fraction of its level's scale, and may take
    # another color; the seams the generators keep then break
    seq, graph = BUILT[name]
    j = data.draw(st.integers(1, seq.max_level))
    family = seq.family(j)
    e = family[data.draw(st.integers(0, len(family) - 1))]
    dx = graph.scale.sep(j) * F(data.draw(st.integers(-8, 8)), 16)
    c = data.draw(st.sampled_from(seq.colors))
    moved = CoveringElement(uid="moved", color=c, level=j,
                            region=shifted(e.region, dx))
    levels = {k: dict(fam) for k, fam in seq.levels.items()}
    levels[j][c] = levels[j][c] + (moved,)
    doctored = CoveringSequence(seq.space, seq.r, seq.colors, levels)
    assert_same_outcome(doctored, graph)


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_coverings_validate_as_with_every_pair(name):
    seq, graph = BUILT[name]
    assert assert_same_outcome(seq, graph)["status"] == PASS


@pytest.mark.parametrize("argv", [
    ("circle", 121, F(1, 12), None, 2), ("circle", 243, F(1, 12), None, 2),
    ("circle", 81, F(1, 12), 2, 1), ("cantor", 7, F(1, 8), None, 1)])
def test_failing_generated_coverings_validate_as_with_every_pair(argv):
    # the triadic blocks fit the mesh at every r; at r = 1/8 the net balls
    # of the next level do not fit them (property 2)
    kind, n, r, level, colors = argv
    space = generate_space(kind, n)
    graph = build_approximation(space, ScaleParams.for_space(space, r, level))
    generator = {"circle": "shifted_arcs", "cantor": "ultrametric"}[kind]
    candidates = GENERATORS[generator](space, graph.scale, n_colors=colors)
    assert assert_same_outcome(candidates, graph)["status"] == FAIL


# -- the grid tiles -----------------------------------------------------------


def reference_tiles(space, scale, n_colors=3):
    """The shifted-cube candidates of each level >= 1, on the Fractions."""
    colors = tuple(range(n_colors))
    levels = {}
    for j in range(1, scale.max_level + 1):
        side = scale.sep(j) / 2
        g = 2 * scale.sep(j + 1)
        fam = {c: [] for c in colors}
        seen = set()
        for p in space.points:
            x, y = space.coords[p]
            for c in colors:
                off = F(c, 3) * side
                mx = (x - off) // side
                my = (y - off) // side
                key = (c, mx, my)
                if key in seen:
                    continue
                region = BoxRegion(off + mx * side + g,
                                   off + (mx + 1) * side - g,
                                   off + my * side + g,
                                   off + (my + 1) * side - g)
                fam[c].append(CoveringElement(
                    uid=f"c{c}-j{j}-{len(seen)}", color=c, level=j,
                    region=region))
                seen.add(key)
        levels[j] = {c: tuple(v) for c, v in fam.items()}
    return levels


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("n", range(3, 14))
def test_int_tiles_are_the_fraction_tiles(n, level):
    space = generate_space("grid", n)
    scale = ScaleParams.for_space(space, F(1, 64), level)
    seq = GENERATORS["shifted_cubes"](space, scale)
    reference = reference_tiles(space, scale)
    assert {j: seq.levels[j] for j in reference} == reference
    for e in seq.elements[len(seq.colors):]:
        bounds = (e.region.x0, e.region.x1, e.region.y0, e.region.y1)
        assert all(type(b) is F for b in bounds), e.uid
