from fractions import Fraction as F

import pytest

from qtrees import coverings
from qtrees.approx import build_approximation
from qtrees.coverings import (
    GENERATORS,
    CoveringElement,
    CoveringError,
    CoveringSequence,
    build_covering,
    default_circle_blocks,
    generate_covering_sequence,
    lebesgue_number,
    load_covering_json,
    mesh,
    save_covering_json,
    validate_covering_sequence,
)
from qtrees.geometry import Arc, BoxRegion, LineInterval, PointSubset, \
    WholeSpace, open_ball, region_from_json
from qtrees.metric import ScaleParams, generate_space, load_space_csv, \
    save_space_csv
from qtrees.labelling import build_labelling, build_stage2, \
    check_binary_stage, check_net_coloring, check_sentences, stage2_suite
from qtrees.pipeline import Pipeline
from qtrees.presets import PRESETS
from qtrees.stage1 import embed_stage1, stage1_suite
from qtrees.trees import check_color_tree


def cantor_setup(depth=4, J=4):
    s = generate_space("cantor", depth)
    sc = ScaleParams.for_space(s, F(1, 9), J)
    return s, sc, build_approximation(s, sc)


def circle_setup(n=81, r=F(1, 12), J=2):
    s = generate_space("circle", n)
    sc = ScaleParams.for_space(s, r, J)
    return s, sc, build_approximation(s, sc)


def element(space, region, color=0, level=1, uid="t"):
    return CoveringElement(uid=uid, color=color, level=level, region=region)


def one_level(space, *family):
    """A hand-built sequence of one level."""
    return CoveringSequence(space=space, r=F(1, 9), colors=(0,),
                            levels={0: {0: family}})


def with_family(seq, j, c, members):
    """The sequence with the level-j family of color c replaced."""
    return CoveringSequence(seq.space, seq.r, seq.colors,
                            {**seq.levels, j: {**seq.levels[j], c: members}})


def test_mesh_basics():
    s = generate_space("cantor", 2)
    whole = element(s, WholeSpace(s.diam), uid="z")
    assert mesh([whole]) == s.diam
    a = element(s, LineInterval(F(0), F(1, 9)), uid="a")
    b = element(s, LineInterval(F(2, 3), F(2, 3) + F(1, 10)), uid="b")
    assert mesh([a, b]) == F(1, 9)
    with pytest.raises(ValueError):
        mesh([])


def test_lebesgue_whole_space_clips_to_mesh():
    s = generate_space("cantor", 2)
    whole = element(s, WholeSpace(s.diam), uid="z")
    assert lebesgue_number(one_level(s, whole), 0) == s.diam


def test_lebesgue_overlapping_arcs():
    # two half arcs overlapping by t = 1/8 on each side: every point sits at
    # least t/2 inside one of them
    s = generate_space("circle", 16)
    t = F(1, 8)
    a = element(s, Arc(F(0) - t / 2, F(1, 2) + t), uid="a")
    b = element(s, Arc(F(1, 2) - t / 2, F(1, 2) + t), uid="b")
    val = lebesgue_number(one_level(s, a, b), 0)
    assert val >= t / 2


def test_lebesgue_missing_point_errors():
    s = generate_space("cantor", 2)
    partial = element(s, LineInterval(F(0), F(1, 3)), uid="p")
    with pytest.raises(ValueError):
        lebesgue_number(one_level(s, partial), 0)


def test_cantor_preset_validates():
    s, sc, g = cantor_setup()
    seq = build_covering("ultrametric", g)
    report = validate_covering_sequence(seq, graph=g)
    assert report.status == "pass"
    for j in range(1, 5):
        assert mesh(seq.family(j)) < sc.sep(j)


def test_trivial_level_zero_only():
    s, sc, g = cantor_setup(J=0)
    seq = build_covering("ultrametric", g)
    assert validate_covering_sequence(seq, graph=g).status == "pass"


def test_covering_two_levels_short_of_its_graph_is_refused():
    # the stage-1 map of a depth-J graph reads level-(J-1) elements and the
    # level-J ball radius of the covering's kernel
    s, sc, g1 = cantor_setup(depth=3, J=1)
    seq = build_covering("ultrametric", g1)
    _, _, g2 = cantor_setup(depth=3, J=2)
    assert validate_covering_sequence(seq, graph=g2).status == "pass"
    _, _, g3 = cantor_setup(depth=3, J=3)
    with pytest.raises(ValueError,
                       match="covering reaches level 1, short of level 2 "
                             "that a graph of depth 3 needs"):
        validate_covering_sequence(seq, graph=g3)


def test_circle_preset_validates_and_one_color_fails():
    s, sc, g = circle_setup()
    seq = build_covering("shifted_arcs", g, n_colors=2)
    assert validate_covering_sequence(seq, graph=g).status == "pass"
    with pytest.raises(CoveringError):
        build_covering("shifted_arcs", g, n_colors=1)


def test_default_circle_blocks_add_up_to_the_circle_or_are_refused():
    # blocks of 4 and 5 points make every size from 12 on, and 4, 5, 8, 9
    # and 10 below it
    refused = []
    for n in range(2, 200):
        try:
            sizes = default_circle_blocks(n)
        except CoveringError as exc:
            assert str(exc) == \
                f"{n} points cannot be cut into blocks of 4 and 5 points"
            refused.append(n)
        else:
            assert sum(sizes) == n and set(sizes) <= {4, 5}
    assert refused == [2, 3, 6, 7, 11]


def test_default_circle_blocks_take_the_fewest_5s_of_an_even_cut():
    # every cut of n into a blocks of 5 and b blocks of 4: the blocks take
    # the fewest 5s among the cuts of even count, or among all cuts where
    # none is even
    odd = []
    for n in range(4, 513):
        cuts = [(a, (n - 5 * a) // 4) for a in range(n // 5 + 1)
                if (n - 5 * a) % 4 == 0]
        if not cuts:
            continue
        even = [(a, b) for a, b in cuts if (a + b) % 2 == 0]
        a, b = min(even or cuts)
        sizes = default_circle_blocks(n)
        assert sizes == [5] * a + [4] * b, n
        if not even:
            odd.append(n)
        if sum(cuts[0]) % 2 == 0:
            # the fewest 5s already made an even count: nothing moved
            assert sizes == [5] * cuts[0][0] + [4] * cuts[0][1], n
    assert odd == [4, 5, 12, 13, 14, 15, 21, 22, 23, 31]
    assert default_circle_blocks(45) == [5] * 5 + [4] * 5


def test_identical_shift_for_both_families_fails(monkeypatch):
    # same-color overlap: an even count of blocks of mostly three points
    # puts arcs of the same color closer than one ball
    s, sc, g = circle_setup()
    monkeypatch.setattr(coverings, "default_circle_blocks",
                        lambda n: [3] * 24 + [4, 5])
    with pytest.raises(CoveringError, match="'property': 3, 'color': 0"):
        build_covering("shifted_arcs", g, n_colors=2)


def test_deliberate_overlap_reported_by_validator():
    s, sc, g = circle_setup()
    seq = build_covering("shifted_arcs", g, n_colors=2)
    # clone one level-1 arc into its same-color neighbor's place
    fam0 = list(seq.levels[1][0])
    bad = CoveringElement(uid="dup", color=0, level=1,
                          region=fam0[0].region)
    seq = with_family(seq, 1, 0, tuple(fam0 + [bad]))
    report = validate_covering_sequence(seq, graph=g)
    assert report.status == "fail"
    assert any(v.get("property") in ("disjoint", 3) for v in report.violations)


def test_validator_sees_a_shift_below_every_natural_denominator():
    # the natural unit of circle(81) at r = 1/12, L2 is 5184: shrinking one
    # level-1 arc by 1/(5184*7) must still cost its last point's ball
    s, sc, g = circle_setup()
    seq = build_covering("shifted_arcs", g, n_colors=2)
    assert validate_covering_sequence(seq, graph=g).status == "pass"
    first, *rest = seq.levels[1][0]
    shrunk = Arc(first.region.start, first.region.length - F(1, 5184 * 7))
    seq = with_family(seq, 1, 0, (first._replace(region=shrunk), *rest))
    report = validate_covering_sequence(seq, graph=g)
    assert report.status == "fail"
    assert any(v.get("property") == 2 and v["level"] == 1
               for v in report.violations)


def test_a_sequence_and_its_kernel_cannot_be_edited():
    # the kernel scales the sequence's own certificates, so neither changes
    # after it is built: no field is assigned, no map is written in place
    s, sc, g = circle_setup()
    seq = build_covering("shifted_arcs", g, n_colors=2)
    first = seq.levels[1][0][0]
    with pytest.raises(TypeError):
        seq.levels[1][0] = (first,)
    with pytest.raises(TypeError):
        seq.levels[2] = seq.levels[1]
    with pytest.raises(TypeError):
        seq.kernel.regions[first.uid] = seq.kernel.regions["c0-j0-0"]
    for name, value in (("space", generate_space("circle", 81)),
                        ("levels", {}), ("kernel", None)):
        with pytest.raises(AttributeError, match=name):
            setattr(seq, name, value)
    with pytest.raises(AttributeError, match="unit"):
        seq.kernel.unit = 1


def test_an_edited_sequence_carries_its_own_kernel():
    # a sequence built from edited levels scales its own certificates: its
    # shrunk arc fails property 2, and the sequence it came from, with its
    # kernel and its stage-1 map, is as it was
    s, sc, g = circle_setup()
    seq = build_covering("shifted_arcs", g, n_colors=2)
    images = embed_stage1(g, seq).images
    first, *rest = seq.levels[1][0]
    shrunk = first._replace(region=Arc(first.region.start,
                                       first.region.length - F(1, 5184 * 7)))
    edited = with_family(seq, 1, 0, (shrunk, *rest))
    kernel = edited.kernel
    assert kernel is not seq.kernel and kernel.unit % 7 == 0
    assert kernel.regions[first.uid] == shrunk.region.scaled(kernel.unit)
    assert seq.kernel.regions[first.uid] == \
        first.region.scaled(seq.kernel.unit)
    report = validate_covering_sequence(edited, graph=g)
    assert any(v.get("property") == 2 and v["level"] == 1
               for v in report.violations)
    assert validate_covering_sequence(seq, graph=g).status == "pass"
    assert embed_stage1(g, seq).images == images


def test_kernel_refuses_what_it_cannot_scale(tmp_path):
    # a sequence whose kernel cannot scale it is refused when it is built
    s, sc, g = cantor_setup(depth=2, J=1)
    seq = build_covering("ultrametric", g)
    first = seq.levels[1][0][0]
    # one element twice: an overlap, reported
    twice = with_family(seq, 1, 0, seq.levels[1][0] + (first,))
    report = validate_covering_sequence(twice, graph=g)
    assert report.violations[0]["property"] == "disjoint"
    with pytest.raises(ValueError, match="names two certificates"):
        with_family(twice, 1, 0, twice.levels[1][0] + (
            element(s, LineInterval(F(0), F(1, 3)), uid=first.uid),))

    space_file = tmp_path / "cantor2.csv"
    save_space_csv(s, space_file)
    loaded = load_space_csv(space_file)
    with pytest.raises(ValueError, match="point-subset certificates only"):
        CoveringSequence(loaded, seq.r, seq.colors, seq.levels)


def test_grid_preset_validates():
    s = generate_space("grid", 9)
    sc = ScaleParams.for_space(s, F(1, 64), 1)
    g = build_approximation(s, sc)
    seq = build_covering("shifted_cubes", g, n_colors=3)
    assert validate_covering_sequence(seq, graph=g).status == "pass"


def test_shifted_cubes_requires_seam_alignment():
    s = generate_space("grid", 9)
    sc = ScaleParams.for_space(s, F(1, 32), 1)
    g = build_approximation(s, sc)
    with pytest.raises(CoveringError):
        build_covering("shifted_cubes", g, n_colors=3)


def test_covering_json_roundtrip(tmp_path):
    s, sc, g = cantor_setup(depth=3, J=3)
    seq = build_covering("ultrametric", g)
    path = tmp_path / "covering.json"
    save_covering_json(seq, path)
    loaded = load_covering_json(path, s)
    assert loaded.r == seq.r
    assert loaded.colors == seq.colors
    assert validate_covering_sequence(loaded, graph=g).status == "pass"
    for j in seq.levels:
        assert sorted(e.uid for e in loaded.family(j)) == \
            sorted(e.uid for e in seq.family(j))


def test_a_certificate_form_no_generator_emits_is_refused():
    # an interval certificate is one interval, and an arc is shorter than
    # the circle: a whole circle is written as the whole space
    s = generate_space("cantor", 2)
    assert region_from_json({"intervals": [["0/1", "1/3"]]}, s) == \
        LineInterval(F(0), F(1, 3))
    with pytest.raises(ValueError, match="one interval, not 2"):
        region_from_json({"intervals": [["0/1", "1/9"], ["2/9", "1/3"]]}, s)
    with pytest.raises(ValueError, match="one interval, not 0"):
        region_from_json({"intervals": []}, s)
    assert region_from_json({"arc": ["1/3", "1/2"]}, s) == \
        Arc(F(1, 3), F(1, 2))
    with pytest.raises(ValueError, match=r"arc length 1 outside \(0, 1\)"):
        region_from_json({"arc": ["1/3", "1/1"]}, s)


def test_witness_uniqueness_per_color():
    s, sc, g = cantor_setup()
    seq = build_covering("ultrametric", g)
    for j in range(0, 4):
        radius = 2 * sc.sep(j + 1)
        for v in g.net(j + 1):
            ball = open_ball(s.coords[v], radius)
            hits = [e for e in seq.family(j)
                    if e.region.contains_region(ball)]
            assert len(hits) >= 1
            for c in seq.colors:
                assert sum(1 for e in hits if e.color == c) <= 1


def test_point_subset_covering_on_a_loaded_space(tmp_path):
    # a coordinate-free space: cantor(3) saved and loaded back, covered at
    # level j by the classes of d < r^j (pairs at level 1, then singletons)
    space_file = tmp_path / "cantor3.csv"
    save_space_csv(generate_space("cantor", 3), space_file)
    s = load_space_csv(space_file)
    assert not s.coords
    sc = ScaleParams.for_space(s, F(1, 9), 3)
    g = build_approximation(s, sc)
    levels = {0: {0: (element(s, WholeSpace(s.diam), level=0,
                              uid="c0-j0-0"),)}}
    for j in range(1, 4):
        blocks = sorted({frozenset(q for q in s.points
                                   if s.d(p, q) < sc.sep(j))
                         for p in s.points}, key=min)
        levels[j] = {0: tuple(
            element(s, PointSubset(s, b), level=j, uid=f"c0-j{j}-{i}")
            for i, b in enumerate(blocks))}
    seq = CoveringSequence(space=s, r=sc.r, colors=(0,), levels=levels)
    assert validate_covering_sequence(seq, graph=g).status == "pass"
    assert PointSubset(s, {0, 1}).depth(1, F(1)) == F(4, 27)

    path = tmp_path / "covering.json"
    save_covering_json(seq, path)
    loaded = load_covering_json(path, s)
    assert validate_covering_sequence(loaded, graph=g).status == "pass"
    for j in seq.levels:
        assert [e.region for e in loaded.family(j)] == \
            [e.region for e in seq.family(j)]
    before = [lebesgue_number(seq, j) for j in seq.levels]
    after = [lebesgue_number(loaded, j) for j in loaded.levels]
    assert before == after == [reference_lebesgue(seq.family(j), s)
                               for j in seq.levels]
    assert before[1] == F(2, 27)


def as_point_sets(seq, space):
    """``seq`` on ``space``, a coordinate-free copy of its space: each
    element becomes the `PointSubset` of the sample points its certificate
    holds, and level 0 stays the whole space."""
    coords = seq.space.coords
    return CoveringSequence(space=space, r=seq.r, colors=seq.colors, levels={
        j: {c: tuple(e._replace(region=WholeSpace(space.diam)) if j == 0
                     else e._replace(region=PointSubset(space, [
                         p for p in space.points
                         if e.region.contains_point(coords[p])]))
                     for e in members)
            for c, members in family.items()}
        for j, family in seq.levels.items()})


def outcomes(checks):
    return sorted((c.check_id, c.status, c.checked) for c in checks)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_preset_on_point_sets_checks_as_the_preset(preset, tmp_path):
    # the preset's space saved and loaded back without coordinates, its
    # covering as point sets: every ball test of the covering, stage-1 and
    # stage-2 checks then runs on point-set balls, with the preset's outcomes
    pipe = Pipeline(PRESETS[preset])
    path = tmp_path / "space.csv"
    save_space_csv(pipe.space, path)
    space = load_space_csv(path)
    assert not space.coords
    scale = ScaleParams.for_space(space, pipe.scale.r, pipe.scale.max_level)
    assert scale == pipe.scale
    graph = build_approximation(space, scale)
    seq = generate_covering_sequence(as_point_sets(pipe.seq, space), graph)
    emb = embed_stage1(graph, seq)
    pair_checks, _ = stage1_suite(emb)
    stage1 = [check_color_tree(seq, emb.trees[c], scale.k0)
              for c in seq.colors] + pair_checks
    lab = build_labelling(emb)
    st2 = build_stage2(lab, pipe.stage2.kappa)
    stage2 = stage2_suite(st2)[0] + [
        check_net_coloring(graph, lab.coloring), check_sentences(lab),
        check_binary_stage(st2)]
    for name, checks in (("covering", [seq.contract]), ("stage1", stage1),
                         ("stage2", stage2)):
        assert outcomes(checks) == outcomes(pipe.checks(name)), name


def reference_lebesgue(family, space):
    """The Lebesgue number on the Fraction certificates and coordinates."""
    m = mesh(family)
    worst = None
    for z in space.points:
        coord = space.coords[z] if space.coords else z
        depths = [d for d in (e.region.depth(coord, m) for e in family)
                  if d is not None]
        val = min(max(depths), m)
        worst = val if worst is None else min(worst, val)
    return worst


PRESET_COVERINGS = [
    ("cantor", 4, F(1, 9), 4, "ultrametric", 1),
    ("circle", 81, F(1, 12), 2, "shifted_arcs", 2),
    ("grid", 9, F(1, 64), 1, "shifted_cubes", 3),
    ("grid", 5, F(1, 64), 2, "shifted_cubes", 3),
]


@pytest.mark.parametrize("kind, n, r, J, generator, colors", PRESET_COVERINGS)
def test_int_generation_keeps_the_fraction_candidates(kind, n, r, J,
                                                      generator, colors):
    # generation drops, on the kernel's ints, exactly the candidates whose
    # Fraction certificate holds no sample point; the Lebesgue numbers on
    # ints equal those on the Fractions
    s = generate_space(kind, n)
    sc = ScaleParams.for_space(s, r, J)
    g = build_approximation(s, sc)
    seq = build_covering(generator, g, n_colors=colors)
    candidates = GENERATORS[generator](s, sc, n_colors=colors)
    for j, family in candidates.levels.items():
        for c, members in family.items():
            kept = tuple(e for e in members
                         if any(map(e.region.contains_point, s.coords)))
            assert seq.levels[j][c] == kept
        assert lebesgue_number(seq, j) == \
            reference_lebesgue(seq.family(j), s)
    if generator == "shifted_cubes":  # tiles between grid points drop
        assert len(seq.kernel.regions) > sum(
            len(f) for fam in seq.levels.values() for f in fam.values())


# -- a net ball in two same-color elements is a disjointness violation ------


def loaded_cantor3_covering(tmp_path):
    """cantor(3) without coordinates at r = 1/9, L3, covered at level j by
    the classes of d < r^j."""
    space_file = tmp_path / "cantor3.csv"
    save_space_csv(generate_space("cantor", 3), space_file)
    s = load_space_csv(space_file)
    sc = ScaleParams.for_space(s, F(1, 9), 3)
    levels = {0: {0: (element(s, WholeSpace(s.diam), level=0,
                              uid="c0-j0-0"),)}}
    for j in range(1, 4):
        blocks = sorted({frozenset(q for q in s.points
                                   if s.d(p, q) < sc.sep(j))
                         for p in s.points}, key=min)
        levels[j] = {0: tuple(
            element(s, PointSubset(s, b), level=j, uid=f"c0-j{j}-{i}")
            for i, b in enumerate(blocks))}
    seq = CoveringSequence(space=s, r=sc.r, colors=(0,), levels=levels)
    return seq, build_approximation(s, sc)


def generated(kind, n, r, J, generator, colors):
    def build(tmp_path):
        s = generate_space(kind, n)
        sc = ScaleParams.for_space(s, r, J)
        g = build_approximation(s, sc)
        return build_covering(generator, g, n_colors=colors), g
    return build


BALL_TWINS = {
    "intervals": (generated("cantor", 4, F(1, 9), 4, "ultrametric", 1),
                  lambda s, x, h: LineInterval(x - h, x + h)),
    "arc": (generated("circle", 81, F(1, 12), 2, "shifted_arcs", 2),
            lambda s, x, h: Arc(x - h, 2 * h)),
    "box": (generated("grid", 9, F(1, 64), 1, "shifted_cubes", 3),
            lambda s, p, h: BoxRegion(p[0] - h, p[0] + h, p[1] - h, p[1] + h)),
    "points": (loaded_cantor3_covering,
               lambda s, v, h: PointSubset(
                   s, [q for q in s.points if s.d(v, q) < h])),
}


@pytest.mark.parametrize("form", list(BALL_TWINS))
def test_a_kernel_ball_is_the_least_certificate_of_the_ball(form, tmp_path):
    # B(p, 2 r^k) on the kernel is the interval, arc, box or point set of
    # the Fraction ball, scaled to the kernel's unit, at every level
    build, least = BALL_TWINS[form]
    seq, g = build(tmp_path)
    s, kernel = seq.space, seq.kernel
    point = (lambda v: s.coords[v]) if s.coords else (lambda v: v)
    for k in range(1, seq.max_level + 2):
        radius = 2 * g.scale.sep(k)
        for v in g.net(k):
            assert kernel.ball(k, v) == \
                least(s, point(v), radius).scaled(kernel.unit)


@pytest.mark.parametrize("form", list(BALL_TWINS))
def test_a_shared_net_ball_fails_disjointness(form, tmp_path):
    # beside a level-1 element, a same-color element that is the least
    # certificate holding one of its net balls: not a copy, yet the two meet
    build, least = BALL_TWINS[form]
    seq, g = build(tmp_path)
    assert validate_covering_sequence(seq, graph=g).status == "pass"
    s, j, kernel = seq.space, 1, seq.kernel
    radius = 2 * g.scale.sep(j + 1)
    point = (lambda v: s.coords[v]) if s.coords else (lambda v: v)
    first, v, twin = next(
        (e, v, least(s, point(v), radius))
        for e in seq.family(j) for v in g.net(j + 1)
        if kernel.regions[e.uid].contains_region(kernel.ball(j + 1, v))
        and least(s, point(v), radius) != e.region)
    assert twin.scaled(kernel.unit).contains_region(kernel.ball(j + 1, v))
    c = first.color
    seq = with_family(seq, j, c, seq.levels[j][c] + (
        element(s, twin, color=c, level=j, uid="twin"),))
    report = validate_covering_sequence(seq, graph=g)
    assert report.status == "fail"
    assert {"property": "disjoint", "level": j, "color": c,
            "pair": [first.uid, "twin"]} in report.violations
