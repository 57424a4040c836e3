from fractions import Fraction as F

import pytest

from qtrees.approx import build_approximation
from qtrees.coverings import (
    CoveringElement,
    CoveringError,
    CoveringSequence,
    generate_covering_sequence,
    lebesgue_number,
    load_covering_json,
    mesh,
    save_covering_json,
    validate_covering_sequence,
)
from qtrees.geometry import Arc, LineIntervals, PointSubset, WholeSpace
from qtrees.metric import ScaleParams, generate_space, load_space_csv, \
    save_space_csv


def cantor_setup(depth=4, J=4):
    s = generate_space("cantor", depth)
    sc = ScaleParams.for_space(s, F(1, 9), J)
    return s, sc, build_approximation(s, sc)


def circle_setup(n=81, r=F(1, 12), J=2):
    s = generate_space("circle", n)
    sc = ScaleParams.for_space(s, r, J)
    return s, sc, build_approximation(s, sc)


def element(space, region, color=0, level=1, uid="t"):
    members = tuple(
        p for p in space.points
        if region.contains_point(space.coord(p))
    )
    return CoveringElement(uid=uid, color=color, level=level, region=region,
                           members=members)


def test_mesh_basics():
    s = generate_space("cantor", 2)
    whole = element(s, WholeSpace(s.diam), uid="z")
    assert mesh([whole]) == s.diam
    a = element(s, LineIntervals(((F(0), F(1, 9)),)), uid="a")
    b = element(s, LineIntervals(((F(2, 3), F(2, 3) + F(1, 10)),)), uid="b")
    assert mesh([a, b]) == F(1, 9)
    with pytest.raises(ValueError):
        mesh([])


def test_lebesgue_whole_space_clips_to_mesh():
    s = generate_space("cantor", 2)
    whole = element(s, WholeSpace(s.diam), uid="z")
    assert lebesgue_number([whole], s) == s.diam


def test_lebesgue_overlapping_arcs():
    # two half arcs overlapping by t = 1/8 on each side: every point sits at
    # least t/2 inside one of them
    s = generate_space("circle", 16)
    t = F(1, 8)
    a = element(s, Arc(F(0) - t / 2, F(1, 2) + t), uid="a")
    b = element(s, Arc(F(1, 2) - t / 2, F(1, 2) + t), uid="b")
    val = lebesgue_number([a, b], s)
    assert val >= t / 2


def test_lebesgue_missing_point_errors():
    s = generate_space("cantor", 2)
    partial = element(s, LineIntervals(((F(0), F(1, 3)),)), uid="p")
    with pytest.raises(ValueError):
        lebesgue_number([partial], s)


def test_cantor_preset_validates():
    s, sc, g = cantor_setup()
    seq = generate_covering_sequence("ultrametric", s, sc, 4, graph=g)
    report = validate_covering_sequence(seq, graph=g)
    assert report.status == "pass"
    for j in range(1, 5):
        assert mesh(seq.family(j)) < sc.sep(j)


def test_trivial_level_zero_only():
    s, sc, g = cantor_setup(J=0)
    seq = generate_covering_sequence("ultrametric", s, sc, 0, graph=g)
    assert validate_covering_sequence(seq, graph=g).status == "pass"


def test_circle_preset_validates_and_one_color_fails():
    s, sc, g = circle_setup()
    seq = generate_covering_sequence("shifted_arcs", s, sc, 2, graph=g,
                                     n_colors=2)
    assert validate_covering_sequence(seq, graph=g).status == "pass"
    with pytest.raises(CoveringError):
        generate_covering_sequence("shifted_arcs", s, sc, 2, graph=g,
                                   n_colors=1)


def test_identical_shift_for_both_families_fails():
    # same-color overlap: blocks of one point each force adjacent arcs of
    # the same color to collide
    s, sc, g = circle_setup()
    with pytest.raises(CoveringError):
        generate_covering_sequence("shifted_arcs", s, sc, 2, graph=g,
                                   n_colors=2, blocks=[3] * 27)


def test_deliberate_overlap_reported_by_validator():
    s, sc, g = circle_setup()
    seq = generate_covering_sequence("shifted_arcs", s, sc, 2, graph=g,
                                     n_colors=2)
    # clone one level-1 arc into its same-color neighbor's place
    fam0 = list(seq.levels[1][0])
    bad = CoveringElement(uid="dup", color=0, level=1,
                          region=fam0[0].region, members=fam0[0].members)
    seq.levels[1][0] = tuple(fam0 + [bad])
    report = validate_covering_sequence(seq, graph=g)
    assert report.status == "fail"
    assert any(v.get("property") in ("disjoint", 3) for v in report.violations)


def test_grid_preset_validates():
    s = generate_space("grid", 9)
    sc = ScaleParams.for_space(s, F(1, 64), 1)
    g = build_approximation(s, sc)
    seq = generate_covering_sequence("shifted_cubes", s, sc, 1, graph=g,
                                     n_colors=3)
    assert validate_covering_sequence(seq, graph=g).status == "pass"


def test_shifted_cubes_requires_seam_alignment():
    s = generate_space("grid", 9)
    sc = ScaleParams.for_space(s, F(1, 32), 1)
    g = build_approximation(s, sc)
    with pytest.raises(CoveringError):
        generate_covering_sequence("shifted_cubes", s, sc, 1, graph=g,
                                   n_colors=3)


def test_covering_json_roundtrip(tmp_path):
    s, sc, g = cantor_setup(depth=3, J=3)
    seq = generate_covering_sequence("ultrametric", s, sc, 3, graph=g)
    path = tmp_path / "covering.json"
    save_covering_json(seq, path)
    loaded = load_covering_json(path, s)
    assert loaded.r == seq.r
    assert loaded.colors == seq.colors
    assert validate_covering_sequence(loaded, graph=g).status == "pass"
    for j in seq.levels:
        assert sorted(e.uid for e in loaded.family(j)) == \
            sorted(e.uid for e in seq.family(j))


def test_witness_uniqueness_per_color():
    s, sc, g = cantor_setup()
    seq = generate_covering_sequence("ultrametric", s, sc, 4, graph=g)
    for j in range(0, 4):
        radius = 2 * sc.sep(j + 1)
        for v in g.net(j + 1):
            hits = [e for e in seq.family(j)
                    if e.region.contains_ball(s.coords[v], radius)]
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
    before = [lebesgue_number(seq.family(j), s) for j in seq.levels]
    after = [lebesgue_number(loaded.family(j), s) for j in loaded.levels]
    assert before == after
    assert before[1] == F(2, 27)
