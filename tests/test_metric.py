import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrees.metric import (
    FiniteMetricSpace,
    MetricViolation,
    ScaleParams,
    compute_k0,
    doubling_estimate,
    full_separation_level,
    generate_space,
    load_space_csv,
    make_space,
    maximal_separated_net,
    save_space_csv,
    scale_rows,
    validate_metric,
)


def test_cantor_depth_one_endpoints():
    s = generate_space("cantor", 1)
    assert s.n == 2
    assert s.d(0, 1) == F(2, 3)


def test_circle_two_points_antipodal():
    s = generate_space("circle", 2)
    assert s.d(0, 1) == F(1, 2)


def test_grid_one_rejected():
    with pytest.raises(ValueError):
        generate_space("grid", 1)


def test_generators_are_metric_spaces():
    for kind, param in [("cantor", 3), ("circle", 12), ("grid", 3)]:
        s = generate_space(kind, param)
        assert validate_metric(s.dist) is None, (kind, param)


def test_validate_metric_violations():
    tri = [[F(0), F(1), F(5)], [F(1), F(0), F(1)], [F(5), F(1), F(0)]]
    rep = validate_metric(tri)
    assert rep is not None and rep.kind == "triangle"
    asym = [[F(0), F(1)], [F(2), F(0)]]
    rep = validate_metric(asym)
    assert rep is not None and rep.kind == "symmetry"


def reference_validate_metric(rows):
    """The same checks, with the triangle inequality tested on every
    permutation of three points."""
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
    for i, j, k in itertools.permutations(range(n), 3):
        if rows[i][k] > rows[i][j] + rows[j][k]:
            return MetricViolation("triangle", (i, j, k))
    return None


@st.composite
def rational_matrices(draw):
    """Symmetric rational matrices with zero diagonal on up to 7 points:
    line metrics (valid), with some entries redrawn at random or planted
    far above every path around them; now and then an entry is made
    asymmetric or negative."""
    n = draw(st.integers(0, 7))
    small = st.fractions(min_value=0, max_value=2, max_denominator=6)
    pos = draw(st.lists(small, min_size=n, max_size=n))
    rows = [[abs(a - b) for b in pos] for a in pos]
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        for i, k in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            rows[i][k] = rows[k][i] = draw(small)
        for i, k in draw(st.lists(st.sampled_from(pairs), max_size=2)):
            rows[i][k] = rows[k][i] = 1 + sum(map(sum, rows))
        if draw(st.integers(0, 9)) == 0:
            i, k = draw(st.sampled_from(pairs))
            if draw(st.booleans()):
                rows[i][k] += F(1, 7)
            else:
                rows[i][k] = rows[k][i] = -1 - rows[i][k]
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_validate_metric_matches_every_permutation(rows):
    assert validate_metric(rows) == reference_validate_metric(rows)


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_int_rows_validate_like_the_fractions(rows):
    # the int rows are the Fraction rows times one unit, and validating
    # the ints reports the Fraction reference's first violation
    unit, ints = scale_rows(rows)
    assert [[F(x, unit) for x in row] for row in ints] == rows
    report = validate_metric(ints)
    assert report == reference_validate_metric(rows)
    if len(rows) < 2:
        return
    if report is None:
        space = make_space(rows)
        assert space.unit == unit and space.rows == tuple(map(tuple, ints))
        assert space.dist == tuple(map(tuple, rows))
        assert space.diam == max(map(max, rows))
    else:
        message = re.escape(str(report))
        with pytest.raises(ValueError, match=message):
            make_space(rows)


def fraction_space(kind, param):
    """Coordinates and distances of a generated space, built entry by entry
    in Fractions."""
    if kind == "cantor":
        pos = [F(0)]
        for level in range(1, param + 1):
            pos = [p for x in pos for p in (x, x + F(2, 3**level))]
        return sorted(pos), [[abs(a - b) for b in sorted(pos)]
                             for a in sorted(pos)]
    if kind == "circle":
        return ([F(i, param) for i in range(param)],
                [[F(min(abs(i - j), param - abs(i - j)), param)
                  for j in range(param)] for i in range(param)])
    step = F(1, param - 1)
    pos = [(i * step, j * step) for i in range(param) for j in range(param)]
    return pos, [[max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in pos]
                 for a in pos]


@pytest.mark.parametrize("kind, sizes", [
    ("cantor", range(1, 7)), ("circle", range(2, 30)), ("grid", range(2, 8))])
def test_generated_int_rows_match_the_fractions(kind, sizes):
    for param in sizes:
        s = generate_space(kind, param)
        coords, rows = fraction_space(kind, param)
        assert s.coords == tuple(coords)
        assert s.dist == tuple(map(tuple, rows))
        assert s.rows == tuple(tuple(x * s.unit for x in row) for row in rows)
        assert s.diam == max(map(max, rows))
        assert s.lattice(2 * s.unit) == tuple(
            tuple(2 * s.unit * x for x in c) if kind == "grid"
            else 2 * s.unit * c for c in coords)


def test_lattice_refuses_a_unit_that_does_not_clear_a_coordinate():
    s = FiniteMetricSpace(rows=((0, 1), (1, 0)), unit=1,
                          coords=(F(0), F(1, 2)))
    assert s.lattice(2) == (0, 1)
    with pytest.raises(ValueError, match="does not clear 1/2"):
        s.lattice(1)


def test_validate_metric_reports_the_first_permutation():
    # d(0, 3) is too long through 1 and through 2, and d(3, 1) through 2:
    # the first permutation in order is (0, 1, 3)
    rows = [[F(0), F(1), F(1), F(5)],
            [F(1), F(0), F(1), F(3)],
            [F(1), F(1), F(0), F(1)],
            [F(5), F(3), F(1), F(0)]]
    rep = validate_metric(rows)
    assert rep == reference_validate_metric(rows)
    assert rep == MetricViolation("triangle", (0, 1, 3))


def test_compute_k0_reference_values():
    assert compute_k0(F(1), F(1, 6)) == -1
    assert compute_k0(F(1, 2), F(1, 6)) == 0
    assert compute_k0(F(5), F(1, 6)) == -1
    # diam < r^k0 and diam >= r^(k0+1)
    for diam, r in [(F(80, 81), F(1, 9)), (F(3, 7), F(1, 8)), (F(99), F(1, 7))]:
        k0 = compute_k0(diam, r)
        assert diam < r**k0 <= r ** (k0 + 1) / r
        assert diam >= r ** (k0 + 1)


def test_compute_k0_rejects_trivial_and_large_r():
    with pytest.raises(ValueError):
        compute_k0(F(0), F(1, 9))
    with pytest.raises(ValueError):
        compute_k0(F(1), F(1, 2))


def test_scale_powers_are_computed_once_per_instance():
    a, b = ScaleParams(F(1, 9), 0, 3), ScaleParams(F(1, 9), 0, 3)
    assert a.sep(3) == F(1, 729) and a.sep(-2) == 81
    assert a.sep(3) is a.sep(3)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_greedy_net_examples():
    rows = [[F(0), F(2, 5), F(1)], [F(2, 5), F(0), F(3, 5)], [F(1), F(3, 5), F(0)]]
    s = make_space(rows)
    assert maximal_separated_net(s, F(1, 2)) == (0, 2)
    assert maximal_separated_net(s, F(3, 10)) == (0, 1, 2)


def test_full_separation_level_reaches_the_min_gap():
    # the first level with r^level <= min gap, the boundary included
    for gap, level in [(F(1, 36), 2), (F(1, 37), 3), (F(1, 35), 2)]:
        s = make_space([[F(0), gap], [gap, F(0)]])
        assert full_separation_level(s, F(1, 6), 1) == level


def test_net_separation_and_maximality():
    s = generate_space("cantor", 4)
    for k in range(0, 4):
        sep = F(1, 9) ** k
        centers = maximal_separated_net(s, sep)
        for i, a in enumerate(centers):
            for b in centers[i + 1:]:
                assert s.d(a, b) >= sep
        for z in s.points:
            assert min(s.d(z, c) for c in centers) < sep


def test_base_level_net_is_single_point():
    for kind, param, r in [("cantor", 4, F(1, 9)), ("circle", 81, F(1, 12))]:
        s = generate_space(kind, param)
        sc = ScaleParams.for_space(s, r)
        assert len(maximal_separated_net(s, sc.sep(sc.k0))) == 1


def test_doubling_estimates():
    assert doubling_estimate(generate_space("circle", 2)) == 1
    cantor = doubling_estimate(generate_space("cantor", 4))
    assert cantor == 3 and cantor <= 4
    grid = doubling_estimate(generate_space("grid", 4))
    assert grid == 9 and grid <= 16


def test_space_csv_roundtrip(tmp_path):
    s = generate_space("cantor", 2)
    path = tmp_path / "space.csv"
    save_space_csv(s, path)
    loaded = load_space_csv(path)
    assert loaded.dist == s.dist


def test_space_csv_exact_decimal_parsing(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2\n0,0.25\n0.25,0\n")
    s = load_space_csv(path)
    assert s.d(0, 1) == F(1, 4)
