from fractions import Fraction as F

import pytest

from qtrees.metric import (
    ScaleParams,
    compute_k0,
    doubling_estimate,
    generate_space,
    load_space_csv,
    make_space,
    maximal_separated_net,
    save_space_csv,
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
        assert validate_metric(s.dist).ok, (kind, param)


def test_validate_metric_violations():
    tri = [[F(0), F(1), F(5)], [F(1), F(0), F(1)], [F(5), F(1), F(0)]]
    rep = validate_metric(tri)
    assert not rep.ok and rep.violation.kind == "triangle"
    asym = [[F(0), F(1)], [F(2), F(0)]]
    rep = validate_metric(asym)
    assert not rep.ok and rep.violation.kind == "symmetry"


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
    assert maximal_separated_net(s, F(1, 2)).centers == (0, 2)
    assert maximal_separated_net(s, F(3, 10)).centers == (0, 1, 2)


def test_net_separation_and_maximality():
    s = generate_space("cantor", 4)
    for k in range(0, 4):
        sep = F(1, 9) ** k
        net = maximal_separated_net(s, sep, k)
        centers = net.centers
        for i, a in enumerate(centers):
            for b in centers[i + 1:]:
                assert s.d(a, b) >= sep
        for z in s.points:
            assert min(s.d(z, c) for c in centers) < sep


def test_base_level_net_is_single_point():
    for kind, param, r in [("cantor", 4, F(1, 9)), ("circle", 81, F(1, 12))]:
        s = generate_space(kind, param)
        sc = ScaleParams.for_space(s, r)
        net = maximal_separated_net(s, sc.sep(sc.k0), sc.k0)
        assert len(net.centers) == 1


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
