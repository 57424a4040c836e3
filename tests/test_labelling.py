from fractions import Fraction as F

import pytest

from qtrees.approx import build_approximation
from qtrees.coverings import generate_covering_sequence
from qtrees.diary import is_stop
from qtrees.labelling import (
    build_labelling,
    build_stage2,
    check_binary_stage,
    check_critical_letters,
    check_net_coloring,
    check_sentences,
    color_nets,
    embedding_dump,
    min_kappa,
    sigma_lower,
    stage2_suite,
)
from qtrees.metric import ScaleParams, generate_space
from qtrees.morse_thue import mt_bit
from qtrees.reporting import PASS, CheckResult
from qtrees.stage1 import embed_stage1


@pytest.fixture(scope="module")
def cantor_lab():
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 4)
    g = build_approximation(s, sc)
    seq = generate_covering_sequence("ultrametric", s, sc, 4, graph=g)
    return build_labelling(embed_stage1(g, seq))


@pytest.fixture(scope="module")
def circle_lab():
    s = generate_space("circle", 81)
    sc = ScaleParams.for_space(s, F(1, 12), 2)
    g = build_approximation(s, sc)
    seq = generate_covering_sequence("shifted_arcs", s, sc, 2, graph=g,
                                     n_colors=2)
    return build_labelling(embed_stage1(g, seq))


def test_coloring_conflict_property(cantor_lab):
    check = check_net_coloring(cantor_lab.graph, cantor_lab.coloring)
    assert check.status == "pass", check.violations[:2]


def test_coloring_extremes():
    # all level-2 points conflict (bound 2 r^0 exceeds the diameter), so
    # every point gets its own palette color
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 2)
    g = build_approximation(s, sc)
    coloring = color_nets(g)
    assert len(set(coloring.mu[2].values())) == 16
    assert coloring.palette_size >= 16


def test_cantor_edge_word_fixture(cantor_lab):
    lab = cantor_lab
    tree = lab.stage1.trees[0]
    uid = tree.level_vertices(2)[0]  # the level-2 block around the origin
    word = lab.edge_word(0, uid)
    assert word == ((frozenset({0}), mt_bit(2)),)
    sent = lab.sentence_of(0, uid)
    assert sent == (
        (frozenset({0, 1}), 1), ("s", 1),
        (frozenset({0}), 1), ("s", 1),
    )


def test_edge_word_decoration_bits(cantor_lab):
    lab = cantor_lab
    for c in lab.stage1.colors:
        tree = lab.stage1.trees[c]
        for uid in tree.tree.vertices():
            if uid == tree.tree.root:
                continue
            child = tree.elements[uid]
            parent = tree.elements[tree.tree.parent[uid]]
            word = lab.edge_word(c, uid)
            assert len(word) == child.level - parent.level >= 1
            for offset, (letters, bit) in enumerate(word):
                assert bit == mt_bit(parent.level + 1 + offset)
                assert letters  # nonempty palette subsets only


def test_sentences_structure(cantor_lab, circle_lab):
    for lab in (cantor_lab, circle_lab):
        check = check_sentences(lab)
        assert check.status == "pass", check.violations[:2]
        # root sentence is empty; depth-1 vertices have one word
        for c in lab.stage1.colors:
            tree = lab.stage1.trees[c]
            assert lab.sentence_of(c, tree.tree.root) == ()
            for uid in tree.tree.children[tree.tree.root]:
                sent = lab.sentence_of(c, uid)
                assert sum(1 for t in sent if is_stop(t)) == 1


def test_kappa_guard(cantor_lab):
    with pytest.raises(ValueError):
        build_stage2(cantor_lab, kappa=3)
    st2 = build_stage2(cantor_lab, kappa=3, research_kappa=True)
    assert st2.kappa == 3
    assert min_kappa(1) == 16 and min_kappa(2) == 31


def test_sigma_lower_values():
    assert sigma_lower(1) == 20
    assert sigma_lower(2) == 69


def test_stage2_radial_isometry_and_eta_root(cantor_lab):
    st2 = build_stage2(cantor_lab, kappa=16)
    emb = st2.stage1
    g = emb.graph
    assert st2.diary_of(0, g.root) == ()
    for v in g.vertices:
        for c in st2.colors:
            uid = emb.image(c, v)
            assert len(st2.diary_of(c, v)) == emb.trees[c].tree.depth(uid)
            assert st2.page_distance(c, v, v) == 0


def test_stage2_suites_pass(cantor_lab, circle_lab):
    for lab, kappa in ((cantor_lab, 16), (circle_lab, 31)):
        st2 = build_stage2(lab, kappa=kappa)
        checks, fits = stage2_suite(st2)
        for check in checks:
            assert check.ok, (check.check_id, check.violations[:1])
        assert fits["upperWorst"] <= 2 * len(st2.colors)
        binary = check_binary_stage(st2)
        assert binary.status == "pass", binary.violations[:1]


def test_critical_letters_inconclusive_without_pairs():
    # a two-level graph has no horizontally distinct pairs deep enough
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 1)
    g = build_approximation(s, sc)
    seq = generate_covering_sequence("ultrametric", s, sc, 1, graph=g)
    lab = build_labelling(embed_stage1(g, seq))
    st2 = build_stage2(lab, kappa=16)
    res = check_critical_letters(st2)
    assert res.status in ("pass", "inconclusive")


def test_vacuous_pass_is_reported_inconclusive():
    # the two-level graph of the test above: neither stage-2 check finds an
    # instance, and the one rule in CheckResult reports both inconclusive
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 1)
    g = build_approximation(s, sc)
    seq = generate_covering_sequence("ultrametric", s, sc, 1, graph=g)
    st2 = build_stage2(build_labelling(embed_stage1(g, seq)), kappa=16)
    for res in (check_critical_letters(st2), check_binary_stage(st2)):
        assert (res.status, res.checked) == ("pass", 0), res.check_id
        assert res.to_dict()["status"] == "inconclusive", res.check_id
    assert check_critical_letters(st2).notes == "no qualifying pairs"
    assert CheckResult("none", PASS).to_dict()["status"] == "inconclusive"
    assert CheckResult("one", PASS, checked=1).to_dict()["status"] == "pass"
    failed = CheckResult("failed", PASS)
    failed.add_violation({"reason": "before any instance"})
    assert failed.to_dict()["status"] == "fail"


def test_embedding_dump_shape(cantor_lab):
    st2 = build_stage2(cantor_lab, kappa=16)
    dump = embedding_dump(st2)
    assert dump["kappa"] == 16
    assert len(dump["vertices"]) == len(cantor_lab.graph.vertices)
    sample = next(iter(dump["vertices"].values()))
    assert "pages" in sample["0"] and "binary" in sample["0"]


def test_conflict_coloring_basics():
    # two points closer than the conflict bound need two palette colors;
    # a lone point needs one
    from qtrees.metric import make_space

    rows = [[F(0), F(1, 2)], [F(1, 2), F(0)]]
    s = make_space(rows)
    sc = ScaleParams.for_space(s, F(1, 6), 1)
    g = build_approximation(s, sc)
    coloring = color_nets(g)
    assert len(set(coloring.mu[sc.k0].values())) == 1
    level1 = coloring.mu[1]
    # d = 1/2 < 2 r^(-1) = 12: conflict
    assert len(set(level1.values())) == len(level1)


def test_critical_letters_op(circle_lab):
    from qtrees.labelling import critical_letters
    from qtrees.stage1 import DISTINCT, classify_pair
    import itertools

    lab = circle_lab
    g = lab.graph
    found = False
    for v, w in itertools.combinations(g.vertices, 2):
        pc = classify_pair(g, v, w)
        if pc.kind != DISTINCT or pc.critical_level < 1:
            continue
        l = pc.critical_level
        for c in lab.stage1.colors:
            tree = lab.stage1.trees[c]
            ua = next((u for u in tree.tree.vertices()
                       if tree.elements[u].level >= l + 1 and
                       tree.elements[u].region.contains_point(
                           g.space.coords[v.center])), None)
            ub = next((u for u in tree.tree.vertices()
                       if tree.elements[u].level >= l + 1 and
                       tree.elements[u].region.contains_point(
                           g.space.coords[w.center])), None)
            if ua and ub and ua != ub:
                a, m, b, mp = critical_letters(lab, c, ua, ub, l)
                assert a != b and abs(m - mp) <= 2
                found = True
        if found:
            break
    assert found


def test_critical_letters_precondition(circle_lab):
    from qtrees.labelling import critical_letters

    lab = circle_lab
    tree = lab.stage1.trees[0]
    root = tree.tree.root
    with pytest.raises(ValueError):
        critical_letters(lab, 0, root, root, 1)
