import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrees.approx import build_approximation
from qtrees.coverings import build_covering
from qtrees.metric import ScaleParams, generate_space
from qtrees.pipeline import Pipeline
from qtrees.presets import PRESETS
from qtrees.reporting import CheckResult, PASS
from qtrees.trees import (
    LevelledTree,
    binary_embed,
    binary_width,
    build_color_tree,
    check_color_tree,
    export_tree,
    word_distance,
)


@pytest.fixture(scope="module")
def cantor_tree():
    s = generate_space("cantor", 4)
    sc = ScaleParams.for_space(s, F(1, 9), 4)
    g = build_approximation(s, sc)
    seq = build_covering("ultrametric", g)
    return seq, build_color_tree(seq, 0), sc


def chain_tree():
    parent = {"r": None, "a": "r", "b": "a", "c": "b"}
    level = {"r": 0, "a": 1, "b": 2, "c": 3}
    return LevelledTree(root="r", parent=parent, level=level)


def test_generation_distance_basics():
    t = chain_tree()
    assert t.generation_distance("c", "c") == 0
    assert t.generation_distance("r", "c") == 3
    siblings = LevelledTree(
        root="r", parent={"r": None, "a": "r", "b": "r"},
        level={"r": 0, "a": 1, "b": 2})
    assert siblings.generation_distance("a", "b") == 2
    assert siblings.lca("a", "b") == "r"


def test_lowest_segment_vertex_comparable_is_ancestor_end():
    t = chain_tree()
    assert t.lca("a", "c") == "a"
    assert t.lca("c", "c") == "c"


@st.composite
def random_trees(draw):
    """A random parent map on up to 12 vertices, each below an earlier one,
    with levels strictly increasing away from the root."""
    n = draw(st.integers(1, 12))
    names = draw(st.permutations([f"u{i}" for i in range(n)]))
    parent, level = {names[0]: None}, {names[0]: draw(st.integers(-3, 3))}
    for i, u in enumerate(names[1:], start=1):
        parent[u] = names[draw(st.integers(0, i - 1))]
        level[u] = level[parent[u]] + draw(st.integers(1, 3))
    return LevelledTree(root=names[0], parent=parent, level=level)


def walk(tree, u):
    """The root path of u, by following parents up to the root."""
    path = [u]
    while tree.parent[path[-1]] is not None:
        path.append(tree.parent[path[-1]])
    return path[::-1]


def walk_meet(tree, u, v):
    ancestors = set(walk(tree, u))
    while v not in ancestors:
        v = tree.parent[v]
    return v


@settings(max_examples=150, deadline=None)
@given(random_trees(), st.randoms(use_true_random=False))
def test_tree_tables_match_a_parent_walk(tree, rng):
    for u in tree.parent:
        path = walk(tree, u)
        assert tree.paths[u] == tuple(path)
        assert tree.depths[u] == len(path) - 1
        assert tree.path_levels[u] == tuple(tree.level[x] for x in path)
    pairs = list(itertools.product(tree.parent, repeat=2))
    rng.shuffle(pairs)  # the memo must not depend on the lookup order
    for u, v in pairs:
        meet = walk_meet(tree, u, v)
        distance = len(walk(tree, u)) + len(walk(tree, v)) \
            - 2 * len(walk(tree, meet))
        assert tree.generation_distance(u, v) == distance
        assert tree.meets[u, v] == tree.lca(u, v) == meet


def test_color_tree_structure(cantor_tree):
    seq, t, sc = cantor_tree
    elements = {e.uid: e for e in seq.color_elements(0)}
    # the root is the whole space; every level-1 block hangs off it
    assert t.level[t.root] == 0
    for uid in t.level_vertices(1):
        assert t.parent[uid] == t.root
    # level-2 blocks nest inside their level-1 block
    for uid in t.level_vertices(2):
        parent = t.parent[uid]
        assert t.level[parent] == 1
        assert elements[parent].region.contains_region(
            elements[uid].region)
    check = check_color_tree(seq, t, sc.k0)
    assert check.status == "pass", check.violations[:2]


def edges_not_rising(tree: LevelledTree) -> list:
    """(parent, child) of every edge whose level does not rise."""
    return sorted((p, u) for u, p in tree.parent.items()
                  if p is not None and tree.level[p] >= tree.level[u])


@pytest.mark.parametrize("preset", list(PRESETS))
def test_every_color_tree_edge_rises_in_level(preset):
    # build_color_tree takes each parent from a lower level, so the meet of
    # two incomparable vertices sits strictly below both
    trees = Pipeline(PRESETS[preset]).stage1.trees
    for tree in trees.values():
        assert edges_not_rising(tree) == []
    # and some tree has an edge to test
    assert sum(len(t.parent) for t in trees.values()) > len(trees)


def test_meet_below_both_ends_follows_from_monotone_levels(cantor_tree):
    # a tree whose incomparable pair meets at the level of one end has an
    # edge whose level does not rise, which build_color_tree never makes;
    # the structure check counts its vertices as before
    seq, t, sc = cantor_tree
    u = t.level_vertices(2)[0]
    q = next(x for x in t.level_vertices(1) if x != t.parent[u])
    bad = LevelledTree(root=t.root, parent=t.parent,
                       level={**t.level, u: 0}, color=t.color)
    assert bad.level[bad.meets[u, q]] >= min(bad.level[u], bad.level[q])
    assert edges_not_rising(t) == []
    assert edges_not_rising(bad) == [(t.parent[u], u)]
    assert check_color_tree(seq, bad, sc.k0).checked == \
        check_color_tree(seq, t, sc.k0).checked


def test_color_tree_depth_bound(cantor_tree):
    seq, ct, sc = cantor_tree
    for elem in seq.color_elements(0):
        assert ct.depths[elem.uid] <= elem.level - sc.k0


def test_single_level_tree():
    s = generate_space("cantor", 3)
    sc = ScaleParams.for_space(s, F(1, 9), 0)
    g = build_approximation(s, sc)
    seq = build_covering("ultrametric", g)
    ct = build_color_tree(seq, 0)
    assert len(ct.level) == 1


def test_word_distance():
    assert word_distance((), ()) == 0
    assert word_distance((1, 2), (1, 2, 3)) == 1
    assert word_distance((1, 2), (1, 3)) == 2
    assert word_distance("abc", "abd") == 2


def test_binary_width_and_embed():
    assert binary_width(3) == 2
    assert binary_width(9) == 4
    assert binary_width(1) == 1
    assert binary_embed((3, 1), 3) == (1, 1, 0, 1)
    assert binary_embed((), 3) == ()
    with pytest.raises(ValueError):
        binary_embed((4,), 3)


def check_binary_sandwich(n: int, max_len: int = 5) -> CheckResult:
    """lam*(D-2)+2 <= D_bin <= lam*D for all word pairs over 1..n of length
    <= max_len.

    Both distances depend only on the common-prefix length, the two suffix
    lengths, and the first differing letters; sweeping those parameters is
    exhaustive over all such pairs.
    """
    res = CheckResult(f"binary-sandwich-n{n}", PASS)
    lam = binary_width(n)

    def verify(u, v):
        D = word_distance(u, v)
        Db = word_distance(binary_embed(u, n), binary_embed(v, n))
        res.checked += 1
        if not (lam * (D - 2) + 2 <= Db <= lam * D):
            res.add_violation({"u": u, "v": v, "D": D, "Dbin": Db, "lam": lam})

    for t in range(0, max_len + 1):
        base = tuple([1] * t)
        for la in range(0, max_len - t + 1):
            for lb in range(0, max_len - t + 1):
                pad_a, pad_b = [1] * max(la - 1, 0), [1] * max(lb - 1, 0)
                if la == 0 or lb == 0:
                    # comparable pair; suffix letters do not matter
                    verify(base + tuple([1] * la), base + tuple([1] * lb))
                    continue
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        if x != y:
                            verify(base + (x, *pad_a), base + (y, *pad_b))
    return res


def test_binary_sandwich_alphabets_3_to_9():
    for n in range(3, 10):
        res = check_binary_sandwich(n, max_len=5)
        assert res.status == "pass", (n, res.violations[:1])


def test_export_tree_format(cantor_tree, tmp_path):
    _, ct, _ = cantor_tree
    path = tmp_path / "tree.txt"
    export_tree(ct, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(ct.level)
    for line in lines:
        uid, parent, level, color = line.split()
        assert int(level) >= 0 and color == "0"
