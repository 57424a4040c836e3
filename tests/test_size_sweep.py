"""The size-sweep gate: generated spaces across the sizes and scales the
generators take, each run in-process as ``embed run`` runs it.  A run
either exits 0 with no failing check, or exits 2 with one ``error: [stage]``
line: a covering that validates is never followed by a failing check.
A space above ``MAX_POINTS`` points is refused where it is built, and a
config of more than ``MAX_LEVELS`` levels below its base level where its
scale is set."""
import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest

from qtrees.cli import main
from qtrees.metric import MAX_LEVELS, MAX_POINTS
from qtrees.pipeline import Pipeline, StageError
from qtrees.presets import PRESETS, PipelineConfig, config_for
from qtrees.trees import word_distance
from test_pair_table import GRAPH_LEMMAS

# the configs that run through every stage, and those that stop at the
# covering
PASSING = [
    *(["--space", "cantor", "--depth", str(d)] for d in range(3, 7)),
    *(["--space", "cantor", "--depth", str(d), "--r", r]
      for r in ("1/27", "1/81") for d in (4, 6)),
    *(["--space", "grid", "--n", str(n), "--max-level", "2"]
      for n in (3, 5, 7, 9)),
    # 76 points take an even cut, four blocks of 5 and fourteen of 4
    *(["--space", "circle", "--n", str(n)] for n in (76, 81)),
]
# the circle sizes that no run of blocks of 4 and 5 points adds up to, and
# those that such blocks cut only into an odd count
UNCUT = (2, 3, 6, 7, 11)
ODD_CUT = (4, 5, 12, 13, 14, 15, 21, 22, 23, 31)
SWEEP = [
    *PASSING,
    *(["--space", "circle", "--n", str(n)]
      for n in (41, 45, 121, 161, 243, *UNCUT)),
]


def run(argv, capsys):
    """(exit code, report or None, stderr lines) of ``embed run``."""
    code = main(["run", *argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err.splitlines()


def failing_checks(report) -> set:
    return {check["id"] for suite in report["suites"].values()
            for check in suite["results"] if check["status"] == "fail"}


def assert_passes_or_stops_at_a_named_stage(code, report, err):
    if code == 0:
        assert report["ok"] and not failing_checks(report) and not err
    else:
        assert code == 2 and report is None, (code, err)
        assert len(err) == 1 and re.match(r"error: \[\w+\] \S", err[0]), err


@pytest.mark.parametrize("argv", SWEEP, ids=" ".join)
def test_a_generated_space_passes_or_stops_at_a_named_stage(argv, capsys):
    assert_passes_or_stops_at_a_named_stage(*run(argv, capsys))


def test_the_sweep_pins_its_new_passes_and_its_covering_failures(capsys):
    # the triadic blocks fit r = 1/27 and 1/81, and the circle generator
    # still fails past its own sizes, at the covering stage
    outcomes = {" ".join(argv): run(argv, capsys)[::2] for argv in (
        PASSING[4], PASSING[7], ["--space", "circle", "--n", "45"],
        ["--space", "circle", "--n", "161"],
        ["--space", "circle", "--n", "243"])}
    assert outcomes == {
        "--space cantor --depth 4 --r 1/27": (0, []),
        "--space cantor --depth 6 --r 1/81": (0, []),
        "--space circle --n 45": (2, [
            "error: [covering] generated sequence fails validation: "
            "{'property': 1, 'level': 1, 'mesh': '7/60', 'bound': '1/12'}"]),
        "--space circle --n 161": (2, [
            "error: [covering] generated sequence fails validation: "
            "{'property': 3, 'color': 0, 'pair': ['c0-j1-0', 'c0-j1-2'], "
            "'ball': 6}"]),
        "--space circle --n 243": (2, [
            "error: [covering] generated sequence fails validation: "
            "{'property': 'disjoint', 'level': 1, 'color': 0, "
            "'pair': ['c0-j1-0', 'c0-j1-2']}"]),
    }


@pytest.mark.parametrize("n", UNCUT)
def test_a_circle_that_blocks_of_4_and_5_cannot_cut_is_refused(n, capsys):
    assert run(["--space", "circle", "--n", str(n)], capsys)[::2] == (2, [
        f"error: [covering] {n} points cannot be cut into blocks of 4 and "
        "5 points"])


@pytest.mark.parametrize("n", ODD_CUT)
def test_a_circle_that_blocks_of_4_and_5_cut_only_oddly_is_refused(n,
                                                                   capsys):
    assert run(["--space", "circle", "--n", str(n)], capsys)[::2] == (2, [
        "error: [covering] alternating colors need an even number of "
        "blocks"])


def config_of(argv) -> PipelineConfig:
    """The config ``embed run`` takes from a sweep entry's flags."""
    flags = dict(zip(argv[::2], argv[1::2]))
    return config_for(
        None, space_kind=flags["--space"],
        space_param=int(flags.get("--depth") or flags["--n"]),
        r=Fraction(flags["--r"]) if "--r" in flags else None,
        max_level=int(flags["--max-level"]) if "--max-level" in flags
        else None)


def pages_past_tree_distance(st2) -> list:
    """(color, a, b) of every pair of image tree vertices whose diaries lie
    further apart than the two vertices in their color tree."""
    emb = st2.stage1
    past = []
    for c in st2.colors:
        tree = emb.trees[c]
        images = sorted({emb.image(c, v) for v in emb.graph.vertices})
        for a, b in itertools.combinations(images, 2):
            if word_distance(st2.diaries[c, a], st2.diaries[c, b]) > \
                    tree.generation_distance(a, b):
                past.append((c, a, b))
    return past


# the presets and every passing sweep config, by name
CONFIGS = {**PRESETS, **{" ".join(argv): config_of(argv) for argv in PASSING}}
# the configs that run at max level 1: every vertex lies at level 1 or
# below, so it maps to the tree root in every color
AT_THE_ROOT = ("grid", "--space cantor --depth 4 --r 1/81")


def images_off_the_root(emb) -> int:
    """How many (vertex, color) images are not the color tree's root."""
    return sum(emb.image(c, v) != emb.trees[c].root
               for v in emb.graph.vertices for c in emb.colors)


@pytest.mark.parametrize("name", [n for n in CONFIGS if n not in AT_THE_ROOT])
def test_page_distance_is_at_most_tree_distance(name):
    # why no stage-2 check bounds page distance from above: with
    # stage1-tree-lipschitz it gives page distance <= 2 gd in each color
    st2 = Pipeline(CONFIGS[name]).stage2
    assert images_off_the_root(st2.stage1) > 0
    assert pages_past_tree_distance(st2) == []


@pytest.mark.parametrize("name", AT_THE_ROOT)
def test_a_max_level_1_run_maps_every_vertex_to_the_root(name):
    # every tree and page distance is 0, so a pass there says nothing;
    # ROADMAP item 2 moves the grid preset to level 2 and makes such a run
    # fail by name, and then this test fails
    emb = Pipeline(CONFIGS[name]).stage1
    assert emb.graph.scale.max_level == 1
    assert images_off_the_root(emb) == 0


@pytest.mark.parametrize("colors, sizes", [(2, {0: 1, 1: 51}),
                                           (3, {0: 1, 1: 51, 2: 51})])
def test_one_shifted_cubes_family_carries_a_grid_run(colors, sizes, capsys):
    # ROADMAP item 2's seam: family 0 of shifted_cubes has offset 0, and
    # its color tree on grid(5) at level 2 is the root alone, so two colors
    # pass every check as three do; item 2 fills that tree, and then this
    # test fails
    argv = ["--space", "grid", "--n", "5", "--r", "1/64", "--max-level",
            "2", "--colors", str(colors), "--kappa", "46"]
    code, report, err = run(argv, capsys)
    assert code == 0 and report["ok"] and not failing_checks(report)
    assert not err
    emb = Pipeline(config_for(None, space_kind="grid", space_param=5,
                              r=Fraction(1, 64), max_level=2,
                              n_colors=colors, kappa=46)).stage1
    assert {c: len(emb.trees[c].vertices()) for c in emb.colors} == sizes


@pytest.mark.parametrize("argv, checked", [
    (["--preset", "grid", "--colors", "2"], 6726),
    (["--space", "grid", "--n", "9", "--max-level", "2", "--colors", "2"],
     19931)])
def test_two_shifted_cubes_families_validate(argv, checked, capsys):
    # the same seam (ROADMAP item 2): on these samples the grid takes a
    # covering of two colors, and not the three that the plane needs
    assert main(["verify", "covering", *argv]) == 0
    result, = json.loads(capsys.readouterr().out)["results"]
    assert (result["status"], result["checked"]) == ("pass", checked)


@pytest.mark.parametrize("name", CONFIGS)
def test_the_ball_graph_keeps_the_lemmas_its_edge_rule_gives(name):
    # why the approx suite checks no central ancestor, horizontal descent,
    # ball-intersection bound or critical-level distance
    graph = Pipeline(CONFIGS[name]).graph
    for lemma in GRAPH_LEMMAS:
        assert lemma(graph) == [], lemma.__name__


@pytest.mark.parametrize("preset", ["cantor", "circle"])
def test_a_lengthened_diary_lies_past_its_tree_distance(preset):
    # more pages than any tree distance, on the deepest color-0 image: every
    # pair with that image breaks the bound, and no other pair does
    st2 = Pipeline(PRESETS[preset]).stage2
    emb = st2.stage1
    tree = emb.trees[0]
    images = sorted({emb.image(0, v) for v in emb.graph.vertices})
    image = max(images, key=lambda u: (tree.depths[u], u))
    extra = 1 + max(tree.generation_distance(a, b)
                    for a, b in itertools.combinations(images, 2))
    page = (st2.labelling.words[0, image][0],) * st2.kappa
    st2.diaries[0, image] += (page,) * extra
    assert pages_past_tree_distance(st2) == [
        (0, a, b) for a, b in itertools.combinations(images, 2)
        if image in (a, b)]


CANTOR7_REPORT_SHA256 = ("6715023da597f04bd5a8fb770e3324bb"
                         "b174a3e45d94a2c695cfb909d889d4c1")


@pytest.fixture(scope="module")
def cantor7(tmp_path_factory):
    """``embed run --space cantor --depth 7``, once: its exit code, report
    and report.json bytes."""
    out = tmp_path_factory.mktemp("cantor7")
    code = main(["run", "--space", "cantor", "--depth", "7",
                 "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return code, report, (out / "report.json").read_bytes()


def test_cantor7_fails_the_segment_shape_alone(cantor7):
    # pinned, so that a change to which violations are kept, or in what
    # order, shows
    code, report, data = cantor7
    assert code == 1
    assert failing_checks(report) == {"stage1-critical-segment-shape"}
    assert hashlib.sha256(data).hexdigest() == CANTOR7_REPORT_SHA256


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the segment-shape "
                   "check fails wherever a critical level reaches 4")
def test_cantor7_passes_or_stops_at_a_named_stage(cantor7):
    code, report, _ = cantor7
    assert_passes_or_stops_at_a_named_stage(code, report, [])


@pytest.mark.parametrize("kind, n, count", [
    ("cantor", 10, "2^10"), ("grid", 23, "23^2 = 529"),
    ("circle", 513, "513")])
def test_a_space_above_the_point_limit_is_refused_where_it_is_built(
        kind, n, count):
    assert MAX_POINTS == 512
    pipe = Pipeline(config_for(None, space_kind=kind, space_param=n))
    with pytest.raises(StageError) as caught:
        pipe.space
    assert str(caught.value) == (f"[space] {kind}({n}) has {count} points, "
                                 "above the limit of 512")


@pytest.mark.parametrize("kind, n", [("cantor", 9), ("grid", 22),
                                     ("circle", 512)])
def test_a_space_at_the_point_limit_is_built(kind, n):
    space = Pipeline(config_for(None, space_kind=kind, space_param=n)).space
    assert space.n <= MAX_POINTS


@pytest.mark.parametrize("preset, k0", [("cantor", 0), ("grid", -1)])
def test_a_level_count_at_the_limit_is_taken(preset, k0):
    assert MAX_LEVELS == 16
    scale = Pipeline(config_for(preset, max_level=k0 + 16)).scale
    assert (scale.k0, scale.max_level) == (k0, k0 + 16)


@pytest.mark.parametrize("preset, level, levels", [
    ("cantor", 17, 17), ("cantor", 99999, 99999), ("grid", 16, 17)])
def test_a_level_count_above_the_limit_is_refused(preset, level, levels,
                                                  capsys):
    assert main(["run", "--preset", preset, "--max-level", str(level)]) == 2
    k0 = level - levels
    assert capsys.readouterr().err.splitlines() == [
        f"error: [space] max_level {level} is {levels} levels below the "
        f"base level {k0}, above the limit of 16"]


def test_a_space_file_above_the_point_limit_is_refused(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("513\n0\n")
    assert main(["run", "--space-file", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: [space] the space file has 513 points, above the limit of "
        "512"]
