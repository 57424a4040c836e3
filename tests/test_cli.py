import gc
import hashlib
import itertools
import json
import os
import pathlib
import pstats
import re
import subprocess
import sys

import pytest

from qtrees.cli import main
from qtrees.pipeline import Pipeline, export_artifacts, run_pipeline
from qtrees.presets import PRESETS, config_for
from qtrees.reporting import PIPELINE_SUITES, json_text, suite_dict
from qtrees.verify import run_suite


def test_preset_catalog():
    assert set(PRESETS) == {"cantor", "circle", "grid"}
    assert PRESETS["cantor"].kappa == 16
    assert PRESETS["circle"].kappa == 31


def test_config_overrides():
    cfg = config_for("cantor", kappa=20)
    assert cfg.kappa == 20 and cfg.space_kind == "cantor"
    cfg = config_for(None, space_kind="circle")
    assert cfg.covering_kind == "shifted_arcs" and cfg.n_colors == 2
    with pytest.raises(KeyError):
        config_for("nope")


def test_run_cantor_preset(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", "--preset", "cantor", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    for name in ("report.json", "graph.edges", "pairs.csv",
                 "embedding.json", "covering.json"):
        assert (out / name).exists()
    assert (out / "trees" / "color0.txt").exists()


def test_run_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "cantor", "--out", str(a)]) == 0
    assert main(["run", "--preset", "cantor", "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_run_reads_no_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "cantor", "--seed", "1",
                 "--out", str(a)]) == 0
    assert main(["run", "--preset", "cantor", "--seed", "2",
                 "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


@pytest.mark.parametrize("argv, kappa, err", [
    (["run", "--preset", "cantor"], "0", "error: --kappa must be at least 1"),
    (["export", "--preset", "cantor"], "0",
     "error: --kappa must be at least 1"),
    (["verify", "morse_thue"], "0", "error: --kappa must be at least 1"),
    (["run", "--preset", "cantor"], "15",
     "error: [stage2] page capacity 15 below the proven bound "
     "15*colors+1 = 16"),
    (["run", "--preset", "circle"], "30",
     "error: [stage2] page capacity 30 below the proven bound "
     "15*colors+1 = 31"),
    (["export", "--preset", "grid"], "45",
     "error: [stage2] page capacity 45 below the proven bound "
     "15*colors+1 = 46"),
    (["verify", "stage2", "--preset", "cantor"], "15",
     "error: [stage2] page capacity 15 below the proven bound "
     "15*colors+1 = 16"),
    (["verify", "all", "--preset", "circle"], "30",
     "error: [stage2] page capacity 30 below the proven bound "
     "15*colors+1 = 31"),
], ids=["run", "export", "verify-morse_thue", "run-k15", "run-circle-k30",
        "export-grid-k45", "verify-stage2-k15", "verify-all-circle-k30"])
def test_page_capacity_below_one_is_rejected(argv, kappa, err, tmp_path,
                                             capsys, monkeypatch):
    # the covering's colors give the floor 15C + 1, so a capacity below it
    # is refused before stage 1 builds a tree
    from qtrees import stage1

    built = []
    monkeypatch.setattr(stage1, "embed_stage1",
                        lambda *args: built.append(args))
    code = main([*argv, "--kappa", kappa, *out_flag(argv, tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [err]
    assert built == []
    assert not any(tmp_path.iterdir())
    assert_no_child_left()


def out_flag(argv, out) -> list:
    """``--out out`` for run and export; verify writes nothing and takes
    no --out."""
    return [] if argv[0] == "verify" else ["--out", str(out)]


@pytest.mark.parametrize("suite", ["diary", "approx", "all"])
def test_verify_takes_no_out(suite, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"embed: error: unrecognized arguments: --out {tmp_path}"
    assert not any(tmp_path.iterdir())


def test_run_one_color_circle_fails_at_covering(capsys):
    code = main(["run", "--space", "circle", "--colors", "1"])
    assert code != 0
    err = capsys.readouterr().err
    assert "covering" in err


def test_verify_diary(capsys):
    code = main(["verify", "diary"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    ids = {r["id"] for r in report["results"]}
    assert "diary-worked-example" in ids
    assert any(i.startswith("diary-roundtrip") for i in ids)


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_verify_all_maps_every_check_once():
    # the ids are every suite's (CHECK_IDS below), each once, so a check
    # deleted or added shows as a one-line diff
    for name in PRESETS:
        report = run_suite(config_for(name), "all")
        assert report["ok"] is True, name
        seen = []
        for suite in report["suites"].values():
            for entry in suite["results"]:
                seen.append(entry["id"])
                assert entry["status"] in ("pass", "inconclusive")
        assert sorted(seen) == sorted(
            [*itertools.chain(*CHECK_IDS.values()), *TREE_CHECK_IDS[name]])


@pytest.mark.parametrize("args,out,pinned", [
    (("--preset", "cantor"), False, True),
    (("--preset", "cantor", "--seed", "3"), False, True),
    (("--preset", "cantor"), True, True),
    (("--preset", "cantor", "--max-level", "3"), False, False),
    (("--preset", "cantor", "--kappa", "20"), False, False),
    (("--space", "grid", "--n", "3", "--max-level", "2"), False, False),
], ids=["preset", "seed", "out", "max-level", "kappa", "grid"])
def test_only_an_unchanged_preset_is_pinned(args, out, pinned, tmp_path,
                                            capsys):
    # the seed and the output directory reach no report byte
    argv = ["run", *args] + (["--out", str(tmp_path)] if out else [])
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["pinned"] is pinned
    if out:
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["config"]["pinned"] is pinned


def test_export_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "dump"
    code = main(["export", "--preset", "cantor", "--out", str(out)])
    assert code == 0
    assert (out / "graph.edges").exists()


def test_graph_edges_format(tmp_path):
    out = tmp_path / "x"
    main(["export", "--preset", "cantor", "--out", str(out)])
    lines = (out / "graph.edges").read_text().strip().split("\n")
    for line in lines[:5]:
        a, b, kind = line.split()
        assert kind in ("H", "R")
        for token in (a, b):
            level, center = token.split(":")
            int(level), int(center)


def test_verify_bad_scale_is_a_stage_error(capsys):
    code = main(["verify", "approx", "--r", "1/2"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [space] ")


@pytest.mark.parametrize("argv", [["run"], ["verify", "approx"],
                                  ["export"]])
@pytest.mark.parametrize("r", ["1/0", "3/0"])
def test_zero_denominator_scale_is_a_usage_error(argv, r, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--r", r, *out_flag(argv, tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error" in line] == [
        f"embed {argv[0]}: error: argument --r: invalid fraction value: "
        f"'{r}'"]
    assert err[-1].startswith(f"embed {argv[0]}: error: ")
    assert not any(tmp_path.iterdir())


@pytest.fixture
def saved_cantor_space(tmp_path):
    from qtrees.metric import generate_space, save_space_csv

    path = tmp_path / "cantor3.csv"
    save_space_csv(generate_space("cantor", 3), path)
    return str(path)


FILE_SPACE_NOTE = "no covering generator takes a space loaded from a file"


def test_run_on_a_space_file_names_the_missing_generator(saved_cantor_space,
                                                         capsys):
    code = main(["run", "--space-file", saved_cantor_space])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [covering] {FILE_SPACE_NOTE}"]


def test_verify_covering_on_a_space_file_names_the_missing_generator(
        saved_cantor_space, capsys):
    code = main(["verify", "covering", "--space-file", saved_cantor_space])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == [
        {"id": "covering-contract", "status": "fail", "checked": 0,
         "violations": [], "notes": FILE_SPACE_NOTE}]


@pytest.mark.parametrize("text,reason", [
    ("", "empty space file"),
    ("\n  \n", "empty space file"),
    ("0,1\n1,0\n", "line 1 must be the point count"),
])
def test_bad_space_file_is_a_named_space_error(tmp_path, capsys, text,
                                               reason):
    path = tmp_path / "space.csv"
    path.write_text(text)
    code = main(["verify", "approx", "--space-file", str(path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [space] {reason}"]


@pytest.mark.parametrize("preset", list(PRESETS))
def test_verify_all_matches_run_report(preset):
    # every check entry (id, status, count, notes, violations) of run's
    # pipeline suites is the one verify all reports
    suites = run_suite(config_for(preset), "all")["suites"]
    report = run_pipeline(config_for(preset)).report["suites"]
    for name in ("approx", "covering", "stage1", "stage2"):
        assert suites[name]["results"] == report[name]["results"], name


def test_export_writes_what_run_writes(tmp_path, capsys):
    a, b = tmp_path / "export", tmp_path / "run"
    assert main(["export", "--preset", "cantor", "--out", str(a)]) == 0
    assert main(["run", "--preset", "cantor", "--out", str(b)]) == 0
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*")
                           if p.is_file())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_pipeline_builds_each_net_once(tmp_path, monkeypatch):
    # the report and the export read nets for levels k0 .. J+1 (the
    # covering contract and the edge letters look one level past J)
    import sys

    from qtrees import metric

    original = metric.maximal_separated_net
    separations = []

    def counted(space, separation):
        separations.append(separation)
        return original(space, separation)

    for name, module in list(sys.modules.items()):
        if name.startswith("qtrees") and \
                getattr(module, "maximal_separated_net", None) is original:
            monkeypatch.setattr(module, "maximal_separated_net", counted)
    pipe = Pipeline(PRESETS["cantor"])
    export_artifacts(pipe, tmp_path)
    assert pipe.ok
    # r^k falls as k grows: one separation per level, deepest last
    scale = pipe.scale
    assert sorted(separations, reverse=True) == [
        scale.sep(k) for k in range(scale.k0, scale.max_level + 2)]


# the sorted check ids of each suite of the presets, one a line, so that
# a check deleted or added shows as a readable diff beside the digests
# below; stage 1 adds one tree-structure id per color
CHECK_IDS = {
    "approx": [
        "approx-geodesic-shape",
    ],
    "covering": [
        "covering-contract",
    ],
    "stage1": [
        "stage1-close-pair-bound",
        "stage1-close-radial-segment",
        "stage1-critical-segment-shape",
        "stage1-distinct-pair-bound",
        "stage1-global-lower-bound",
        "stage1-level-escape",
        "stage1-tree-lipschitz",
    ],
    "stage2": [
        "labelling-net-coloring",
        "labelling-sentences",
        "stage2-binary-sandwich",
        "stage2-critical-letters",
        "stage2-lower-bound",
        "stage2-reconstruction-membership",
    ],
    "diary": [
        "diary-roundtrip-k1",
        "diary-roundtrip-k2",
        "diary-roundtrip-k3",
        "diary-star-honest",
        "diary-string-recovery",
        "diary-worked-example",
    ],
    "morse_thue": [
        "mt-cube-free",
        "mt-decorate-strip",
        "mt-long-journey",
        "mt-prefix",
        "mt-synchronization",
    ],
}
TREE_CHECK_IDS = {
    "cantor": ["tree-structure-c0"],
    "circle": ["tree-structure-c0", "tree-structure-c1"],
    "grid": ["tree-structure-c0", "tree-structure-c1", "tree-structure-c2"],
}


@pytest.mark.parametrize("preset", sorted(TREE_CHECK_IDS))
def test_each_pipeline_suite_keeps_its_check_ids(preset):
    suites = run_pipeline(config_for(preset)).report["suites"]
    assert {name: sorted(entry["id"] for entry in suite["results"])
            for name, suite in suites.items()} == \
        {**{name: CHECK_IDS[name] for name in PIPELINE_SUITES},
         "stage1": CHECK_IDS["stage1"] + TREE_CHECK_IDS[preset]}


GOLDEN_SHA256 = {
    ("--preset", "cantor"): {
        "report.json": "8c816077a3dab0469f79526c7d4d90fb"
                       "00bde669e653d0ec0b8a368dd8f0aa2b",
        "pairs.csv": "98a79ebe4a31542e80e94e1879ffc1a3"
                     "2337b32cca8f81b94510a0eb249d77f0",
        "embedding.json": "b7fcab9cdbcdafaee0ae96bfea9d5615"
                          "66da1628e35733aaa20fcd07a1b2ebc5",
        "covering.json": "bc7d8fbb79cbb9b3dd72fd678b0239ae"
                         "f223d8eccfafdb7ac5565416499b491c",
        "graph.edges": "fd83188f6dc765ee74bbf6bbbb2f93fa"
                       "0afd34b73d214ad19a16771a24afa31c",
    },
    ("--space", "grid", "--n", "3", "--r", "1/64", "--max-level", "2",
     "--colors", "3", "--kappa", "46"): {
        "report.json": "5088e4d39feaeb30dc71c75543387c5a"
                       "5f9b4a1ca5897323ec3618f398726968",
        "pairs.csv": "efc8f016b3009d44572cb604dd261223"
                     "3c18b80c1a063988d9d00a2819f44635",
        "embedding.json": "480b0ea8f010a5c4b0ea4c534017b77c"
                          "a5160268c429de154f39105c3ba5281c",
        "covering.json": "dcb4b3014640e3b6a24b0382e956f5d7"
                         "bbe0f77ccb810e69c0f492cddba8e5a2",
        "graph.edges": "ebaf2e2b4e8356333cb382cb64c903d2"
                       "5bc025f5b9f53c2bf13125f8bbc39f94",
    },
    ("--preset", "circle"): {
        "report.json": "ddfc10c33a5a0bb13e64215c1efdb962"
                       "2c4f2e82aaae323ed6ca81f0f808db57",
        "embedding.json": "d0eb0bd90495350937467f86ab842eb9"
                          "996b1225b5ad6da6758b000fd4a95584",
    },
}


@pytest.mark.parametrize("args", list(GOLDEN_SHA256))
def test_artifacts_keep_their_bytes(args, tmp_path, capsys):
    # the artifact bytes of a pinned config are part of the contract: a
    # change that only makes the program faster leaves them as they are
    assert main(["run", *args, "--out", str(tmp_path)]) == 0
    for name, digest in GOLDEN_SHA256[args].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


# a number written as a decimal string, not as "p/q"
DECIMAL = re.compile(r"[-+]?((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)",
                     re.IGNORECASE)


@pytest.mark.parametrize("args", [("--preset", p) for p in PRESETS] + [
    args for args in GOLDEN_SHA256 if args[:2] == ("--space", "grid")])
def test_report_holds_exact_numbers_only(args, tmp_path, capsys):
    # every number in report.json is an int or a "p/q" string
    assert main(["run", *args, "--out", str(tmp_path)]) == 0
    inexact = []

    def walk(node, path):
        if isinstance(node, float) or \
                isinstance(node, str) and DECIMAL.fullmatch(node):
            inexact.append((path, node))
        elif isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")

    walk(json.loads((tmp_path / "report.json").read_text()), "")
    assert not inexact


GOLDEN_STDOUT_SHA256 = {
    ("verify", "covering", "--preset", "circle"):
        "ad85e005d0270192720e5c46180b9068c60dcf7e1673dad25e82c704e18c17c9",
    ("verify", "covering", "--preset", "grid"):
        "78a4ba920f2724a989fbf221f609b38fb41af5f637b6759e0837511addb8e3ba",
    ("verify", "stage2", "--preset", "circle"):
        "124feef915db04a412f970d7ee60e73e309bfd9c4706845134649b2ca775ee6d",
    ("verify", "all", "--preset", "cantor"):
        "8f6d0f430250afd918efb4c991ecb4f9e26156c7b6b1dcb24ed9f4276c8b7576",
    ("verify", "all", "--preset", "circle"):
        "013d81820ef158fe255656c6b3b3a7ddf6fc96d8b49f676dc20819df56c36707",
    ("verify", "all", "--preset", "grid"):
        "d7d75da0de3b50d1c2d9079fd11e644aa4048b0f1a08ce867e3dd796bd02d7db",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256))
def test_verify_stdout_keeps_its_bytes(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_STDOUT_SHA256[argv]
    assert_no_child_left()


# `verify all` on a one-color circle, whose generated covering fails
ONE_COLOR_CIRCLE_ALL_SHA256 = \
    "f413cd837ae27246113a481eff92685a152e51cebabbddf650834ab3e93f01a4"


def test_failing_covering_is_reported_by_every_suite_that_reads_it(capsys):
    code = main(["verify", "all", "--space", "circle", "--colors", "1"])
    assert code == 1
    out = capsys.readouterr().out
    suites = json.loads(out)["suites"]
    for name in ("covering", "stage1", "stage2"):
        assert [(r["id"], r["status"]) for r in suites[name]["results"]] == \
            [("covering-contract", "fail")]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ONE_COLOR_CIRCLE_ALL_SHA256
    assert_no_child_left()


def stage2_checks(preset: str, kappa: int) -> list:
    """The checks of the stage-2 suite of a preset paged at ``kappa``, run
    through the library: the pipeline refuses a capacity below 15C + 1."""
    from qtrees.labelling import build_stage2, check_binary_stage, \
        check_net_coloring, check_sentences, stage2_suite
    pipe = Pipeline(config_for(preset))
    lab = pipe.labelling
    st2 = build_stage2(lab, kappa)
    checks, _ = stage2_suite(st2)
    return checks + [check_net_coloring(pipe.graph, lab.coloring),
                     check_sentences(lab), check_binary_stage(st2)]


# the stage-2 suite of the cantor preset paged at capacity 3, as `verify
# stage2` would print it
CANTOR_K3_STAGE2_SHA256 = \
    "eb04d5be317ad93b47cbc5580460016193fed614136e4bcce57fe11749ea37f9"


def test_stage2_below_the_proven_capacity_keeps_its_bytes():
    out = json_text(suite_dict("stage2", stage2_checks("cantor", 3)))
    assert hashlib.sha256(out.encode()).hexdigest() == \
        CANTOR_K3_STAGE2_SHA256


@pytest.mark.parametrize("preset, kappa", [("cantor", 5), ("circle", 20)])
def test_stage2_passes_below_the_proven_capacity(preset, kappa):
    checks = stage2_checks(preset, kappa)
    assert [c.status for c in checks] == ["pass"] * len(checks)
    assert all(c.checked for c in checks)


# -- the diary worker of `verify all` ---------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_verify_all_reaps_its_worker(capsys):
    # the space stage fails in this process while the worker still runs
    code = main(["verify", "all", "--space", "cantor", "--n", "0"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [space] ")
    assert_no_child_left()


def test_failing_worker_raises_what_the_diary_suite_raises(monkeypatch):
    from qtrees import diary, verify
    from qtrees.diary import InconsistentDiary

    def dropped(state, page, kappa):
        """A decoder step that never sees a page's last token."""
        return real(state, page[:-1], kappa)

    real = diary.decode_step
    monkeypatch.setitem(vars(verify), "decode_step", dropped)
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    with pytest.raises(InconsistentDiary) as in_process:
        verify.diary_suite()
    with pytest.raises(InconsistentDiary) as in_all:
        run_suite(config_for("cantor"), "all")
    assert forks == [1]
    assert str(in_all.value) == str(in_process.value) == \
        "page 1: malformed page"
    assert_no_child_left()


def no_fork():
    raise OSError("no more processes")


@pytest.mark.parametrize("fork", [None, no_fork], ids=["missing", "failing"])
def test_verify_all_without_a_worker_keeps_its_bytes(fork, monkeypatch,
                                                      capsys):
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    argv = ("verify", "all", "--preset", "cantor")
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


@pytest.mark.parametrize("argv", [["run"], ["verify", "all"]])
def test_base_level_truncation_is_a_space_error(argv, capsys):
    # at max level k0 the graph is its root alone, and every pair check
    # would pass on no instance
    code = main([*argv, "--preset", "cantor", "--max-level", "0"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: [space] max_level 0 is the base level: the graph would be "
        "its root alone"]
    assert_no_child_left()


@pytest.mark.parametrize("argv", [["run"], ["verify", "all"]])
@pytest.mark.parametrize("level, reason", [
    ("0", "max_level 0 is below 1: the covering would be level 0 alone, and "
          "every vertex would map to its tree root"),
    ("-1", "max_level -1 is the base level: the graph would be its root "
           "alone"),
], ids=["level0", "base"])
def test_grid_truncation_below_level_one_is_a_space_error(argv, level, reason,
                                                         capsys):
    # grid's base level is -1; at max level 0 every color tree would be its
    # root and every check inconclusive
    code = main([*argv, "--preset", "grid", "--max-level", level])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: [space] {reason}"]
    assert_no_child_left()


def test_one_run_builds_one_covering_kernel(tmp_path, monkeypatch):
    # generation, the validator, the stage-1 map, the color-tree checks and
    # the edge letters share the kernel generation built
    from qtrees.coverings import CoveringKernel

    built = []
    init = CoveringKernel.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CoveringKernel, "__init__", counted)
    assert main(["run", "--preset", "cantor", "--out", str(tmp_path)]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("command", ["run", "export"])
def test_unwritable_out_is_an_export_error(command, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code = main([command, "--preset", "cantor",
                 "--out", str(tmp_path / "file" / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [export] ")


@pytest.mark.parametrize("argv", [
    ["run", "--space", "grid"],
    ["run", "--space", "cantor"],
    ["export", "--space", "circle"],
    ["verify", "covering", "--space", "grid"],
])
@pytest.mark.parametrize("colors", ["0", "-1"])
def test_color_count_below_one_is_rejected(argv, colors, tmp_path, capsys):
    code = main([*argv, "--colors", colors, *out_flag(argv, tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --colors must be at least 1"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, reason", [
    (["run", "--space", "circle", "--colors", "3"],
     "shifted arcs alternate one or two colors, not 3"),
    (["export", "--space", "grid", "--colors", "4"],
     "shifted cubes offset one to three families, not 4"),
    (["run", "--space", "cantor", "--colors", "2"],
     "the triadic hierarchy is a one-color family"),
])
def test_more_colors_than_the_generator_has_is_a_covering_error(
        argv, reason, tmp_path, capsys):
    # a color that no family of the generator uses would be a root-only
    # tree whose checks pass with nothing to check
    code = main([*argv, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [covering] {reason}"]
    assert not (tmp_path / "report.json").exists()


# -- the module as a process, as `embed` and the benchmark start it ---------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def python(*args: str) -> subprocess.CompletedProcess:
    """``python args...`` in a fresh process that imports qtrees from this
    checkout, with stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


def test_module_run_prints_the_report_it_writes(tmp_path):
    out = tmp_path / "D"
    proc = python("-m", "qtrees.cli", "run", "--preset", "cantor",
                  "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (out / "report.json").read_bytes()
    for name in ("graph.edges", "pairs.csv", "embedding.json",
                 "covering.json", "trees/color0.txt"):
        assert (out / name).exists(), name


@pytest.mark.parametrize("argv", [("verify", "stage2", "--preset", "circle"),
                                  ("verify", "all", "--preset", "cantor")])
def test_module_verify_keeps_its_bytes(argv):
    proc = python("-m", "qtrees.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        GOLDEN_STDOUT_SHA256[argv]


def test_module_refuses_a_low_page_capacity(tmp_path):
    proc = python("-m", "qtrees.cli", "run", "--preset", "circle",
                  "--kappa", "30", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.splitlines() == [
        b"error: [stage2] page capacity 30 below the proven bound "
        b"15*colors+1 = 31"]
    assert not any(tmp_path.iterdir())


def test_module_unknown_flag_is_a_usage_error():
    proc = python("-m", "qtrees.cli", "run", "--no-such-flag")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.splitlines() == [
        b"usage: embed [-h] {run,verify,export} ...",
        b"embed: error: unrecognized arguments: --no-such-flag"]


def test_profiled_module_writes_its_stats(tmp_path):
    # cProfile writes the stats after the module's SystemExit, which an
    # os._exit at the end of the command would never reach
    stats = tmp_path / "F"
    proc = python("-m", "cProfile", "-o", str(stats), "-m", "qtrees.cli",
                  "verify", "morse_thue")
    assert proc.returncode == 0, proc.stderr
    functions = {(pathlib.Path(file).name, name)
                 for file, _, name in pstats.Stats(str(stats)).stats}
    assert ("cli.py", "main") in functions


def test_module_end_runs_atexit_handlers_on_a_frozen_heap():
    # the handler is registered before the module runs as __main__, so it
    # runs after the process entry has frozen the heap
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('atexit', gc.get_freeze_count() "
            "> 0))\n"
            "sys.argv = ['embed', 'verify', 'morse_thue']\n"
            "runpy.run_module('qtrees.cli', run_name='__main__', "
            "alter_sys=True)\n")
    proc = python("-c", code)
    assert (proc.returncode, proc.stderr) == (0, b"")
    report, end = proc.stdout.rsplit(b"}\n", 1)
    assert json.loads(report + b"}")["ok"] is True
    assert end == b"atexit True\n"


def test_main_leaves_the_heap_unfrozen(capsys):
    # in-process callers, pytest and the benchmark's tracer among them,
    # keep a heap that the collector still walks
    before = gc.get_freeze_count()
    assert main(["verify", "morse_thue"]) == 0
    assert main(["run", "--preset", "cantor"]) == 0
    assert gc.get_freeze_count() == before
