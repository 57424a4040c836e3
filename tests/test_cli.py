import hashlib
import json

import pytest

from qtrees.cli import main
from qtrees.pipeline import Pipeline, export_artifacts, run_pipeline
from qtrees.presets import PRESETS, config_for
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


def test_verify_morse_thue_research_kappa(capsys):
    code = main(["verify", "morse_thue", "--research-kappa", "--kappa", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    by_id = {r["id"]: r for r in report["results"]}
    assert "mt-small-kappa-k3" in by_id
    assert by_id["mt-small-kappa-k3"]["status"] == "expected_fail"


def test_verify_all_maps_every_check_once():
    report = run_suite(config_for("cantor"), "all")
    assert report["ok"] is True
    seen = []
    for suite in report["suites"].values():
        for entry in suite["results"]:
            seen.append(entry["id"])
            assert entry["status"] in ("pass", "inconclusive", "expected_fail")
    assert len(seen) == len(set(seen))


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


@pytest.mark.parametrize("preset", ["cantor", "grid"])
def test_verify_all_matches_run_report(preset):
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
    levels = []

    def counted(*args, **kwargs):
        net = original(*args, **kwargs)
        levels.append(net.level)
        return net

    for name, module in list(sys.modules.items()):
        if name.startswith("qtrees") and \
                getattr(module, "maximal_separated_net", None) is original:
            monkeypatch.setattr(module, "maximal_separated_net", counted)
    pipe = Pipeline(PRESETS["cantor"])
    export_artifacts(pipe, tmp_path)
    assert pipe.ok
    assert sorted(levels) == list(range(pipe.scale.k0,
                                        pipe.scale.max_level + 2))


GOLDEN_SHA256 = {
    ("--preset", "cantor"): {
        "report.json": "57d34a158387ccffbb07d83b4fc88a41"
                       "3a083ce22f4241fd9de59970fce77f08",
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
        "report.json": "03f56a50a85011c286252559c3b68b02"
                       "3c8401da3c8df6a5e246db441d7ae825",
        "pairs.csv": "efc8f016b3009d44572cb604dd261223"
                     "3c18b80c1a063988d9d00a2819f44635",
        "embedding.json": "480b0ea8f010a5c4b0ea4c534017b77c"
                          "a5160268c429de154f39105c3ba5281c",
        "covering.json": "dcb4b3014640e3b6a24b0382e956f5d7"
                         "bbe0f77ccb810e69c0f492cddba8e5a2",
        "graph.edges": "ebaf2e2b4e8356333cb382cb64c903d2"
                       "5bc025f5b9f53c2bf13125f8bbc39f94",
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
