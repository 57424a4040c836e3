import json

import pytest

from qtrees.cli import main
from qtrees.pipeline import run_pipeline
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
