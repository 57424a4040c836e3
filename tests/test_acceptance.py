"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""
import time
from fractions import Fraction as F

import pytest

from qtrees.approx import approx_suite, build_approximation
from qtrees.coverings import CoveringError, build_covering, \
    validate_covering_sequence
from qtrees.diary import encode, format_diary, is_honest, reconstruct
from qtrees.labelling import check_binary_stage, stage2_suite
from qtrees.metric import ScaleParams, generate_space
from qtrees.morse_thue import decorate, is_cube_free, long_journey_pair, \
    mt_prefix
from qtrees.pipeline import run_pipeline
from qtrees.presets import PRESETS
from qtrees.stage1 import stage1_suite
from qtrees.verify import diary_suite


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def cantor_run():
    return run_pipeline(PRESETS["cantor"])


@pytest.fixture(scope="module")
def circle_run():
    return run_pipeline(PRESETS["circle"])


# -- 1. codec oracle equivalence --------------------------------------------


# every sentence of 1..4 words of at most 4 letters over {a, b}: 31 words
SENTENCES = sum(31 ** k for k in range(1, 5))
# the pages among them that carry the terminal marker, over kappa = 1, 2, 3
STARRED_PAGES = 436724


def test_criterion_1_codec_oracle():
    # the program's own oracle, at the full bounds: each kappa's round trip
    # sweeps every sentence, and the star check reads every starred page
    t0 = time.time()
    checks = diary_suite(max_words=4, max_len=4)
    elapsed = time.time() - t0
    counts = {c.check_id: c.checked for c in checks}
    pinned = {"diary-star-honest": STARRED_PAGES,
              **{f"diary-roundtrip-k{k}": SENTENCES for k in (1, 2, 3)}}
    failing = [c.check_id for c in checks if c.status != "pass"]
    report(1, not failing and elapsed < 60 and
           all(counts.get(cid) == n for cid, n in pinned.items()),
           f"codec oracle checked {counts} (pinned {pinned}), "
           f"failing {failing}, {elapsed:.1f}s (< 60s)")


# -- 2. worked example -------------------------------------------------------


def test_criterion_2_worked_example():
    sent = tuple("a a b c s a s b c b s c s b s".split())
    pages = encode(sent, 3)
    text = format_diary(pages)
    slotted = reconstruct(pages, 3)
    honest = is_honest(slotted) and tuple(
        t for hs, w in slotted for t in (*w, "s")) == sent
    report(2, text == "(cba)(asa)(bcb)(css)(bs*)" and honest,
           f"pages {text}, honest reconstruction: {honest}")


# -- 3. Thue-Morse -----------------------------------------------------------


def test_criterion_3_thue_morse():
    ok_prefix = mt_prefix(8) == (0, 1, 1, 0, 1, 0, 0, 1)
    t0 = time.time()
    ok_cube = is_cube_free(mt_prefix(2048))
    elapsed = time.time() - t0
    report(3, ok_prefix and ok_cube and elapsed < 10,
           f"prefix(8)=01101001: {ok_prefix}, cube-free(2048): {ok_cube}, "
           f"scan {elapsed:.1f}s (< 10s)")


# -- 4. long-journey controls ------------------------------------------------


def test_criterion_4_long_journey():
    alpha, beta = long_journey_pair(k=30, n_stops=2)
    collide = encode(alpha, 3) == encode(beta, 3)
    differ = encode(decorate(alpha), 3) != encode(decorate(beta), 3)
    report(4, collide and differ,
           f"plain diaries collide: {collide}, decorated differ: {differ}")


# -- 5. approximation invariants ---------------------------------------------


def test_criterion_5_approx_invariants():
    t0 = time.time()
    failures = []
    sizes = {}
    for kind, param in [("cantor", 4), ("circle", 81)]:
        space = generate_space(kind, param)
        scale = ScaleParams.for_space(space, F(1, 9),
                                      4 if kind == "cantor" else 2)
        graph = build_approximation(space, scale)
        sizes[kind] = len(graph.vertices)
        assert sizes[kind] <= 300
        for check in approx_suite(graph):
            if check.status != "pass":
                failures.append((kind, check.check_id, check.violations[:1]))
    elapsed = time.time() - t0
    report(5, not failures and elapsed < 60,
           f"graphs {sizes} at r=1/9, {len(failures)} failing checks, "
           f"{elapsed:.1f}s (< 60s)")


# -- 6. covering contract ----------------------------------------------------


def test_criterion_6_covering_contract(cantor_run, circle_run):
    ok_cantor = validate_covering_sequence(
        cantor_run.seq, graph=cantor_run.graph).status == "pass"
    ok_circle = validate_covering_sequence(
        circle_run.seq, graph=circle_run.graph).status == "pass"
    one_color_fails = False
    try:
        build_covering("shifted_arcs", circle_run.graph, n_colors=1)
    except CoveringError:
        one_color_fails = True
    report(6, ok_cantor and ok_circle and one_color_fails,
           f"presets validate: cantor={ok_cantor} circle={ok_circle}, "
           f"one-color circle rejected: {one_color_fails}")


# -- 7. stage-1 bounds -------------------------------------------------------


def test_criterion_7_stage1_bounds(cantor_run, circle_run):
    t0 = time.time()
    failures = []
    pairs = 0
    for run in (cantor_run, circle_run):
        checks, rows = stage1_suite(run.stage1)
        pairs += len(rows)
        failures.extend(
            (c.check_id, c.violations[:1])
            for c in checks if c.status != "pass")
    elapsed = time.time() - t0
    report(7, not failures and elapsed < 120,
           f"{pairs} vertex pairs across both presets, "
           f"{len(failures)} failing checks, {elapsed:.1f}s (< 120s)")


# -- 8. stage-2 quasi-isometry -----------------------------------------------


def test_criterion_8_stage2_bounds(cantor_run, circle_run):
    t0 = time.time()
    failures = []
    for run, expected_kappa in ((cantor_run, 16), (circle_run, 31)):
        st2 = run.stage2
        assert st2.kappa == expected_kappa == 15 * len(st2.colors) + 1
        checks, fits = stage2_suite(st2)
        failures.extend(
            (c.check_id, c.violations[:1])
            for c in checks if not c.ok)
    elapsed = time.time() - t0
    report(8, not failures and elapsed < 300,
           f"page capacities 16/31, {len(failures)} failing checks, "
           f"{elapsed:.1f}s (< 300s)")


# -- 9. binary stage ---------------------------------------------------------


def test_criterion_9_binary_stage(cantor_run, circle_run):
    failures = []
    counted = 0
    for run in (cantor_run, circle_run):
        check = check_binary_stage(run.stage2)
        counted += check.checked
        if check.status != "pass":
            failures.append((check.check_id, check.violations[:1]))
    report(9, not failures,
           f"homothety sandwich on {counted} occurring page-sequence pairs, "
           f"{len(failures)} failures")


# -- 10. determinism ---------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    import contextlib
    import io

    from qtrees.cli import main

    a, b = tmp_path / "a", tmp_path / "b"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--preset", "circle", "--out", str(a)]) == 0
        assert main(["run", "--preset", "circle", "--out", str(b)]) == 0
    same = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    report(10, same, "two identical runs produce byte-identical report.json")
