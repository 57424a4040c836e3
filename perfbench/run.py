"""qtrees benchmark: times the program from outside, one fresh process per
sample.

    python3 perfbench/run.py --workload {presets,ladder,codec} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  A workload is a list of jobs.  A job is one ``embed`` invocation
(``python3 -m qtrees.cli``) on a configuration pinned by value, or one codec
sample (``perfbench/codec_job.py``).  The jobs run in turn, one process at
a time, every job at least once and then while the next sample fits in
``--seconds``.  Every sample is checked (see ``check_sample``) and failures
are counted.  The seed goes to ``--seed`` of every job and nowhere else.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` takes untraced
and traced (``perfbench/traced.py``) samples of every job in turn and
prints the per-layer metrics.  A human-readable report precedes the final
line, which is one JSON object.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PYTHON = sys.executable
SAMPLE_TIMEOUT_S = 120
SETUP_SAMPLES = 7
# the reference's output, and a round figure near its wall time on the
# 2-core host the benchmark was tuned on: it only sets the unit of
# host_seconds
REFERENCE_OUTPUT = "28 4 181381"
REFERENCE_S = 0.3
REF_EVERY_S = 1.0
TRACE_PAIRS = 2  # untraced and traced samples per job with --trace 1
# hash randomisation would make set orders, and with them call counts,
# differ between processes
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "run", "verify" or "codec"
    args: tuple


def pinned(command, space, size, r, max_level, colors, kappa) -> tuple:
    return (*command, "--space", space, "--n", str(size), "--r", r,
            "--max-level", str(max_level), "--colors", str(colors),
            "--kappa", str(kappa))


# Configurations are pinned by value, not by preset name, so that moving a
# preset does not change the benchmark's input.  (space, size, r, max level,
# colors, page capacity)
CANTOR4 = ("cantor", 4, "1/9", 4, 1, 16)     # cantor preset, 53 vertices
CIRCLE81 = ("circle", 81, "1/12", 2, 2, 31)  # circle preset, 93 vertices
GRID9 = ("grid", 9, "1/64", 1, 3, 46)        # grid preset, 86 vertices


def grid_l2(n: int) -> tuple:
    return ("grid", n, "1/64", 2, 3, 46)


# Every job takes at most about 1.5 s: one sample varies by about 17% from
# process to process on a shared 2-core host, so a run needs many samples
# of every job for its medians to hold still.
WORKLOADS = {
    "presets": [
        Job("run-cantor4", "run", pinned(("run",), *CANTOR4)),
        Job("verify-all-cantor4", "verify",
            pinned(("verify", "all"), *CANTOR4)),
        Job("verify-covering-circle81", "verify",
            pinned(("verify", "covering"), *CIRCLE81)),
        Job("verify-covering-grid9", "verify",
            pinned(("verify", "covering"), *GRID9)),
    ],
    "ladder": [
        Job(f"run-grid{n}-L2", "run", pinned(("run",), *grid_l2(n)))
        for n in (3, 4, 5)
    ],
    "codec": [
        Job(f"codec-{path}-k{kappa}", "codec", (path, "--kappa", str(kappa)))
        for path in ("string", "tuple") for kappa in (1, 2, 3)
    ] + [Job("codec-thue", "codec", ("thue",))],
}


# ---------------------------------------------------------------------------
# samples


@dataclass
class Sample:
    job: Job
    seconds: float
    ok: bool
    fingerprint: str = ""  # sha256 of report.json / verify output / counts
    detail: str = ""
    output: str = ""
    host_s: float = 0.0  # seconds at the reference host speed


def command(job: Job, seed: int, out_dir: str, spans: str = "") -> list:
    if job.kind == "codec":
        target, args = "codec", [*job.args, "--seed", str(seed)]
        script = [os.path.join(HERE, "codec_job.py")]
    else:
        target = "cli"
        args = [*job.args, "--seed", str(seed)]
        if job.kind == "run":
            args += ["--out", out_dir]
        script = ["-m", "qtrees.cli"]
    if spans:
        script = [os.path.join(HERE, "traced.py"), spans, target]
    return [PYTHON, *script, *args]


def run_sample(job: Job, seed: int, spans: str = "") -> Sample:
    out_dir = os.path.join(WORK, job.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = command(job, seed, out_dir, spans)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Sample(job, time.perf_counter() - start, False,
                      detail=f"timed out after {SAMPLE_TIMEOUT_S}s")
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return Sample(job, seconds, False,
                      detail=f"exit {proc.returncode}: {tail}")
    ok, fingerprint, detail = check_sample(job, proc.stdout, out_dir)
    return Sample(job, seconds, ok, fingerprint, detail, proc.stdout)


RUN_ARTIFACTS = ("report.json", "graph.edges", "covering.json", "pairs.csv",
                 "embedding.json")


def check_sample(job: Job, stdout: str, out_dir: str) -> tuple:
    """(ok, fingerprint, detail) for a sample that exited with status 0."""
    try:
        result = json.loads(stdout)
    except ValueError:
        return False, "", "output is not JSON"
    if job.kind == "codec":
        ok = result["violations"] == 0 and result["sentences"] > 0
        counts = f"{result['sentences']} sentences" + (
            f", {result['classes']} classes" if "classes" in result else "")
        return ok, counts, (
            "" if ok else f"{result['violations']} round-trip violations")
    if result.get("ok") is not True:
        return False, "", '"ok" is not true'
    if job.kind == "verify":
        return True, hashlib.sha256(stdout.encode()).hexdigest(), ""
    missing = [a for a in RUN_ARTIFACTS
               if not os.path.isfile(os.path.join(out_dir, a))]
    missing += [f"trees/color{c}.txt"
                for c in range(int(result["config"]["colors"]))
                if not os.path.isfile(
                    os.path.join(out_dir, "trees", f"color{c}.txt"))]
    if missing:
        return False, "", f"missing artifacts: {missing}"
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        report = fh.read()
    if report != stdout.encode():
        return False, "", "report.json differs from the printed report"
    return True, hashlib.sha256(report).hexdigest(), ""


def run_round(jobs, seed: int, fingerprints: dict, spans_dir: str = "",
              refs: list = None, out: list = None) -> list[Sample]:
    """One sample per job, appended to ``out``; a fingerprint that differs
    from the job's first one in this run fails the sample.  With ``refs``,
    the reference times so far, a reference run follows every REF_EVERY_S
    seconds of samples and the last sample, and scales the samples since
    the previous one to host_s."""
    out = [] if out is None else out
    pending: list[Sample] = []
    for job in jobs:
        spans = os.path.join(spans_dir, f"{job.name}.spans") if spans_dir \
            else ""
        s = run_sample(job, seed, spans)
        if s.ok and fingerprints.setdefault(job.name, s.fingerprint) \
                != s.fingerprint:
            s.ok, s.detail = False, "output differs from the first sample"
        out.append(s)
        pending.append(s)
        if refs is not None and sum(p.seconds for p in pending) \
                >= REF_EVERY_S:
            scale(pending, refs)
    if refs is not None and pending:
        scale(pending, refs)
    return out


def scale(pending: list[Sample], refs: list) -> None:
    refs.append(reference())
    for p in pending:
        p.host_s = host_seconds(p.seconds, refs[-2], refs[-1])
    pending.clear()


def wall(argv: list) -> tuple[float, str]:
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, check=True,
                         capture_output=True, text=True).stdout
    return time.perf_counter() - start, out


def reference() -> float:
    """Wall seconds of the fixed reference work, run as a fresh process."""
    seconds, out = wall([PYTHON, os.path.join(HERE, "reference.py")])
    if out.strip() != REFERENCE_OUTPUT:
        raise RuntimeError(f"reference printed {out.strip()!r}")
    return seconds


def host_seconds(seconds: float, ref_before: float, ref_after: float
                 ) -> float:
    """Wall seconds scaled to the host speed at which the reference takes
    REFERENCE_S, by the references run just before and after the sample:
    the shared host's speed drifts by up to 2x within seconds to minutes,
    and the references next to a sample drift with it."""
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


def measure_setup() -> list[float]:
    """Seconds from process start until qtrees.cli is imported, at the
    reference host speed.  The first import, which compiles bytecode once
    per checkout, is not timed."""
    argv = [PYTHON, "-c", "import qtrees.cli"]
    wall(argv)
    times = []
    ref = reference()
    for _ in range(SETUP_SAMPLES):
        seconds, _ = wall(argv)
        ref_after = reference()
        times.append(host_seconds(seconds, ref, ref_after))
        ref = ref_after
    return times


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest sample with at least ten samples
    beyond it, or of the median when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return 50.0, statistics.median(ordered)
    return 100 * (n - 10) / n, ordered[n - 11]


def summarize(jobs, samples: list[Sample], key=lambda s: s.seconds) -> dict:
    """Per-job medians of ``key`` and the pooled tail (each sample over its
    job's median, so that jobs of different length share one tail
    estimate)."""
    per_job = {}
    ratios = []
    for job in jobs:
        mine = [s for s in samples if s.job is job]
        times = [key(s) for s in mine if s.ok] or [key(s) for s in mine]
        median = statistics.median(times)
        ratios += [t / median for t in times]
        per_job[job.name] = {
            "job": job, "median": median, "n": len(mine),
            "failed": sum(not s.ok for s in mine),
            "fingerprint": next((s.fingerprint for s in mine if s.ok), ""),
            "details": sorted({s.detail for s in mine if not s.ok}),
        }
    tail_p, tail_ratio = tail(ratios)
    return {"jobs": per_job, "tail_p": tail_p, "tail_ratio": tail_ratio,
            "n": len(ratios),
            "run_s": sum(j["median"] for j in per_job.values())}


def subtotal(summary: dict, kind: str) -> float:
    return sum(j["median"] for j in summary["jobs"].values()
               if j["job"].kind == kind)


# ---------------------------------------------------------------------------
# traced run


def read_spans(path: str) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in "Hidd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    fn, parent, start, end = arrays
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += end[i] - start[i]
    out = {f"{name}.{k}": 0 for name in header["names"]
           for k in ("calls", "self_s")}
    for i in range(n):
        name = header["names"][fn[i]]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end[i] - start[i] - child_time[i]
    out.update({f"{k}.calls": v for k, v in header["calls"].items()})
    out.update(header["sizes"])
    return out


def check_counts(result) -> tuple[int, int]:
    """(instances checked, violations) in a report, or in codec counts."""
    if isinstance(result, dict):
        if "sentences" in result:
            return result["sentences"], result["violations"]
        if "checked" in result and "violations" in result:
            return result["checked"], len(result["violations"])
        pairs = [check_counts(v) for v in result.values()]
    elif isinstance(result, list):
        pairs = [check_counts(v) for v in result]
    else:
        return 0, 0
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


def traced_layers(samples: list[Sample], spans_dir: str) -> dict:
    layers: dict = {}
    for s in samples:
        path = os.path.join(spans_dir, f"{s.job.name}.spans")
        counts = read_spans(path) if os.path.isfile(path) else {}
        if s.output:
            checked, violations = check_counts(json.loads(s.output))
            counts["checks.instances"] = checked
            counts["checks.violations"] = violations
        for k, v in counts.items():
            layers[k] = layers.get(k, 0) + v
        s.detail = s.detail or " ".join(
            f"{k}={counts.get(k, 0)}" for k in PER_JOB_CALLS + SIZE_KEYS)
    return layers


# calls printed per traced job, with the SIZE_KEYS: the duplicated work the
# seed is known for
PER_JOB_CALLS = ("approx.build_approximation.calls",
                 "coverings.validate_covering_sequence.calls",
                 "trees.build_color_tree.calls")
# self times reported in the JSON: functions every workload calls
SHARED_SELF = ("diary.encode_segments", "diary.encode_with_rest",
               "diary.decode", "diary.membership")
SIZE_KEYS = ("approx.vertices", "approx.edges", "coverings.elements",
             "stage1.pairs", "checks.instances", "checks.violations")


def per_layer_names() -> list[str]:
    from traced import COUNTS, SPANS
    return ([f"{n}.calls" for n in SPANS + COUNTS] +
            [f"{n}.self_s" for n in SHARED_SELF] + list(SIZE_KEYS) +
            ["trace.overhead_s"])


# ---------------------------------------------------------------------------
# report


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_jobs(summary: dict) -> None:
    print(f"{'job':<26}{'n':>3}{'fail':>5}{'median_s':>10}  check")
    for name, j in summary["jobs"].items():
        note = "; ".join(j["details"]) or j["fingerprint"]
        print(f"{name:<26}{j['n']:>3}{j['failed']:>5}{j['median']:>10.4f}  "
              f"{note}")


def end_to_end(jobs, seed: int, seconds: float) -> tuple[dict, list]:
    start = time.perf_counter()
    setup = measure_setup()
    samples: list[Sample] = []
    refs = [reference()]

    def schedule():
        """The jobs in turn, every one at least once, while the next
        sample is likely to end within the run's time."""
        for i in itertools.count():
            job = jobs[i % len(jobs)]
            if i >= len(jobs):
                longest = max(s.seconds for s in samples if s.job is job)
                if time.perf_counter() - start + longest + refs[-1] \
                        > seconds:
                    return
            yield job

    run_round(schedule(), seed, {}, refs=refs, out=samples)
    summary = summarize(jobs, samples, key=lambda s: s.host_s)
    run_s = summary["run_s"]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    raw = summarize(jobs, samples)
    print("wall seconds:")
    print_jobs(raw)
    print(f"reference median {statistics.median(refs):.4f} s "
          f"(nominal {REFERENCE_S} s); seconds at the reference speed:")
    print_jobs(summary)
    sentences = sum(int(j["fingerprint"].split()[0])
                    for j in summary["jobs"].values()
                    if j["job"].kind == "codec" and j["fingerprint"])
    tail_s = run_s * summary["tail_ratio"]
    failed = sum(not s.ok for s in samples)
    print(f"{summary['n']} samples; tail at p{summary['tail_p']:.0f} of the "
          "pooled samples; host seconds unless marked")
    print(f"setup_s          {statistics.median(setup):.4f} s  "
          f"(median of {len(setup)})")
    print(f"run_s            {run_s:.4f} s  (all jobs), "
          f"run_s_tail {tail_s:.4f} s")
    print(f"  embed run      {subtotal(summary, 'run'):.4f} s")
    print(f"  verify_s       {subtotal(summary, 'verify'):.4f} s  "
          "(embed verify)")
    if sentences:
        print(f"  codec          {subtotal(summary, 'codec'):.4f} s, "
              f"sentences_per_s {sentences / subtotal(summary, 'codec'):.1f}"
              f" ({sentences} sentences per pass over the jobs)")
    print(f"peak_rss_mb      {rss_mb:.2f} MB")
    print(f"fail_frac        {failed / len(samples):.4f}  "
          f"({failed}/{len(samples)})")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "run_s": metric(run_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return metrics, samples


def traced(jobs, seed: int) -> tuple[dict, list]:
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    fingerprints: dict = {}
    plain, tracked = [], []
    # interleaved, so that host drift hits both alike; the spans of the
    # second traced sample of a job replace those of the first
    for job in jobs:
        for _ in range(TRACE_PAIRS):
            plain += run_round([job], seed, fingerprints)
            tracked += run_round([job], seed, fingerprints, spans_dir)
    last = tracked[TRACE_PAIRS - 1::TRACE_PAIRS]
    layers = traced_layers(last, spans_dir)
    summary = summarize(jobs, tracked)
    overhead = summary["run_s"] - summarize(jobs, plain)["run_s"]
    layers["trace.overhead_s"] = overhead
    print_jobs(summary)
    for s in last:
        print(f"  {s.job.name}: {s.detail}")
    print(f"{'function':<46}{'calls':>10}{'self_s':>11}")
    for key in sorted(k for k in layers if k.endswith(".calls")):
        name = key[: -len(".calls")]
        self_s = layers.get(f"{name}.self_s")
        print(f"{name:<46}{layers[key]:>10}"
              + (f"{self_s:>11.4f}" if self_s is not None else ""))
    for key in SIZE_KEYS:
        print(f"{key:<46}{layers.get(key, 0):>10}")
    print(f"trace overhead {overhead:.4f} s (traced minus untraced medians)")
    names = per_layer_names()
    metrics = {k: metric(layers.get(k, 0),
                         "s" if k.endswith("_s") else "count") for k in names}
    return metrics, plain + tracked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtrees", "cli.py")):
        print(f"error: no qtrees sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.trace:
            metrics, samples = traced(jobs, args.seed)
        else:
            metrics, samples = end_to_end(jobs, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = sum(not s.ok for s in samples)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
