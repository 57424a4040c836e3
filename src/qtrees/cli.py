"""Command line front end.

    embed run    --preset cantor --out results/
    embed verify stage2 --preset circle
    embed export --space cantor --depth 3 --r 1/9 --out dump/

Exit status is nonzero whenever a validator or invariant check fails.

Each command loads what it runs: `run`, `export` and the pipeline suites
of `verify` load the pipeline, and `verify diary|morse_thue|all` load
`verify`, which loads the pipeline for `all` alone.

`embed` and `python -m qtrees.cli` both start at `launch`, which freezes
the heap (`gc.freeze`) once `main` has returned and then exits through
`sys.exit`.  The interpreter's shutdown collections then skip every
object that was alive at that point, none of which is read again, while
stdio flushes, atexit handlers and the stats that
`python -m cProfile -m qtrees.cli` writes still run.  `main(argv)` never
freezes, so in-process callers keep a heap that collects as before.
"""
from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction

from qtrees.presets import PRESETS, SPACES, config_for
from qtrees.reporting import PIPELINE_SUITES, SUITES, StageError, json_text


def fraction(text: str) -> Fraction:
    """p/q, where argparse reports a zero q as a bad value, like any other."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="pinned configuration known to validate")
    p.add_argument("--space", dest="space_kind", choices=sorted(SPACES),
                   help="generated test space")
    p.add_argument("--space-file", help="distance matrix file (see README)")
    p.add_argument("--depth", "--n", dest="space_param", type=int,
                   help="generator size (cantor depth, circle N, grid n)")
    p.add_argument("--r", dest="r", type=fraction,
                   help="scale parameter as p/q, at most 1/6")
    p.add_argument("--max-level", dest="max_level", type=int,
                   help="truncation level (default: full separation)")
    p.add_argument("--kappa", type=int,
                   help="page capacity, at least 15*colors+1 (the default)")
    p.add_argument("--colors", dest="n_colors", type=int,
                   help="covering colors")
    p.add_argument("--seed", type=int,
                   help="seed of the randomized morse_thue check; only "
                        "verify morse_thue and verify all read it")


def _config_from_args(args) -> "PipelineConfig":
    overrides = {
        k: getattr(args, k)
        for k in ("space_kind", "space_param", "space_file", "r", "max_level",
                  "kappa", "n_colors", "seed", "out_dir")
        if getattr(args, k, None) is not None
    }
    return config_for(args.preset, **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="embed",
        description="build and verify tree embeddings of finite metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline and report")
    _add_config_flags(p_run)

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_config_flags(p_verify)

    p_export = sub.add_parser(
        "export", help="run the full pipeline and write its artifacts "
                       "(default --out .)")
    _add_config_flags(p_export)
    p_export.set_defaults(out_dir=".")
    # verify writes no artifact, so it takes no --out
    for p in (p_run, p_export):
        p.add_argument("--out", dest="out_dir", help="artifact directory")

    args = parser.parse_args(argv)
    for flag, value in (("--kappa", args.kappa), ("--colors", args.n_colors)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return 2
    config = _config_from_args(args)

    try:
        if args.command == "verify":
            if args.suite in PIPELINE_SUITES:
                from qtrees.pipeline import Pipeline
                report = Pipeline(config).suite_report(args.suite)
            else:
                from qtrees.verify import run_suite
                report = run_suite(config, args.suite)
            print(json_text(report), end="")
            return 0 if report["ok"] else 1
        from qtrees.pipeline import run_pipeline
        result = run_pipeline(config)
        if args.command == "run":
            print(json_text(result.report), end="")
        else:
            print(f"artifacts written to {config.out_dir}")
        return 0 if result.ok else 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def launch() -> None:
    """Run ``main`` on the process's arguments and exit with its status,
    with the heap frozen so that shutdown does not walk it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    launch()
