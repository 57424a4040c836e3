"""Command line front end.

    embed run    --preset cantor --out results/
    embed verify stage2 --preset circle
    embed export --space cantor --depth 3 --r 1/9 --out dump/

Exit status is nonzero whenever a validator or invariant check fails.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from qtrees.pipeline import StageError, run_pipeline
from qtrees.presets import PRESETS, SPACES, config_for
from qtrees.reporting import json_text
from qtrees.verify import SUITES, run_suite


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="pinned configuration known to validate")
    p.add_argument("--space", dest="space_kind", choices=sorted(SPACES),
                   help="generated test space")
    p.add_argument("--space-file", help="distance matrix file (see README)")
    p.add_argument("--depth", "--n", dest="space_param", type=int,
                   help="generator size (cantor depth, circle N, grid n)")
    p.add_argument("--r", dest="r", type=Fraction,
                   help="scale parameter as p/q, at most 1/6")
    p.add_argument("--max-level", dest="max_level", type=int,
                   help="truncation level (default: full separation)")
    p.add_argument("--kappa", type=int,
                   help="page capacity (default 15*colors+1)")
    p.add_argument("--colors", dest="n_colors", type=int,
                   help="covering colors")
    p.add_argument("--seed", type=int,
                   help="seed of the randomized morse_thue checks; only "
                        "verify morse_thue and verify all read it")
    p.add_argument("--out", dest="out_dir", help="artifact directory")
    p.add_argument("--research-kappa", action="store_true",
                   help="allow page capacities below the proven bound")


def _config_from_args(args) -> "PipelineConfig":
    overrides = {
        k: getattr(args, k)
        for k in ("space_kind", "space_param", "space_file", "r", "max_level",
                  "kappa", "n_colors", "seed", "out_dir")
        if getattr(args, k, None) is not None
    }
    if args.research_kappa:
        overrides["research_kappa"] = True
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

    args = parser.parse_args(argv)
    config = _config_from_args(args)

    try:
        if args.command == "verify":
            report = run_suite(config, args.suite)
            print(json_text(report), end="")
            return 0 if report["ok"] else 1
        result = run_pipeline(config)
        if args.command == "run":
            print(json_text(result.report), end="")
        else:
            print(f"artifacts written to {config.out_dir}")
        return 0 if result.ok else 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
