"""Run one benchmark job with every traced qtrees function wrapped.

    python3 perfbench/traced.py SPANS_FILE cli ARGS...    # qtrees.cli.main
    python3 perfbench/traced.py SPANS_FILE codec ARGS...  # codec_job.main

Each function in ``SPANS`` is replaced, where it is defined and under every
name another qtrees module imported it as, by a wrapper that records a span
(function, start, end, parent span) in memory.  Functions in ``COUNTS`` are
called too often for a span each; their wrapper only counts calls.  At exit
the spans are written to SPANS_FILE: one JSON header line, then the raw
arrays.  ``perfbench/run.py`` aggregates them.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

SPANS = (
    "metric.doubling_estimate", "metric.maximal_separated_net",
    "approx.build_approximation", "approx.approx_suite",
    "approx.estimate_delta",
    "coverings.generate_covering_sequence",
    "coverings.validate_covering_sequence", "coverings.lebesgue_number",
    "trees.build_color_tree", "trees.check_color_tree",
    "stage1.stage1_suite", "stage1.check_segment_dip",
    "stage1.check_level_escape", "stage1.write_pairs_csv",
    "labelling.build_labelling", "labelling.build_stage2",
    "labelling.stage2_suite", "labelling.check_critical_letters",
    "labelling.check_binary_stage", "labelling.check_sentences",
    "labelling.check_net_coloring", "labelling.embedding_dump",
    "diary.encode_segments", "diary.encode_with_rest", "diary.decode",
    "diary.membership", "diary.member_rest",
    "morse_thue.decorate", "morse_thue.is_cube_free",
    "morse_thue.check_synchronization",
    "verify.run_suite", "verify.diary_suite", "verify.morse_thue_suite",
    "pipeline.run_pipeline", "pipeline.export_artifacts",
    "reporting.dump_json",
)
COUNTS = (
    "approx.ApproxGraph.distances_from", "trees.LevelledTree.lca",
    "stage1.classify_pair",
)
# sizes of the artifacts a call returned, summed over calls
SIZES = {
    "approx.build_approximation": lambda g: {
        "approx.vertices": len(g.vertices), "approx.edges": len(g.edge_kind)},
    "coverings.generate_covering_sequence": lambda seq: {
        "coverings.elements": sum(len(members)
                                  for family in seq.levels.values()
                                  for members in family.values())},
    "stage1.stage1_suite": lambda out: {"stage1.pairs": len(out[1])},
}


class Recorder:
    def __init__(self):
        self.names = list(SPANS)
        self.fn = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls = dict.fromkeys(COUNTS, 0)
        self.sizes: dict[str, int] = {}

    def span(self, name: str, fn):
        idx = self.names.index(name)
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.fn.append(idx)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self.stack.pop()
            if size_of:
                for key, n in size_of(out).items():
                    self.sizes[key] = self.sizes.get(key, 0) + n
            return out
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"qtrees.{m}")
                   for m in {n.split(".")[0] for n in SPANS + COUNTS}}
        importlib.import_module("qtrees.cli")
        loaded = [m for name, m in sys.modules.items()
                  if name.startswith("qtrees")]
        for name in SPANS + COUNTS:
            mod, *owner, attr = name.split(".")
            target = modules[mod]
            for part in owner:
                target = getattr(target, part)
            original = getattr(target, attr)
            wrap = self.span if name in SPANS else self.counter
            wrapped = wrap(name, original)
            setattr(target, attr, wrapped)
            for m in loaded:  # the names other modules imported it as
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def write(self, path: str) -> None:
        header = {"names": self.names, "spans": len(self.start),
                  "calls": self.calls, "sizes": self.sizes}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)


def main(argv: list[str]) -> int:
    spans_file, target, *args = argv
    recorder = Recorder()
    recorder.install()
    if target == "cli":
        from qtrees.cli import main as run
    else:
        from codec_job import main as run
    try:
        return run(args)
    finally:
        recorder.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
