"""The staged runner shared by `run`, `verify` and `export`.

A `Pipeline` holds one config's chain: space, ball graph, covering, color
trees with the stage-1 map, labelling and stage 2.  Each artifact is built
once, on first use, and a failure while building it is raised as a
`StageError` naming its stage.  Each suite's checks also run once, for
whichever command reads them; the report adds the numbers that only it
carries.

A run is deterministic for a fixed config: identical configs produce
byte-identical reports (no timestamps, sorted keys, exact rationals).
"""
from __future__ import annotations

import os
from functools import cached_property

from qtrees import approx, coverings, metric
from qtrees.approx import ApproxGraph, approx_suite, estimate_delta, \
    export_edges, graph_summary, visual_metric_constants
from qtrees.coverings import CoveringSequence, \
    generate_covering_sequence, save_covering_json
from qtrees.labelling import Labelling, Stage2, build_labelling, \
    build_stage2, check_binary_stage, check_net_coloring, check_sentences, \
    embedding_dump, min_kappa, stage2_suite
from qtrees.metric import FiniteMetricSpace, ScaleParams, generate_space, \
    load_space_csv
from qtrees.presets import PipelineConfig
from qtrees.reporting import CheckResult, dump_json, jsonable, suite_dict
from qtrees.stage1 import PairRow, Stage1, embed_stage1, stage1_suite, \
    write_pairs_csv
from qtrees.trees import check_color_tree, export_tree

PIPELINE_SUITES = ("approx", "covering", "stage1", "stage2")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def build_space(config: PipelineConfig) -> FiniteMetricSpace:
    if config.space_file:
        return load_space_csv(config.space_file)
    return generate_space(config.space_kind, config.space_param)


class Pipeline:
    """The artifacts, checks and report of one config, each built once."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self._built: dict[str, object] = {}
        self._suites: dict[str, tuple[list[CheckResult], object]] = {}

    def _once(self, name: str, stage: str, build):
        """The artifact ``name``, built on first use.  A failure becomes a
        StageError naming ``stage``; later uses raise it again without
        building again."""
        if name not in self._built:
            try:
                self._built[name] = build()
            except StageError:
                raise  # an earlier stage failed and is already named
            except Exception as exc:
                self._built[name] = StageError(stage, exc)
        out = self._built[name]
        if isinstance(out, StageError):
            raise out from out.cause
        return out

    # -- the chain ----------------------------------------------------------

    @property
    def space(self) -> FiniteMetricSpace:
        return self._once("space", "space", lambda: build_space(self.config))

    @property
    def scale(self) -> ScaleParams:
        return self._once("scale", "space", lambda: ScaleParams.for_space(
            self.space, self.config.r, self.config.max_level))

    @property
    def graph(self) -> ApproxGraph:
        return self._once("graph", "approximation",
                          lambda: approx.build_approximation(self.space,
                                                             self.scale))

    @property
    def seq(self) -> CoveringSequence:
        cfg = self.config
        return self._once("seq", "covering",
                          lambda: generate_covering_sequence(
                              cfg.covering_kind, self.space, self.scale,
                              self.scale.max_level, graph=self.graph,
                              n_colors=cfg.n_colors, **cfg.params()))

    @property
    def stage1(self) -> Stage1:
        return self._once("stage1", "stage1",
                          lambda: embed_stage1(self.graph, self.seq))

    @property
    def labelling(self) -> Labelling:
        return self._once("labelling", "labelling",
                          lambda: build_labelling(self.stage1))

    @property
    def kappa(self) -> int:
        if self.config.kappa is not None:
            return self.config.kappa
        return min_kappa(len(self.seq.colors))

    @property
    def stage2(self) -> Stage2:
        return self._once("stage2", "stage2", lambda: build_stage2(
            self.labelling, self.kappa,
            research_kappa=self.config.research_kappa))

    # -- checks -------------------------------------------------------------

    def checks(self, suite: str) -> list[CheckResult]:
        """The checks of one of PIPELINE_SUITES."""
        return self._suite(suite)[0]

    @property
    def pair_rows(self) -> list[PairRow]:
        return self._suite("stage1")[1]

    def _suite(self, suite: str) -> tuple[list[CheckResult], object]:
        """(checks, what else the suite's checker returned), run once."""
        if suite not in self._suites:
            extra = None
            if suite == "approx":
                checks = approx_suite(self.graph)
            elif suite == "covering":
                checks = [self.seq.contract]
            elif suite == "stage1":
                emb = self.stage1
                checks = [check_color_tree(self.seq, emb.trees[c],
                                           self.scale.k0)
                          for c in emb.colors]
                pair_checks, extra = stage1_suite(emb)
                checks += pair_checks
            elif suite == "stage2":
                checks, extra = stage2_suite(self.stage2)
                checks.append(check_net_coloring(self.graph,
                                                 self.labelling.coloring))
                checks.append(check_sentences(self.labelling))
                checks.append(check_binary_stage(self.stage2))
            else:
                raise ValueError(f"unknown pipeline suite {suite!r}")
            self._suites[suite] = checks, extra
        return self._suites[suite]

    # -- report -------------------------------------------------------------

    @cached_property
    def report(self) -> dict:
        """Every suite, plus the numbers only the report carries."""
        graph, seq, scale = self.graph, self.seq, self.scale
        suites = {name: suite_dict(name, self.checks(name))
                  for name in PIPELINE_SUITES}
        # reported, never asserted: how deep inside members the points sit
        suites["covering"]["lebesgue"] = {
            str(j): coverings.lebesgue_number(seq.family(j), self.space)
            for j in sorted(seq.levels)
        }
        suites["stage2"]["fit"] = jsonable(self._suite("stage2")[1])

        band = None
        if sum(1 for v in graph.vertices if v.level == scale.max_level) >= 2:
            band = visual_metric_constants(graph)

        return {
            "config": _config_dict(self.config, self.kappa),
            "graph": graph_summary(graph, delta=estimate_delta(graph),
                                   band=band),
            "doubling": metric.doubling_estimate(self.space),
            "palette": self.labelling.coloring.palette_size,
            "treeValence": {str(c): self.stage1.trees[c].max_valence()
                            for c in seq.colors},
            "suites": suites,
            "ok": all(s["ok"] for s in suites.values()),
        }

    @property
    def ok(self) -> bool:
        return self.report["ok"]


def run_pipeline(config: PipelineConfig) -> Pipeline:
    """The pipeline of a config, with its artifact files written when the
    config names an output directory.  Whatever is not written is built
    when first read."""
    pipe = Pipeline(config)
    if config.out_dir:
        export_artifacts(pipe, config.out_dir)
    return pipe


def _config_dict(config: PipelineConfig, kappa: int) -> dict:
    return {
        "space": config.space_file or
                 f"{config.space_kind}({config.space_param})",
        "r": config.r,
        "maxLevel": config.max_level,
        "covering": config.covering_kind,
        "colors": config.n_colors,
        "kappa": kappa,
        "preset": config.preset,
        # presets pin parameter tuples known to validate; anything else is
        # exploratory and marked as such
        "pinned": bool(config.preset),
    }


def export_artifacts(pipe: Pipeline, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    dump_json(pipe.report, os.path.join(out_dir, "report.json"))
    export_edges(pipe.graph, os.path.join(out_dir, "graph.edges"))
    save_covering_json(pipe.seq, os.path.join(out_dir, "covering.json"))
    tree_dir = os.path.join(out_dir, "trees")
    os.makedirs(tree_dir, exist_ok=True)
    for c, tree in pipe.stage1.trees.items():
        export_tree(tree, os.path.join(tree_dir, f"color{c}.txt"))
    write_pairs_csv(pipe.pair_rows, os.path.join(out_dir, "pairs.csv"))
    dump_json(embedding_dump(pipe.stage2),
              os.path.join(out_dir, "embedding.json"))
