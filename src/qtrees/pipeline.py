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
from typing import TYPE_CHECKING

from qtrees import approx, coverings, metric
from qtrees.approx import ApproxGraph, approx_suite, estimate_delta, \
    export_edges, graph_summary, visual_metric_constants
from qtrees.coverings import CoveringError, CoveringSequence, \
    build_covering, save_covering_json
from qtrees.metric import FiniteMetricSpace, ScaleParams, generate_space, \
    load_space_csv
from qtrees.presets import PRESETS, PipelineConfig
# StageError is defined with the reports, so that the CLI catches it
# without loading this module; importers read it from here as well
from qtrees.reporting import FAIL, PIPELINE_SUITES, CheckResult, \
    StageError, dump_json, json_text, jsonable, suite_dict

if TYPE_CHECKING:
    from qtrees.labelling import Labelling, Stage2
    from qtrees.stage1 import PairRow, Stage1


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
        def build():
            scale = ScaleParams.for_space(self.space, self.config.r,
                                          self.config.max_level)
            levels = scale.max_level - scale.k0
            if levels > metric.MAX_LEVELS:
                raise ValueError(f"max_level {scale.max_level} is {levels} "
                                 f"levels below the base level {scale.k0}, "
                                 f"above the limit of {metric.MAX_LEVELS}")
            if scale.max_level == scale.k0:
                raise ValueError(f"max_level {scale.max_level} is the base "
                                 "level: the graph would be its root alone")
            if scale.max_level < 1:
                raise ValueError(f"max_level {scale.max_level} is below 1: "
                                 "the covering would be level 0 alone, and "
                                 "every vertex would map to its tree root")
            return scale
        return self._once("scale", "space", build)

    @property
    def graph(self) -> ApproxGraph:
        return self._once("graph", "approximation",
                          lambda: approx.build_approximation(self.space,
                                                             self.scale))

    @property
    def seq(self) -> CoveringSequence:
        cfg = self.config

        def build():
            graph = self.graph  # a failed earlier stage is reported first
            if cfg.space_file:
                raise CoveringError(
                    "no covering generator takes a space loaded from a file")
            return build_covering(cfg.covering_kind, graph,
                                  n_colors=cfg.n_colors)
        return self._once("covering", "covering", build)

    # The tree side (``trees``, ``stage1``, ``labelling``) is imported where
    # its artifacts and suites are built, so that the commands that stop at
    # the covering never load it.

    @property
    def stage1(self) -> Stage1:
        def build():
            from qtrees.stage1 import embed_stage1
            return embed_stage1(self.graph, self.seq)
        return self._once("stage1", "stage1", build)

    @property
    def labelling(self) -> Labelling:
        def build():
            from qtrees.labelling import build_labelling
            return build_labelling(self.stage1)
        return self._once("labelling", "labelling", build)

    @property
    def stage2(self) -> Stage2:
        def build():
            from qtrees.labelling import build_stage2, min_kappa
            # the covering gives C, so a capacity below the floor is
            # refused before stage 1 and the labelling are built; a failed
            # space, graph or covering is still reported first
            floor = min_kappa(len(self.seq.colors))
            kappa = floor if self.config.kappa is None else self.config.kappa
            if kappa < floor:
                raise ValueError(f"page capacity {kappa} below the proven "
                                 f"bound 15*colors+1 = {floor}")
            return build_stage2(self.labelling, kappa)
        return self._once("stage2", "stage2", build)

    # -- checks -------------------------------------------------------------

    def checks(self, suite: str) -> list[CheckResult]:
        """The checks of one of PIPELINE_SUITES."""
        return self._suite(suite)[0]

    def suite_report(self, suite: str) -> dict:
        """One of PIPELINE_SUITES as `embed verify` prints it.  A covering
        that fails its contract is reported as a failed
        ``covering-contract`` check with the reason as its note; every
        other stage failure is raised."""
        try:
            return suite_dict(suite, self.checks(suite))
        except StageError as exc:
            if not isinstance(exc.cause, CoveringError):
                raise
            return suite_dict(suite, [
                CheckResult("covering-contract", FAIL, notes=str(exc.cause))])

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
                from qtrees.stage1 import stage1_suite
                from qtrees.trees import check_color_tree
                emb = self.stage1
                checks = [check_color_tree(emb.seq, emb.trees[c],
                                           self.scale.k0)
                          for c in emb.colors]
                pair_checks, extra = stage1_suite(emb)
                checks += pair_checks
            elif suite == "stage2":
                from qtrees.labelling import check_binary_stage, \
                    check_net_coloring, check_sentences, stage2_suite
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
        """Every suite, plus the numbers only the report carries.  Stage 2
        is built before any suite runs, so a refused page capacity costs
        no check."""
        graph, seq, scale = self.graph, self.seq, self.scale
        stage2 = self.stage2
        suites = {name: suite_dict(name, self.checks(name))
                  for name in PIPELINE_SUITES}
        # reported, never asserted: how deep inside members the points sit
        suites["covering"]["lebesgue"] = {
            str(j): coverings.lebesgue_number(seq, j)
            for j in sorted(seq.levels)
        }
        suites["stage2"]["fit"] = jsonable(self._suite("stage2")[1])

        band = None
        if sum(1 for v in graph.vertices if v.level == scale.max_level) >= 2:
            band = visual_metric_constants(graph)

        return {
            "config": _config_dict(self.config, stage2.kappa),
            "graph": graph_summary(graph, delta=estimate_delta(graph),
                                   band=band),
            "doubling": metric.doubling_estimate(self.space),
            "palette": self.labelling.coloring.palette_size,
            "treeValence": {str(c): self.stage1.trees[c].max_valence()
                            for c in seq.colors},
            "suites": suites,
            "ok": all(s["ok"] for s in suites.values()),
        }

    @cached_property
    def report_text(self) -> str:
        """The report's JSON text, as `run` prints it.  `export_artifacts`
        sets it to the text it wrote to report.json, so the report is
        serialized once."""
        return json_text(self.report)

    @property
    def ok(self) -> bool:
        return self.report["ok"]


def run_pipeline(config: PipelineConfig) -> Pipeline:
    """The pipeline of a config, with its artifact files written when the
    config names an output directory.  Whatever is not written is built
    when first read.  A file that cannot be written is a StageError of
    the export stage."""
    pipe = Pipeline(config)
    if config.out_dir:
        try:
            export_artifacts(pipe, config.out_dir)
        except OSError as exc:
            raise StageError("export", exc) from exc
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
        # a preset pins a config known to validate; overriding anything but
        # the seed or the output directory, which no report byte reads, unpins
        "pinned": config._replace(seed=0, out_dir=None) ==
                  PRESETS.get(config.preset),
    }


def export_artifacts(pipe: Pipeline, out_dir) -> None:
    from qtrees.labelling import embedding_dump
    from qtrees.stage1 import write_pairs_csv
    from qtrees.trees import export_tree
    os.makedirs(out_dir, exist_ok=True)
    pipe.report_text = dump_json(pipe.report,
                                 os.path.join(out_dir, "report.json"))
    export_edges(pipe.graph, os.path.join(out_dir, "graph.edges"))
    save_covering_json(pipe.seq, os.path.join(out_dir, "covering.json"))
    tree_dir = os.path.join(out_dir, "trees")
    os.makedirs(tree_dir, exist_ok=True)
    for c, tree in pipe.stage1.trees.items():
        export_tree(tree, os.path.join(tree_dir, f"color{c}.txt"))
    write_pairs_csv(pipe.pair_rows, os.path.join(out_dir, "pairs.csv"))
    dump_json(embedding_dump(pipe.stage2),
              os.path.join(out_dir, "embedding.json"))
