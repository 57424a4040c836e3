"""Per-space defaults and pinned pipeline configurations.

``SPACES`` holds, per generated space kind, the default size, scale
parameter, covering generator and color count.  Each preset adds to its
space's defaults the truncation level and the page capacity; presets are
known to validate end to end.

The scale parameter is space-dependent: covering members must contain
open balls of diameter 4r^(j+1) while staying below mesh r^j with
same-color members disjoint, and on a densely sampled circle that forces
r <= 1/12; the triadic sample tolerates r = 1/9 because its gaps are
empty.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional


class PipelineConfig(NamedTuple):
    space_kind: str = "cantor"
    space_param: int = 4
    space_file: Optional[str] = None
    r: Fraction = Fraction(1, 9)
    max_level: Optional[int] = 4
    n_colors: int = 1
    kappa: Optional[int] = None  # default and least: 15 * n_colors + 1
    seed: int = 0
    out_dir: Optional[str] = None
    preset: str = ""

    @property
    def covering_kind(self) -> str:
        """The covering generator of the space kind."""
        return SPACES[self.space_kind].covering


class SpaceSpec(NamedTuple):
    """What a generated space of one kind runs with unless told otherwise:
    generator size, scale parameter, covering generator and its colors."""

    size: int
    r: Fraction
    covering: str
    colors: int


SPACES: dict[str, SpaceSpec] = {
    "cantor": SpaceSpec(4, Fraction(1, 9), "ultrametric", 1),
    "circle": SpaceSpec(81, Fraction(1, 12), "shifted_arcs", 2),
    "grid": SpaceSpec(9, Fraction(1, 64), "shifted_cubes", 3),
}


def _defaults(kind: str) -> PipelineConfig:
    spec = SPACES.get(kind, SPACES["cantor"])
    return PipelineConfig(space_kind=kind, space_param=spec.size, r=spec.r,
                          max_level=None, n_colors=spec.colors)


PRESETS: dict[str, PipelineConfig] = {
    "cantor": _defaults("cantor")._replace(max_level=4, kappa=16,
                                          preset="cantor"),
    "circle": _defaults("circle")._replace(max_level=2, kappa=31,
                                          preset="circle"),
    "grid": _defaults("grid")._replace(max_level=1, kappa=46,
                                      preset="grid"),
}


def config_for(preset: Optional[str] = None, **overrides) -> PipelineConfig:
    if preset:
        if preset not in PRESETS:
            raise KeyError(f"unknown preset {preset!r}; "
                           f"have {sorted(PRESETS)}")
        cfg = PRESETS[preset]
    else:
        cfg = _defaults(overrides.get("space_kind", "cantor"))
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return cfg._replace(**overrides)
