"""The records of the pipeline are plain classes and NamedTuples.  The hashed
ones keep value equality, hashing, ``repr`` and immutability, fields left
out of equality stay out, and the constructors still reject empty
certificates and an arc that is the whole circle."""
from fractions import Fraction as F

import pytest

from qtrees.coverings import CoveringElement
from qtrees.geometry import Arc, BoxRegion, LineInterval, WholeSpace
from qtrees.metric import ScaleParams, generate_space
from qtrees.presets import PRESETS, PipelineConfig, config_for


def value_record(a, b, other, field):
    """``a`` and ``b`` are built apart and equal; ``other`` differs."""
    assert a is not b
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b


def cached_space():
    # the cached Fraction distances stay out of equality
    a = generate_space("cantor", 2)
    assert a.dist[0][1] == a.d(0, 1)
    return value_record(a, generate_space("cantor", 2),
                        generate_space("cantor", 3), "rows")


def cached_powers():
    # so do the cached powers of r
    a = ScaleParams(F(1, 9), 0, 3)
    assert a.sep(2) == F(1, 81)
    return value_record(a, ScaleParams(F(1, 9), 0, 3),
                        ScaleParams(F(1, 9), 0, 4), "max_level")


def arc_circ():
    # the circumference is left out of equality, hashing and repr
    a, b = Arc(F(1, 3), F(1, 2)), Arc(F(1, 3), F(1, 2), F(2))
    assert a.circ != b.circ and "circ" not in repr(b)
    return value_record(a, b, Arc(F(1, 3), F(1, 4)), "length")


def config_overrides():
    cfg = config_for("cantor", kappa=20, seed=3, out_dir=None)
    assert (cfg.kappa, cfg.seed, cfg.preset) == (20, 3, "cantor")
    assert config_for("cantor", kappa=16, seed=0) == PRESETS["cantor"]
    assert config_for(None, space_kind="grid", space_param=5) == \
        PipelineConfig(space_kind="grid", space_param=5, r=F(1, 64),
                       max_level=None, n_colors=3)
    assert PRESETS["cantor"].kappa == 16  # the preset itself is unchanged
    return value_record(config_for("circle"), PRESETS["circle"], cfg, "kappa")


CASES = {
    "whole-space": lambda: value_record(
        WholeSpace(F(1)), WholeSpace(F(1)), WholeSpace(F(2)), "diam"),
    "line-interval": lambda: value_record(
        LineInterval(F(0), F(1, 4)), LineInterval(F(0), F(1, 4)),
        LineInterval(F(0), F(1, 2)), "hi"),
    "arc": lambda: value_record(
        Arc(F(4, 3), F(1, 2)), Arc(F(1, 3), F(1, 2)), Arc(F(0), F(1, 2)),
        "start"),
    "arc-circ": arc_circ,
    "box": lambda: value_record(
        BoxRegion(F(0), F(1), F(0), F(1, 2)),
        BoxRegion(F(0), F(1), F(0), F(1, 2)),
        BoxRegion(F(0), F(1), F(0), F(1)), "y1"),
    "covering-element": lambda: value_record(
        CoveringElement("c0-j1-0", 0, 1, Arc(F(0), F(1, 2))),
        CoveringElement("c0-j1-0", 0, 1, Arc(F(0), F(1, 2))),
        CoveringElement("c0-j1-1", 0, 1, Arc(F(0), F(1, 2))), "uid"),
    "scale-params": cached_powers,
    "pipeline-config": config_overrides,
    "metric-space": cached_space,
    "empty-interval": lambda: pytest.raises(
        ValueError, LineInterval, F(1), F(1)),
    "empty-arc": lambda: pytest.raises(ValueError, Arc, F(0), F(0)),
    "whole-circle-arc": lambda: pytest.raises(ValueError, Arc, F(0), F(1)),
    "empty-box": lambda: pytest.raises(
        ValueError, BoxRegion, F(0), F(1), F(1, 2), F(1, 2)),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_records_keep_their_semantics(case):
    case()
