"""Check results, stage errors and deterministic JSON serialization.

Reports must be byte-identical for identical configs, so everything here
is sorted, fractions are rendered as "p/q" strings, and nothing records
wall-clock time.  Every command loads this module, so the CLI names the
suites and catches a `StageError` without loading the pipeline.
"""
from __future__ import annotations

import json
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

MAX_VIOLATIONS_KEPT = 20

# the suites `embed verify` runs by name; "all" runs the others on one
# pipeline
SUITES = ("approx", "covering", "stage1", "diary", "morse_thue", "stage2",
          "all")
# the suites that read a config's pipeline; the codec and sequence suites
# read nothing of the config but the seed
PIPELINE_SUITES = ("approx", "covering", "stage1", "stage2")


class StageError(RuntimeError):
    """A failure while building one stage of a pipeline, named by the
    stage: the CLI reports it as one line and exit status 2."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def jsonable(obj):
    """Recursively convert Fractions/tuples/sets into JSON-friendly values."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    return obj


class CheckResult:
    """Outcome of one named invariant check.  A pass that checked no
    instance is reported as inconclusive."""

    __slots__ = ("check_id", "status", "checked", "violations", "notes")

    def __init__(self, check_id: str, status: str, checked: int = 0,
                 violations: list = None, notes: str = ""):
        self.check_id = check_id
        self.status = status
        self.checked = checked
        self.violations = [] if violations is None else violations
        self.notes = notes

    def add_violation(self, info) -> None:
        self.status = FAIL
        if len(self.violations) < MAX_VIOLATIONS_KEPT:
            self.violations.append(jsonable(info))

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "status": INCONCLUSIVE if self.status == PASS and not self.checked
            else self.status,
            "checked": self.checked,
            "violations": self.violations,
            "notes": self.notes,
        }


def suite_dict(name: str, results: list[CheckResult]) -> dict:
    return {
        "suite": name,
        "ok": all(r.ok for r in results),
        "results": [r.to_dict() for r in sorted(results, key=lambda r: r.check_id)],
    }


def json_text(data) -> str:
    return json.dumps(jsonable(data), sort_keys=True, indent=2) + "\n"


def dump_json(data, path) -> str:
    """Write ``json_text(data)`` to ``path`` and return the text."""
    text = json_text(data)
    with open(path, "w") as fh:
        fh.write(text)
    return text
