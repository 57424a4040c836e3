"""Check results and deterministic JSON serialization.

Reports must be byte-identical for identical configs, so everything here
is sorted, fractions are rendered as "p/q" strings, and nothing records
wall-clock time.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
EXPECTED_FAIL = "expected_fail"

MAX_VIOLATIONS_KEPT = 20


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    # Fraction() parses both "p/q" and exact decimal strings.
    return Fraction(s)


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


@dataclass
class CheckResult:
    """Outcome of one named invariant check.  A pass that checked no
    instance is reported as inconclusive."""

    check_id: str
    status: str
    checked: int = 0
    violations: list = field(default_factory=list)
    notes: str = ""

    def add_violation(self, info) -> None:
        self.status = FAIL
        if len(self.violations) < MAX_VIOLATIONS_KEPT:
            self.violations.append(jsonable(info))

    @property
    def ok(self) -> bool:
        return self.status in (PASS, INCONCLUSIVE, EXPECTED_FAIL)

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


def dump_json(data, path) -> None:
    text = json.dumps(jsonable(data), sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def json_text(data) -> str:
    return json.dumps(jsonable(data), sort_keys=True, indent=2) + "\n"
