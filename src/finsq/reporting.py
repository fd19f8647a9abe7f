"""Residual summaries and machine-readable JSON reports.

Reports are deterministic: fixed key order, fixed float formatting through
json, no timestamps inside the comparison payload.  Two runs with the same
configuration and seed produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def json_float(v: float) -> Optional[float]:
    """v as a strict JSON number: null where it is not finite."""
    return float(v) if math.isfinite(v) else None


@dataclass(frozen=True)
class ResidualStat:
    """Summary of one residual family over a sample set."""

    name: str
    max: float
    mean: float
    count: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max": json_float(self.max),
            "mean": json_float(self.mean),
            "count": int(self.count),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
        }


def residual_stat(name: str, values, tolerance: float) -> ResidualStat:
    a = np.asarray([float(v) for v in values], float)
    if a.size == 0:
        return ResidualStat(name=name, max=float("nan"), mean=float("nan"),
                            count=0, tolerance=float(tolerance))
    return ResidualStat(name=name, max=float(np.max(a)), mean=float(np.mean(a)),
                        count=int(a.size), tolerance=float(tolerance))


@dataclass(frozen=True)
class CheckEntry:
    """One named check inside a suite, with its JSON-able evidence."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "detail": self.detail}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: tuple[CheckEntry, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "checks": [c.to_json() for c in self.checks],
        }


def versions_block() -> dict:
    import platform

    from ._kernels import backend_name
    from . import __version__

    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jet_backend": backend_name(),
    }


def build_report(config: dict, results: list[SuiteResult]) -> dict:
    """Assemble the machine-readable run report.

    Contains no timestamps or host identifiers: the same configuration and
    seed must serialize to the same bytes.
    """
    return {
        "schema": "finsq-report/1",
        "config": config,
        "versions": versions_block(),
        "suites": [r.to_json() for r in results],
        "passed": bool(all(r.passed for r in results)),
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def validate_report(doc: dict) -> None:
    """Check a report against the bundled schema (raises on violation)."""
    import importlib.resources

    import jsonschema

    text = importlib.resources.files("finsq").joinpath("schemas/report.schema.json").read_text()
    jsonschema.validate(doc, json.loads(text))
