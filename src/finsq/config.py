"""Run configuration: schema-validated parsing with path-qualified errors."""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field

from .suites import SUITE_NAMES, TOLERANCES


class ConfigError(ValueError):
    """Configuration rejected; message carries the JSON path of the problem."""


@dataclass(frozen=True)
class RunConfig:
    metric: object
    suites: tuple[str, ...] = SUITE_NAMES
    samples: int = 100
    seed: int = 0
    max_x: float = 0.8
    b_cap: float = 0.9
    tolerances: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """The configuration as echoed into reports."""
        return {
            "metric": self.metric,
            "suites": list(self.suites),
            "samples": self.samples,
            "seed": self.seed,
            "max_x": self.max_x,
            "b_cap": self.b_cap,
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def _schema(name: str) -> dict:
    text = importlib.resources.files("finsq").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def _path(parts) -> str:
    return "/".join(str(p) for p in parts) or "(root)"


def _non_finite(node, path: tuple = ()):
    """(path, value) of the first non-finite number in a JSON document, or None.

    JSON's Infinity and NaN pass every numeric bound of a schema (NaN fails
    no comparison), so they are refused here instead."""
    if isinstance(node, float):
        return None if math.isfinite(node) else (path, node)
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return None
    for key, value in items:
        found = _non_finite(value, path + (key,))
        if found is not None:
            return found
    return None


def _validate(instance, schema: dict, where: str) -> None:
    import jsonschema
    from jsonschema.exceptions import best_match

    bad = _non_finite(instance)
    if bad is not None:
        path, value = bad
        raise ConfigError(f"{where}: {_path(path)}: {json.dumps(value)} is not a finite number")
    # best_match descends into oneOf branches, so a refusal names the failing
    # field of the branch the request was meant for
    e = best_match(jsonschema.Draft202012Validator(schema).iter_errors(instance))
    if e is not None:
        raise ConfigError(f"{where}: {_path(e.absolute_path)}: {e.message}")


def validate_metric(request, where: str = "metric"):
    """Check a metric request (builtin name or object) against the metric
    schema, refusing non-finite numbers; returns the request.  Both `check`
    (through parse_config) and `eval` validate their metric here."""
    _validate(request, _schema("metric.schema.json"), where)
    return request


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and fill in defaults.

    The metric request is validated against its own schema so error paths
    point inside the metric object rather than at an opaque oneOf failure.
    """
    if not isinstance(doc, dict):
        raise ConfigError("(root): configuration must be an object")
    _validate(doc, _schema("config.schema.json"), "config")
    validate_metric(doc["metric"], "config/metric")
    for key in doc.get("tolerances", {}):
        if key not in TOLERANCES:
            suite = key.split("/")[0] + "/"
            valid = [k for k in TOLERANCES if k.startswith(suite)] or TOLERANCES
            raise ConfigError(f"config: tolerances/{key}: unknown key; valid keys: {', '.join(valid)}")
    return RunConfig(
        metric=doc["metric"],
        suites=tuple(doc.get("suites", SUITE_NAMES)),
        samples=int(doc.get("samples", 100)),
        seed=int(doc.get("seed", 0)),
        max_x=float(doc.get("max_x", 0.8)),
        b_cap=float(doc.get("b_cap", 0.9)),
        tolerances={str(k): float(v) for k, v in doc.get("tolerances", {}).items()},
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(doc)
