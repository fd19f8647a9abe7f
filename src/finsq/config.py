"""Run configuration: schema-validated parsing with path-qualified errors."""

from __future__ import annotations

import importlib.resources
import json
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


def _validate(instance, schema: dict, where: str) -> None:
    import jsonschema

    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        path = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise ConfigError(f"{where}: {path}: {e.message}")


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and fill in defaults.

    The metric request is validated against its own schema so error paths
    point inside the metric object rather than at an opaque oneOf failure.
    """
    if not isinstance(doc, dict):
        raise ConfigError("(root): configuration must be an object")
    _validate(doc, _schema("config.schema.json"), "config")
    _validate(doc["metric"], _schema("metric.schema.json"), "config/metric")
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
