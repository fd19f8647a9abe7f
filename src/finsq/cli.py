"""Command-line interface.

    finsq check      run verification suites, emit a JSON report
    finsq construct  build a verified Einstein square metric from a warped spec
    finsq eval       evaluate F, g, spray, ricci, or flag at one (x, y)
    finsq list-metrics

Exit codes: 0 success, 1 a verification check failed, 2 bad usage,
configuration, or construction input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import construct as con
from . import square as sq
from .config import SUITE_NAMES, ConfigError, load_config, parse_config, validate_metric
from .finsler import DegenerateFlagError, StrongConvexityError, curvature_data, f_value
from .geometry import ChartError, one_form_norm_sq, validate_chart
from .registry import MetricResolutionError, builtin_names, resolve_metric, warped_spec
from .reporting import build_report, dumps
from .sampling import SampleTable, SamplingError, sample_inputs
from .suites import TOLERANCES, run_suites


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="finsq",
                                description="Finsler square-metric verification engine")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run verification suites and write a report")
    c.add_argument("--config", help="JSON configuration file")
    c.add_argument("--metric", help="builtin metric name or inline JSON object")
    c.add_argument("--suites", help=f"comma-separated subset of: {', '.join(SUITE_NAMES)}")
    c.add_argument("--samples", type=int, help="sample count override")
    c.add_argument("--seed", type=int, help="sampling seed override")
    c.add_argument("--out", help="write the report here instead of stdout")

    b = sub.add_parser("construct", help="build and verify an Einstein square metric")
    b.add_argument("--dim", type=int, default=4, help="total dimension (factor + 1)")
    b.add_argument("--c", type=_finite_float, default=1.0, dest="c_const",
                   help="homothety constant of the warped form")
    b.add_argument("--d", type=_finite_float, default=0.5, help="warp offset h(t) = c t + d")
    b.add_argument("--factor", choices=("sphere", "flat"), default="sphere")
    b.add_argument("--samples", type=int, default=50)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", help="write the certificate report here instead of stdout")

    e = sub.add_parser("eval", help="evaluate metric quantities at a point")
    e.add_argument("--metric", required=True, help="builtin name or inline JSON object")
    e.add_argument("--x", required=True, help="comma-separated chart point")
    e.add_argument("--y", required=True, help="comma-separated direction")
    e.add_argument("--u", help="flag edge (required for --quantity flag)")
    e.add_argument("--quantity", choices=("F", "g", "spray", "ricci", "flag"),
                   default="F")

    sub.add_parser("list-metrics", help="list builtin metric names")
    return p


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_metric_arg(text: str):
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--metric: invalid JSON: {exc.msg}") from exc
    return text


def _vector(text: str, what: str) -> np.ndarray:
    try:
        v = np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--{what}: expected comma-separated numbers") from exc
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"--{what}: components must be finite")
    return v


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    doc = load_config(args.config).echo() if args.config else {"metric": "berwald"}
    if args.metric is not None:
        doc["metric"] = _parse_metric_arg(args.metric)
    if args.suites is not None:
        doc["suites"] = args.suites.split(",")
    if args.samples is not None:
        doc["samples"] = args.samples
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = parse_config(doc)
    bundle = resolve_metric(cfg.metric)
    results = run_suites(bundle, cfg)
    report = build_report(cfg.echo(), results)
    _emit(dumps(report), args.out)
    ok = report["passed"]
    print(f"{'PASS' if ok else 'FAIL'}: {bundle.name}, "
          f"{sum(len(r.checks) for r in results)} checks in {len(results)} suites",
          file=sys.stderr)
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    # validated as the `check` request for the same construction would be
    cfg = parse_config({
        "metric": {"construct": {"factor": {"type": args.factor, "dim": args.dim - 1},
                                 "c": args.c_const, "d": args.d}},
        "samples": args.samples, "seed": args.seed,
    })
    spec = warped_spec(cfg.metric["construct"])
    cm = con.construct_einstein_square(spec)
    samples = sample_inputs(cm.alpha, cm.beta, cfg.samples, cfg.seed)
    cert = sq.check_einstein_square(SampleTable(cm.metric, samples.points, samples.directions))
    doc = {
        "schema": "finsq-construction/1",
        "name": cm.name,
        "dim": args.dim,
        "c": args.c_const,
        "d": args.d,
        "t_range": list(spec.t_range),
        "expected_constant": cm.expected_constant,
        "certificate": cert.to_json(),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    dev = abs(cert.constant - cm.expected_constant)
    ok = cert.passed and dev <= TOLERANCES["einstein/certificate.constant"]
    print(f"{'PASS' if ok else 'FAIL'}: {cm.name}, fitted constant {cert.constant:.6g}",
          file=sys.stderr)
    return 0 if ok else 1


def _cmd_eval(args) -> int:
    bundle = resolve_metric(validate_metric(_parse_metric_arg(args.metric), "--metric"))
    x = _vector(args.x, "x")
    y = _vector(args.y, "y")
    n = bundle.dim
    if x.shape != (n,) or y.shape != (n,):
        raise ConfigError(f"--x and --y must have {n} components for {bundle.name}")
    if not bundle.alpha.domain(x):
        raise ConfigError(f"--x lies outside the chart of {bundle.name}")
    validate_chart(bundle.alpha, [x])
    b2 = float(one_form_norm_sq(bundle.alpha, bundle.beta, x.tolist()))
    if not b2 < 1.0:
        raise ConfigError(f"--x: b^2 = {b2:.6g}, but {bundle.name} needs b < 1")
    if not np.any(y):
        raise ConfigError("--y must be nonzero")
    M = bundle.metric
    q = args.quantity
    if q == "flag":
        if args.u is None:
            raise ConfigError("--quantity flag requires --u")
        u = _vector(args.u, "u")
        if u.shape != (n,):
            raise ConfigError(f"--u must have {n} components")
    if q == "F":
        value = float(f_value(M, [float(v) for v in x], [float(v) for v in y]))
    else:
        cd = curvature_data(M, x, y)
        if q == "g":
            value = cd.g.tolist()
        elif q == "spray":
            value = cd.spray.tolist()
        elif q == "ricci":
            value = cd.ricci
        else:
            value = cd.flag_curvature(u)
    doc = {"metric": bundle.name, "quantity": q,
           "x": x.tolist(), "y": y.tolist(), "value": value}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "eval":
            return _cmd_eval(args)
        for name in builtin_names():
            print(name)
        return 0
    except (ConfigError, MetricResolutionError, con.ConstructionError, ChartError,
            DegenerateFlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SamplingError, sq.InsufficientSamplesError, StrongConvexityError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
