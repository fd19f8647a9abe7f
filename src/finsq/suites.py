"""Named verification suites over a metric bundle.

Each suite produces named checks ("suite/check") with residual evidence.
A check applies only where the bundle carries the invariant it verifies;
a suite whose checks all turn out inapplicable fails with the reasons
rather than passing vacuously.

TOLERANCES holds every tolerance key and its default; configuration may
replace any default and name no other key.  A key is the report name of what
it judges: "suite/check" for a single-residual check, "suite/check.family"
for a certificate family, whose default comes from square.TOLERANCES.
Defaults are tightest for exact algebraic identities and loosest for
curvature-level statements.

A run builds one SampleTable over the bundle's metric and samples; every
suite reads its point and flag bundles from it, so each is built once per
run whatever suites run and in whatever order.  Checks on other data (the
deformed pairs of spray-deform, the reduced pair of warped) keep their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import construct as con
from . import geometry as geo
from . import square as sq
from .finsler import SAMPLE_FAILURES, douglas_tensor
from .registry import MetricBundle
from .reporting import CheckEntry, SuiteResult, json_float, residual_stat
from .sampling import SampleSet, SampleTable, sample_inputs

if TYPE_CHECKING:
    from .config import RunConfig

# The square.TOLERANCES table behind each certificate check.
_CERTIFICATES = {
    "einstein/certificate": "einstein-square",
    "einstein/scale-certificate": "einstein-scale",
    "closed/skew": "closedness",
    "spray-deform/conformal": "spray-deform",
    "spray-deform/reduced": "spray-deform",
    "warped/reduced-certificate": "reduced-pair",
}

TOLERANCES = {
    "cfc/flag": 1e-6, "cfc/residual": 1e-6,
    "deformation/conformal-roundtrip": 1e-10, "deformation/reduced-roundtrip": 1e-10,
    "deformation/norm-identities": 1e-12, "deformation/three-expressions": 1e-9,
    "douglas/symmetry": 1e-12, "douglas/euler-trace": 1e-10, "douglas/magnitude": 1e-6,
    "einstein/finsler-residual": 1e-6,
    "einstein/certificate.constant": 1e-4,  # bound on |fitted - expected constant|
    "pde/square-conformal": 1e-10, "pde/square-reduced": 1e-10, "pde/randers-nav": 1e-10,
    "warped/trace": 1e-7,
    **{f"{check}.{fam}": tol for check, kind in _CERTIFICATES.items()
       for fam, tol in sq.TOLERANCES[kind].items()},
}


@dataclass(frozen=True)
class SuiteContext:
    bundle: MetricBundle
    samples: SampleSet
    config: RunConfig
    table: SampleTable

    def tol(self, name: str) -> float:
        return float(self.config.tolerances.get(name, TOLERANCES[name]))

    def cert_tols(self, check: str) -> dict:
        return {fam: self.tol(f"{check}.{fam}") for fam in sq.TOLERANCES[_CERTIFICATES[check]]}


def _stat_entry(ctx: SuiteContext, name: str, values, extra: dict | None = None) -> CheckEntry:
    stat = residual_stat(name, values, ctx.tol(name))
    detail = {"residuals": {name.rsplit("/", 1)[-1]: stat.to_json()}}
    if extra:
        detail.update(extra)
    return CheckEntry(name=name, passed=stat.passed, detail=detail)


def _cert_entry(name: str, cert, extra_passed: bool = True, extra: dict | None = None) -> CheckEntry:
    detail = cert.to_json()
    if extra:
        detail.update(extra)
    return CheckEntry(name=name, passed=bool(cert.passed and extra_passed), detail=detail)


# -- suites ----------------------------------------------------------------------


def _suite_einstein(ctx: SuiteContext):
    b = ctx.bundle
    if b.square_data:
        # An Einstein square metric in dimension >= 3 is Ricci-flat, and the
        # certificate's finsler-ricci family checks Ric = 0 at every sample:
        # for square data it is the Finsler Einstein check.
        cert = sq.check_einstein_square(
            ctx.table, tolerances=ctx.cert_tols("einstein/certificate"),
            b_cap=ctx.config.b_cap)
        extra_ok = True
        extra = {}
        if b.expected_characterization_constant is not None:
            dev = abs(cert.constant - b.expected_characterization_constant)
            extra = {"expected_constant": b.expected_characterization_constant,
                     "constant_deviation": json_float(dev)}
            extra_ok = dev <= ctx.tol("einstein/certificate.constant")
        scale = sq.check_einstein_scale_system(
            ctx.table, tolerances=ctx.cert_tols("einstein/scale-certificate"),
            b_cap=ctx.config.b_cap)
        return [_cert_entry("einstein/certificate", cert, extra_ok, extra),
                _cert_entry("einstein/scale-certificate", scale)], []
    if b.expected_einstein_constant is None:
        return [], ["certificates need square alpha-beta data",
                    "no Einstein constant is known for this metric"]
    vals = [ctx.table.flag(k).einstein_residual(b.expected_einstein_constant)
            for k in range(len(ctx.table))]
    return [_stat_entry(ctx, "einstein/finsler-residual", vals,
                        {"constant": b.expected_einstein_constant})], []


def _suite_cfc(ctx: SuiteContext):
    b = ctx.bundle
    if b.expected_flag is None:
        return [], ["no constant flag curvature is known for this metric"]
    K = b.expected_flag
    flags, resid = [], []
    for k, u in enumerate(ctx.samples.edges):
        cd = ctx.table.flag(k)
        flags.append(abs(cd.flag_curvature(u) - K))
        resid.append(cd.cfc_residual(K))
    return [
        _stat_entry(ctx, "cfc/flag", flags, {"expected": K}),
        _stat_entry(ctx, "cfc/residual", resid, {"expected": K}),
    ], []


def _suite_deformation(ctx: SuiteContext):
    b = ctx.bundle
    if not b.square_data:
        return [], ["deformations are defined for square alpha-beta data"]
    pts, dirs = ctx.samples.points, ctx.samples.directions
    al, be = b.alpha, b.beta
    conf, red, norms, exprs = [], [], [], []
    a_c = sq.from_conformal_pair(*sq.to_conformal_pair(al, be))
    a_r = sq.from_reduced_pair(*sq.to_reduced_pair(al, be))
    for x, y in zip(pts, dirs):
        X = [float(v) for v in x]
        a0 = al.matrix(x)
        b0 = np.array([float(v) for v in be.components(X)])
        scale = 1.0 + np.max(np.abs(a0))
        for pair, acc in ((a_c, conf), (a_r, red)):
            da = np.max(np.abs(pair[0].matrix(x) - a0))
            db = np.max(np.abs(np.array([float(v) for v in pair[1].components(X)]) - b0))
            acc.append(max(da, db) / scale)
        norms.append(max(sq.norm_identity_residuals(al, be, x).values()))
        f1, f2, f3 = sq.f_square_three_ways(al, be, x, y)
        exprs.append(max(abs(f2 - f1), abs(f3 - f1)) / (1.0 + abs(f1)))
    return [
        _stat_entry(ctx, "deformation/conformal-roundtrip", conf),
        _stat_entry(ctx, "deformation/reduced-roundtrip", red),
        _stat_entry(ctx, "deformation/norm-identities", norms),
        _stat_entry(ctx, "deformation/three-expressions", exprs),
    ], []


def _suite_pde(ctx: SuiteContext):
    checks = []
    lib = sq.phi_library()
    for key in ("square-conformal", "square-reduced", "randers-nav"):
        phi = lib[key]
        vals = []
        for b2 in np.linspace(0.0, 0.8, 20):
            bb = float(np.sqrt(b2))
            for s in np.linspace(-bb, bb, 20):
                vals.append(sq.phi_pde_residual(phi, float(b2), float(s)))
        checks.append(_stat_entry(ctx, f"pde/{key}", vals))
    return checks, []


def _suite_douglas(ctx: SuiteContext):
    b = ctx.bundle
    k = min(len(ctx.samples.points), 10)
    pts = ctx.samples.points[:k]
    dirs = ctx.samples.directions[:k]
    try:
        tensors = douglas_tensor(b.metric, pts, dirs)
    except SAMPLE_FAILURES:
        # raise what the first failing sample raises on its own
        tensors = [douglas_tensor(b.metric, x, y) for x, y in zip(pts, dirs)]
    sym = []
    for D in tensors:
        c = D.components
        sym.append(max(float(np.max(np.abs(c - np.transpose(c, (0, 1, 3, 2))))),
                       float(np.max(np.abs(c - np.transpose(c, (0, 2, 1, 3)))))))
    trace = [D.y_trace_max() for D in tensors]
    checks = [
        _stat_entry(ctx, "douglas/symmetry", sym),
        _stat_entry(ctx, "douglas/euler-trace", trace),
    ]
    skipped = []
    if b.expected_douglas is not None:
        mags = [D.max_abs for D in tensors]
        checks.append(_stat_entry(ctx, "douglas/magnitude", mags,
                                  {"expected": b.expected_douglas}))
    else:
        skipped.append("metric is not expected to be of Douglas type")
    return checks, skipped


def _suite_closed(ctx: SuiteContext):
    cert = sq.check_closedness(ctx.table, tolerances=ctx.cert_tols("closed/skew"))
    return [_cert_entry("closed/skew", cert)], []


def _suite_spray_deform(ctx: SuiteContext):
    b = ctx.bundle
    if not b.square_data:
        return [], ["spray deformation identities need square alpha-beta data"]
    checks = []
    for kind in ("conformal", "reduced"):
        res = sq.deformed_spray_residual(
            ctx.table, kind=kind, tolerances=ctx.cert_tols(f"spray-deform/{kind}"))
        checks.append(_cert_entry(f"spray-deform/{kind}", res))
    return checks, []


def _suite_warped(ctx: SuiteContext):
    rng = np.random.Generator(np.random.Philox(key=443))
    pts = np.column_stack([rng.uniform(-0.4, 0.4, 10),
                           rng.uniform(-0.5, 0.5, 10), rng.uniform(-0.5, 0.5, 10)])
    res = con.warped_trace_residual(
        geo.sphere(2, 1.3), lambda t: 1.0 + 0.3 * t * t,
        lambda t: 0.6 * t, lambda t: 0.6, (-0.5, 0.5), pts)
    checks = [_stat_entry(ctx, "warped/trace", [res],
                          {"fixture": "dt^2 + (1 + 0.3 t^2)^2 sphere(2, k=1.3)"})]
    if ctx.bundle.construction is not None:
        cm = ctx.bundle.construction
        cert = sq.check_reduced_pair(
            SampleTable(cm.metric_reduced, ctx.samples.points),
            tolerances=ctx.cert_tols("warped/reduced-certificate"))
        checks.append(_cert_entry("warped/reduced-certificate", cert))
    return checks, []


_SUITES = {
    "cfc": _suite_cfc,
    "closed": _suite_closed,
    "deformation": _suite_deformation,
    "douglas": _suite_douglas,
    "einstein": _suite_einstein,
    "pde": _suite_pde,
    "spray-deform": _suite_spray_deform,
    "warped": _suite_warped,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(bundle: MetricBundle, cfg: RunConfig) -> list[SuiteResult]:
    """Run the configured suites over one bundle, in the requested order."""
    samples = sample_inputs(bundle.alpha, bundle.beta, cfg.samples, cfg.seed,
                            max_x=cfg.max_x, b_cap=cfg.b_cap)
    ctx = SuiteContext(bundle=bundle, samples=samples, config=cfg,
                       table=SampleTable(bundle.metric, samples.points, samples.directions))

    def run_one(name: str) -> SuiteResult:
        checks, skipped = _SUITES[name](ctx)
        if not checks:
            reason = "; ".join(skipped) or "no applicable checks"
            return SuiteResult(name, False,
                               (CheckEntry(f"{name}/skipped", False, {"reason": reason}),))
        return SuiteResult(name, all(c.passed for c in checks), tuple(checks))

    return [run_one(name) for name in cfg.suites]
