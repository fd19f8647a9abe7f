"""Square metrics F = (alpha + beta)^2 / alpha and their two companion pairs.

The square metric can be rewritten over deformed Riemannian data in two
ways, and both rewrites turn the Einstein condition into classical
equations on the deformed pair:

  conformal pair:  u_ij = (1 - b^2)^2 a_ij,  v_i = sqrt(1 - b^2) b_i.
      F = (sqrt(1 + v^2) u + v)^2 / u where u^2 = u_ij y^i y^j.  F is
      Einstein iff Ric(u) = -(n-1) c^2 u^2 and v_{i|j} = c sqrt(1 + v^2) u_ij
      for a constant c.

  reduced pair:    w_ij = (1 - b^2)^3 (a_ij - b_i b_j),  z_i = (1 - b^2)^2 b_i.
      F is Einstein iff w is Ricci-flat and z_{i|j} = c w_ij (a homothety).

On the original data the same condition reads, for a constant c,

      b_{i|j} = c (1 - b^2) [ (1 + 2 b^2) a_ij - 3 b_i b_j ]
      Ric(a)_ij = c^2 (1 - b^2)^2 [ -(5(n-1) + 2(2n-5) b^2) a_ij
                                    + 6 (n-2) b_i b_j ]

and any Einstein square metric in dimension >= 3 is Ricci-flat as a
Finsler metric.  A pointwise-scale variant replaces c (1 - b^2) by a
function tau(x) subject to tau_i = -2 tau^2 b_i, which forces
tau / (1 - b^2) to be constant.

Everything here is check code: it fits the constant from the data, then
reports residuals of every equation the characterization asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .finsler import GeneralABMetric, PhiFunction, f_value
from .geometry import OneFormField, RiemannMetric, geodesic_spray, one_form_norm_sq
from .jets import sqrt
from .reporting import ResidualStat, json_float, residual_stat
from .sampling import SampleTable


# -- profile functions -----------------------------------------------------------


def _phi_square(s):
    return (1.0 + s) * (1.0 + s)


def _phi_square_conformal(b2, s):
    return (sqrt(1.0 + b2) + s) ** 2


def _phi_square_reduced(b2, s):
    root = sqrt(1.0 - b2 + s * s)
    w = 1.0 - b2
    return (root + s) ** 2 / (w * w * root)


def _phi_randers_nav(b2, s):
    return (sqrt(1.0 - b2 + s * s) - s) / (1.0 - b2)


def phi_library() -> dict[str, PhiFunction]:
    """Named profile functions.

    "square" is the plain profile of F = (alpha + beta)^2 / alpha.  The
    "square-conformal" and "square-reduced" entries express the same F over
    the conformal and reduced pairs; "randers-nav" is the navigation-form
    Randers profile, kept as an unrelated general-kind control.  General
    entries satisfy phi_22 = 2 (phi_1 - s phi_12).
    """
    return {
        "riemannian": PhiFunction("riemannian", "plain", lambda s: 1.0 + 0.0 * s,
                                  d1=lambda s: 0.0, d2=lambda s: 0.0),
        "square": PhiFunction("square", "plain", _phi_square,
                              d1=lambda s: 2.0 * (1.0 + s), d2=lambda s: 2.0),
        "square-conformal": PhiFunction("square-conformal", "general", _phi_square_conformal),
        "square-reduced": PhiFunction("square-reduced", "general", _phi_square_reduced),
        "randers-nav": PhiFunction("randers-nav", "general", _phi_randers_nav),
    }


def randers_phi() -> PhiFunction:
    """phi = 1 + s, the Randers profile (a non-square control case)."""
    return PhiFunction("randers", "plain", lambda s: 1.0 + s,
                       d1=lambda s: 1.0, d2=lambda s: 0.0)


def square_metric(alpha: RiemannMetric, beta: OneFormField, name: str = "") -> GeneralABMetric:
    """F = (alpha + beta)^2 / alpha over the given data."""
    return GeneralABMetric(alpha, beta, phi_library()["square"],
                           name or f"square({alpha.name}, {beta.name})")


def phi_pde_residual(phi: PhiFunction, b2: float, s: float) -> float:
    """|phi_22 - 2 (phi_1 - s phi_12)| for general-kind profiles.

    The identity holds exactly when alpha phi(b^2, s) is a rewrite of a
    square metric over deformed data; it is the obstruction that makes the
    deformed expressions consistent with one fixed F.
    """
    _, p1, _, _, p12, p22 = phi.partials(b2, s)
    return abs(p22 - 2.0 * (p1 - s * p12))


# -- the two deformations -------------------------------------------------------


def _norm_sq_fn(alpha: RiemannMetric, beta: OneFormField):
    return lambda X: one_form_norm_sq(alpha, beta, X)


def to_conformal_pair(alpha: RiemannMetric, beta: OneFormField) -> tuple[RiemannMetric, OneFormField]:
    """(u, v) with u_ij = (1 - b^2)^2 a_ij, v_i = sqrt(1 - b^2) b_i.

    The v-norm obeys v^2 = b^2 / (1 - b^2), so (1 + v^2)(1 - b^2) = 1.
    Requires b < 1 on the domain.
    """
    n = alpha.dim
    b2_of = _norm_sq_fn(alpha, beta)

    def acomp(X):
        A = alpha.components(X)
        w = 1.0 - b2_of(X)
        w2 = w * w
        return [[w2 * A[i][j] for j in range(n)] for i in range(n)]

    def bcomp(X):
        B = beta.components(X)
        root = sqrt(1.0 - b2_of(X))
        return [root * B[i] for i in range(n)]

    def domain(x):
        return alpha.domain(x) and float(b2_of([float(v) for v in x])) < 1.0

    def norm2(X):
        w = b2_of(X)
        return w / (1.0 - w)

    return (
        RiemannMetric(n, acomp, f"conformal({alpha.name})", domain, alpha.sample_box),
        OneFormField(n, bcomp, f"conformal({beta.name})", norm_squared=norm2),
    )


def from_conformal_pair(alpha_c: RiemannMetric, beta_c: OneFormField) -> tuple[RiemannMetric, OneFormField]:
    """Inverse of to_conformal_pair: a_ij = (1 + v^2)^2 u_ij, b_i = sqrt(1 + v^2) v_i."""
    n = alpha_c.dim
    v2_of = _norm_sq_fn(alpha_c, beta_c)

    def acomp(X):
        A = alpha_c.components(X)
        w = 1.0 + v2_of(X)
        w2 = w * w
        return [[w2 * A[i][j] for j in range(n)] for i in range(n)]

    def bcomp(X):
        B = beta_c.components(X)
        root = sqrt(1.0 + v2_of(X))
        return [root * B[i] for i in range(n)]

    def norm2(X):
        w = v2_of(X)
        return w / (1.0 + w)

    return (
        RiemannMetric(n, acomp, f"inv-conformal({alpha_c.name})", alpha_c.domain, alpha_c.sample_box),
        OneFormField(n, bcomp, f"inv-conformal({beta_c.name})", norm_squared=norm2),
    )


def to_reduced_pair(alpha: RiemannMetric, beta: OneFormField) -> tuple[RiemannMetric, OneFormField]:
    """(w, z) with w_ij = (1 - b^2)^3 (a_ij - b_i b_j), z_i = (1 - b^2)^2 b_i.

    The z-norm with respect to w equals b^2 again.  Requires b < 1.
    """
    n = alpha.dim
    b2_of = _norm_sq_fn(alpha, beta)

    def acomp(X):
        A = alpha.components(X)
        B = beta.components(X)
        w = 1.0 - b2_of(X)
        w3 = w * w * w
        return [[w3 * (A[i][j] - B[i] * B[j]) for j in range(n)] for i in range(n)]

    def bcomp(X):
        B = beta.components(X)
        w = 1.0 - b2_of(X)
        w2 = w * w
        return [w2 * B[i] for i in range(n)]

    def domain(x):
        return alpha.domain(x) and float(b2_of([float(v) for v in x])) < 1.0

    return (
        RiemannMetric(n, acomp, f"reduced({alpha.name})", domain, alpha.sample_box),
        OneFormField(n, bcomp, f"reduced({beta.name})", norm_squared=b2_of),
    )


def from_reduced_pair(alpha_r: RiemannMetric, beta_r: OneFormField) -> tuple[RiemannMetric, OneFormField]:
    """Inverse of to_reduced_pair:

        a_ij = (1 - z^2)^{-4} [ (1 - z^2) w_ij + z_i z_j ],
        b_i  = (1 - z^2)^{-2} z_i,

    where z^2 is the w-norm of z.  Requires z < 1.
    """
    n = alpha_r.dim
    z2_of = _norm_sq_fn(alpha_r, beta_r)

    def acomp(X):
        A = alpha_r.components(X)
        B = beta_r.components(X)
        w = 1.0 - z2_of(X)
        w4 = (w * w) * (w * w)
        return [[(w * A[i][j] + B[i] * B[j]) / w4 for j in range(n)] for i in range(n)]

    def bcomp(X):
        B = beta_r.components(X)
        w = 1.0 - z2_of(X)
        w2 = w * w
        return [B[i] / w2 for i in range(n)]

    def domain(x):
        return alpha_r.domain(x) and float(z2_of([float(v) for v in x])) < 1.0

    # the reduced deformation preserves the norm, so the recovered b has
    # b^2 = z^2 (contract a^{-1} = (1-z^2)^3 [w^{-1} - z# z#] with b)
    return (
        RiemannMetric(n, acomp, f"inv-reduced({alpha_r.name})", domain, alpha_r.sample_box),
        OneFormField(n, bcomp, f"inv-reduced({beta_r.name})", norm_squared=z2_of),
    )


def square_from_reduced_pair(alpha_r: RiemannMetric, beta_r: OneFormField,
                             name: str = "") -> GeneralABMetric:
    """The square metric expressed directly over a reduced pair."""
    return GeneralABMetric(alpha_r, beta_r, phi_library()["square-reduced"],
                           name or f"square-over({alpha_r.name})")


def f_square_three_ways(alpha: RiemannMetric, beta: OneFormField, x, y) -> tuple[float, float, float]:
    """F(x, y) as (alpha + beta)^2/alpha and through both deformed pairs."""
    X = [float(v) for v in x]
    Y = [float(v) for v in y]
    lib = phi_library()
    f_plain = f_value(GeneralABMetric(alpha, beta, lib["square"]), X, Y)
    ac, bc = to_conformal_pair(alpha, beta)
    f_conf = f_value(GeneralABMetric(ac, bc, lib["square-conformal"]), X, Y)
    ar, br = to_reduced_pair(alpha, beta)
    f_red = f_value(GeneralABMetric(ar, br, lib["square-reduced"]), X, Y)
    return float(f_plain), float(f_conf), float(f_red)


# -- Einstein certificates -------------------------------------------------------


@dataclass(frozen=True)
class EinsteinCertificate:
    """Outcome of one characterization check over a sample set."""

    name: str
    constant: float
    residuals: dict[str, ResidualStat]
    samples_used: int
    samples_skipped: int

    @property
    def passed(self) -> bool:
        return self.samples_used > 0 and all(r.passed for r in self.residuals.values())

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "constant": json_float(self.constant),
            "samples_used": self.samples_used,
            "samples_skipped": self.samples_skipped,
            "passed": self.passed,
            "residuals": {k: v.to_json() for k, v in sorted(self.residuals.items())},
        }


class InsufficientSamplesError(ValueError):
    """Fewer than two usable samples survived the domain filters."""


# Default tolerance of each residual family, keyed by certificate.
TOLERANCES = {
    "einstein-square": {"covariant": 1e-8, "alpha-ricci": 1e-8, "finsler-ricci": 1e-6},
    "einstein-scale": {"covariant": 1e-8, "gradient": 1e-8, "constancy": 1e-8},
    "closedness": {"skew": 1e-10, "skew-contraction": 1e-10},
    "conformal-pair": {"covariant": 1e-8, "einstein": 1e-8},
    "reduced-pair": {"homothety": 1e-8, "ricci-flat": 1e-8},
    "spray-deform": {"identity": 1e-7, "precondition": 1e-8},
}


def _select(table: SampleTable, b_cap: float) -> tuple[list[int], int]:
    """Indices of the table's points inside the chart with b < b_cap, and the
    number skipped; an index selects the point's bundles and its own
    direction."""
    alpha, beta = table.alpha, table.beta
    used = [k for k, x in enumerate(table.points)
            if alpha.domain(x)
            and float(one_form_norm_sq(alpha, beta, [float(v) for v in x])) < b_cap * b_cap]
    if len(used) < 2:
        raise InsufficientSamplesError(
            f"{alpha.name}: only {len(used)} usable samples out of {len(table)}")
    return used, len(table) - len(used)


def _fit(data, shapes) -> float:
    """Least-squares c in b_{i|j} = c * shape over all used points."""
    num = sum(float(np.sum(bd.bij * m)) for bd, m in zip(data, shapes))
    den = sum(float(np.sum(m * m)) for m in shapes)
    return num / den if den > 1e-30 else 0.0


def _relative(lhs, rhs):
    """max|lhs - rhs| / (1 + max|lhs| + max|rhs|)."""
    return np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs)))


def _certificate(name: str, kind: str, constant: float, residuals: dict, used, skipped: int,
                 overrides: Optional[dict] = None) -> EinsteinCertificate:
    """Package per-family residual lists, each judged against its tolerance in
    TOLERANCES[kind] unless overrides replaces it."""
    tol = {**TOLERANCES[kind], **(overrides or {})}
    return EinsteinCertificate(
        name=name, constant=constant,
        residuals={fam: residual_stat(fam, vals, tol[fam]) for fam, vals in residuals.items()},
        samples_used=len(used), samples_skipped=skipped)


def _covariant_shape(bd) -> np.ndarray:
    """(1 - b^2) [ (1 + 2 b^2) a_ij - 3 b_i b_j ], the common right-hand shape."""
    return (1.0 - bd.b2) * ((1.0 + 2.0 * bd.b2) * bd.a - 3.0 * np.outer(bd.b_lower, bd.b_lower))


def check_einstein_square(table: SampleTable, tolerances: Optional[dict] = None,
                          b_cap: float = 0.95) -> EinsteinCertificate:
    """Constant-scale Einstein characterization of F = (alpha + beta)^2/alpha.

    Fits one constant c to b_{i|j} = c (1-b^2)[(1+2b^2) a - 3 b b] over the
    usable samples, then reports residuals of that equation, of the matching
    Ricci-tensor equation on alpha, and of Finsler Ricci-flatness of F at one
    flag per sample, read off the table's flag bundles (the table's metric
    must be the square metric).  Samples outside the chart or with
    b >= b_cap are skipped and counted.
    """
    if table.metric.phi.name != "square":
        raise ValueError(f"{table.metric.name}: the Einstein square certificate "
                         f"needs a square metric, not profile {table.metric.phi.name!r}")
    alpha = table.alpha
    used, skipped = _select(table, b_cap)
    data = [table.point(k) for k in used]
    n = alpha.dim
    shapes = [_covariant_shape(bd) for bd in data]
    c = _fit(data, shapes)

    cov, aric, fric = [], [], []
    for k, bd, m in zip(used, data, shapes):
        cov.append(_relative(bd.bij, c * m))
        coef = c * c * (1.0 - bd.b2) ** 2
        expect = coef * (-(5.0 * (n - 1) + 2.0 * (2 * n - 5) * bd.b2) * bd.a
                         + 6.0 * (n - 2) * np.outer(bd.b_lower, bd.b_lower))
        aric.append(_relative(bd.ricci, expect))
        fric.append(table.flag(k).einstein_residual(0.0))
    return _certificate(f"einstein-square({alpha.name})", "einstein-square", c,
                        {"covariant": cov, "alpha-ricci": aric, "finsler-ricci": fric},
                        used, skipped, tolerances)


def _tau(bd, n: int) -> float:
    """Pointwise scale from the trace of b_{i|j} = tau [(1+2b^2) a - 3 b b]."""
    den = (1.0 + 2.0 * bd.b2) * n - 3.0 * bd.b2
    return float(np.sum(bd.ainv * bd.bij)) / den


def _tau_gradient(bd, n: int) -> np.ndarray:
    """Exact tau_k: the x-derivative of _tau's quotient N / D, with
    N = a^{ij} b_{i|j} and D = n + (2n - 3) b^2."""
    den = (1.0 + 2.0 * bd.b2) * n - 3.0 * bd.b2
    dnum = np.einsum("ijk,ij->k", bd.dainv, bd.bij) + np.einsum("ij,ijk->k", bd.ainv, bd.dbij)
    db2 = 2.0 * bd.b_upper @ bd.db + np.einsum("i,ijk,j->k", bd.b_lower, bd.dainv, bd.b_lower)
    return (dnum - _tau(bd, n) * (2 * n - 3) * db2) / den


def check_einstein_scale_system(table: SampleTable, tolerances: Optional[dict] = None,
                                b_cap: float = 0.95) -> EinsteinCertificate:
    """Pointwise-scale form of the characterization.

    At each sample the scale tau(x) is recovered from the trace of
    b_{i|j} = tau(x) [(1+2b^2) a - 3 b b] / ... rewritten with
    tau = c (1-b^2); the checks are the covariant equation with that tau,
    the gradient law tau_i = -2 tau^2 b_i (with tau_i read exactly off the
    second-order point bundle), and constancy of c = tau / (1-b^2) across
    samples.
    """
    used, skipped = _select(table, b_cap)
    n = table.alpha.dim

    cov, grad, consts = [], [], []
    for bd in map(table.point, used):
        t = _tau(bd, n)
        m = (1.0 + 2.0 * bd.b2) * bd.a - 3.0 * np.outer(bd.b_lower, bd.b_lower)
        cov.append(_relative(bd.bij, t * m))
        for ti, bi in zip(_tau_gradient(bd, n), bd.b_lower):
            grad.append(abs(ti + 2.0 * t * t * bi) / (1.0 + abs(ti)))
        consts.append(t / (1.0 - bd.b2))
    cmean = float(np.mean(consts))
    cdev = [abs(v - cmean) / (1.0 + abs(cmean)) for v in consts]
    return _certificate(f"einstein-scale({table.alpha.name})", "einstein-scale", cmean,
                        {"covariant": cov, "gradient": grad, "constancy": cdev},
                        used, skipped, tolerances)


def check_closedness(table: SampleTable, tolerances: Optional[dict] = None) -> EinsteinCertificate:
    """beta must be closed: s_ij = 0, hence s^k_0 s_{k0} = 0 along any y."""
    used, skipped = _select(table, b_cap=1.0)
    skew, contr = [], []
    for k in used:
        bd = table.point(k)
        skew.append(np.max(np.abs(bd.s)) / (1.0 + np.max(np.abs(bd.bij))))
        y = table.directions[k]
        s_low = bd.s0_lower(y)
        contr.append(abs(float(bd.s0_upper(y) @ s_low)) / (1.0 + float(y @ bd.a @ y)))
    return _certificate(f"closedness({table.beta.name})", "closedness", 0.0,
                        {"skew": skew, "skew-contraction": contr}, used, skipped, tolerances)


def check_conformal_pair(table: SampleTable, tolerances: Optional[dict] = None) -> EinsteinCertificate:
    """Einstein conditions in conformal-pair form, over a table whose metric
    is written on the conformal pair (u, v).

    Fits c to v_{i|j} = c sqrt(1 + v^2) u_ij, then checks that equation and
    Ric(u) = -(n-1) c^2 u (an Einstein metric of negative constant -c^2).
    """
    used, skipped = _select(table, b_cap=np.inf)
    data = [table.point(k) for k in used]
    n = table.alpha.dim
    shapes = [math.sqrt(1.0 + bd.b2) * bd.a for bd in data]
    c = _fit(data, shapes)
    cov, ein = [], []
    for bd, m in zip(data, shapes):
        cov.append(_relative(bd.bij, c * m))
        ein.append(_relative(bd.ricci, -(n - 1) * c * c * bd.a))
    return _certificate(f"conformal-pair({table.alpha.name})", "conformal-pair", c,
                        {"covariant": cov, "einstein": ein}, used, skipped, tolerances)


def check_reduced_pair(table: SampleTable, tolerances: Optional[dict] = None) -> EinsteinCertificate:
    """Einstein conditions in reduced-pair form, over a table whose metric is
    written on the reduced pair (w, z): Ric(w) = 0, z_{i|j} = c w_ij."""
    used, skipped = _select(table, b_cap=np.inf)
    data = [table.point(k) for k in used]
    c = _fit(data, [bd.a for bd in data])
    hom, rflat = [], []
    for bd in data:
        hom.append(_relative(bd.bij, c * bd.a))
        rflat.append(np.max(np.abs(bd.ricci)) / (1.0 + np.max(np.abs(bd.a))))
    return _certificate(f"reduced-pair({table.alpha.name})", "reduced-pair", c,
                        {"homothety": hom, "ricci-flat": rflat}, used, skipped, tolerances)


def deformed_spray_residual(table: SampleTable, kind: str = "conformal",
                            tolerances: Optional[dict] = None) -> EinsteinCertificate:
    """Geodesic sprays of the deformed pair against the closed correction.

    When b_{i|j} = tau(x) [(1+2b^2) a - 3 b b] holds (tau from the trace),
    the deformed sprays differ from the original by a projective-plus-
    gradient term:

        conformal: G_u^i = G^i + tau (alpha^2 b^i - 2 beta y^i)
        reduced:   G_w^i = G^i + tau (alpha^2 b^i - 3 beta y^i)

    Reports the identity residual together with the precondition residual;
    the identity is only meaningful where the precondition is satisfied.
    G^i of alpha is the table's, shared by both kinds; the deformed pair's
    spray is solved here.
    """
    alpha, beta = table.alpha, table.beta
    if kind == "conformal":
        pair = to_conformal_pair(alpha, beta)
        coef = 2.0
    elif kind == "reduced":
        pair = to_reduced_pair(alpha, beta)
        coef = 3.0
    else:
        raise ValueError(f"unknown deformation kind {kind!r}")
    used, skipped = _select(table, b_cap=0.999)
    n = alpha.dim
    ident, precond = [], []
    for k in used:
        bd = table.point(k)
        y = table.directions[k]
        t = _tau(bd, n)
        m = _covariant_shape(bd) / (1.0 - bd.b2)
        precond.append(_relative(bd.bij, t * m))
        g0 = table.alpha_spray(k)
        gd = geodesic_spray(pair[0], table.points[k], y)
        a2 = float(y @ bd.a @ y)
        be = float(bd.b_lower @ y)
        rhs = g0 + t * (a2 * bd.b_upper - coef * be * y)
        ident.append(np.max(np.abs(gd - rhs)) / (1.0 + np.max(np.abs(gd))))
    return _certificate(f"spray-{kind}({alpha.name})", "spray-deform", 0.0,
                        {"identity": ident, "precondition": precond}, used, skipped, tolerances)


def norm_identity_residuals(alpha: RiemannMetric, beta: OneFormField, x) -> dict[str, float]:
    """Pointwise norm bookkeeping for both deformations:

        conformal: v^2 = b^2/(1-b^2) and (1+v^2)(1-b^2) = 1
        reduced:   z^2 = b^2

    computed generically (no shortcut) so the component formulas are what
    is actually being tested.
    """
    X = [float(v) for v in x]
    b2 = float(one_form_norm_sq(alpha, beta, X))
    ac, bc = to_conformal_pair(alpha, beta)
    ar, br = to_reduced_pair(alpha, beta)
    v2 = float(one_form_norm_sq(ac, replace(bc, norm_squared=None), X))
    z2 = float(one_form_norm_sq(ar, replace(br, norm_squared=None), X))
    return {
        "conformal-norm": abs(v2 - b2 / (1.0 - b2)),
        "conformal-product": abs((1.0 + v2) * (1.0 - b2) - 1.0),
        "reduced-norm": abs(z2 - b2),
    }
