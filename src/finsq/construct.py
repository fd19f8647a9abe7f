"""Constructing verified Einstein square metrics from warped products.

The recipe runs entirely through the reduced pair: take a warped chart

    w = dt^2 + h(t)^2 g_N,     z = h(t) dt,     h(t) = c t + d,

over an (n-1)-dimensional factor g_N with Ric(g_N) = (n-2) c^2 g_N.  Then
w is Ricci-flat (the cone over the rescaled factor is flat), z is a
homothety, z_{i|j} = c w_ij, and undoing the reduced deformation yields
data (a, b) whose square metric F = (alpha + beta)^2/alpha is Ricci-flat
as a Finsler metric, with the characterization constant equal to c.

The same mechanism in affine coordinates gives the linear family over a
flat chart, z = (c x + q) . dx, which reproduces the classical projectively
flat example when c = 1, q = 0.  Every constructor verifies its inputs
numerically and refuses to hand out unverified data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .finsler import GeneralABMetric
from .geometry import (
    OneFormField,
    RiemannMetric,
    euclidean,
    ricci_tensor,
    sphere,
    validate_chart,
)
from .square import from_reduced_pair, square_from_reduced_pair, square_metric


class ConstructionError(ValueError):
    """Construction inputs fail their mathematical preconditions."""


# -- factors -------------------------------------------------------------------


def _factor_grid(factor: RiemannMetric, count: int = 20) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=331))
    if factor.sample_box is not None:
        lo = np.array([b[0] for b in factor.sample_box])
        hi = np.array([b[1] for b in factor.sample_box])
        pts = rng.uniform(lo, hi, (count, factor.dim))
    else:
        pts = rng.uniform(-0.6, 0.6, (count, factor.dim))
    return pts


def verify_factor(factor: RiemannMetric, c: float, tolerance: float = 1e-7) -> float:
    """Max residual of Ric = (m-1) c^2 g over 20 deterministic points.

    This is the Einstein condition the warped construction needs from its
    factor.  Raises ChartError where the factor matrix is degenerate at a
    grid point, before any curvature, and ConstructionError when it fails.
    """
    m = factor.dim
    worst = 0.0
    pts = [x for x in _factor_grid(factor) if factor.domain(x)]
    for x, a in zip(pts, validate_chart(factor, pts)):
        ric = ricci_tensor(factor, x)
        expect = (m - 1) * c * c * a
        worst = max(worst, float(np.max(np.abs(ric - expect))) / (1.0 + float(np.max(np.abs(expect)))))
    if worst > tolerance:
        raise ConstructionError(
            f"factor {factor.name} is not Einstein with constant (dim-1) c^2 "
            f"(residual {worst:.3e} > {tolerance:.1e})")
    return worst


def sphere_factor(m: int, kappa: float) -> RiemannMetric:
    """Round m-sphere of curvature kappa in a stereographic chart, verified."""
    if m < 1:
        raise ConstructionError("factor dimension must be at least 1")
    if not kappa > 0:
        raise ConstructionError(f"sphere factor needs curvature kappa > 0, got {kappa:g} "
                                "(use the flat factor for c = 0)")
    g = sphere(m, kappa)
    verify_factor(g, math.sqrt(kappa))
    return g


def flat_factor(m: int) -> RiemannMetric:
    """Flat factor for the c = 0 (product) case."""
    if m < 1:
        raise ConstructionError("factor dimension must be at least 1")
    return euclidean(m)


# -- warped reduced pairs --------------------------------------------------------


@dataclass(frozen=True)
class WarpedProductSpec:
    """Data for w = dt^2 + (c t + d)^2 g_N, z = (c t + d) dt.

    The t-range keeps h = c t + d inside (0, 1): the homothety scale is
    also the norm of z, and the inverse deformation needs z < 1.  When no
    range is given it is chosen so h spans [0.2, 0.9].
    """

    factor: RiemannMetric
    c: float
    d: float
    t_range: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.c * self.c + self.d * self.d == 0.0:
            raise ConstructionError("c and d cannot both vanish")
        if self.c == 0.0 and not 0.0 < self.d < 1.0:
            raise ConstructionError("c = 0 requires 0 < d < 1 (z = d must stay below 1)")
        if self.t_range is None:
            if self.c == 0.0:
                rng = (-0.8, 0.8)
            else:
                lo, hi = sorted(((0.2 - self.d) / self.c, (0.9 - self.d) / self.c))
                rng = (lo, hi)
            object.__setattr__(self, "t_range", rng)
        for t in self.t_range:
            h = self.c * t + self.d
            if not 0.0 < h < 1.0:
                raise ConstructionError(
                    f"h(t) = c t + d must stay in (0, 1) on t_range; h({t}) = {h}")

    def h(self, t):
        return self.c * t + self.d


def build_warped(spec: WarpedProductSpec) -> tuple[RiemannMetric, OneFormField]:
    """The reduced pair (w, z) of the warped construction.

    Chart order is (t, u^1 ... u^m) with the factor chart appended after t.
    The factor Einstein condition is verified before anything is returned.
    """
    verify_factor(spec.factor, spec.c)
    n = spec.factor.dim + 1

    def bcomp(X):
        out = [0.0] * n
        out[0] = spec.h(X[0])
        return out

    def norm2(X):
        h = spec.h(X[0])
        return h * h

    w = replace(warped_metric_generic(spec.factor, spec.h, spec.t_range),
                name=f"warped({spec.factor.name}, c={spec.c}, d={spec.d})")
    z = OneFormField(n, bcomp, "warp-form", norm_squared=norm2)
    return w, z


def warped_metric_generic(factor: RiemannMetric, h: Callable,
                          t_range: tuple[float, float]) -> RiemannMetric:
    """dt^2 + h(t)^2 g_N for an arbitrary jet-capable warp function."""
    m = factor.dim
    n = m + 1
    fbox = factor.sample_box or tuple((-0.6, 0.6) for _ in range(m))

    def acomp(X):
        hv = h(X[0])
        h2 = hv * hv
        Af = factor.components(X[1:])
        rows = [[0.0] * n for _ in range(n)]
        rows[0][0] = 1.0
        for i in range(m):
            for j in range(m):
                rows[i + 1][j + 1] = h2 * Af[i][j]
        return rows

    def domain(x):
        return t_range[0] <= float(x[0]) <= t_range[1] and factor.domain(np.asarray(x[1:], float))

    return RiemannMetric(n, acomp, f"warped-generic({factor.name})", domain,
                         (tuple(t_range),) + tuple(fbox))


def warped_trace_residual(factor: RiemannMetric, h: Callable, dh: Callable,
                          d2h: Callable, t_range: tuple[float, float],
                          points) -> float:
    """Residual of the warped Ricci trace formula at the given points.

    For g = dt^2 + h^2 g_N over an m-dimensional factor,

        Ric_tt   = -m h''/h
        Ric_ab   = Ric(g_N)_ab - [ h'' h + (m-1) h'^2 ] (g_N)_ab

    with mixed components zero.  Both sides are computed independently:
    the left by jet differentiation of the warped chart, the right from the
    factor's own Ricci tensor and the supplied derivatives of h.
    """
    m = factor.dim
    g = warped_metric_generic(factor, h, t_range)
    worst = 0.0
    for x in np.asarray(points, float):
        if not g.domain(x):
            continue
        t = float(x[0])
        u = x[1:]
        ric = ricci_tensor(g, x)
        ric_f = ricci_tensor(factor, u)
        gf = factor.matrix(u)
        hv, hp, hpp = float(h(t)), float(dh(t)), float(d2h(t))
        expect = np.zeros((m + 1, m + 1))
        expect[0, 0] = -m * hpp / hv
        expect[1:, 1:] = ric_f - (hpp * hv + (m - 1) * hp * hp) * gf
        worst = max(worst, float(np.max(np.abs(ric - expect))) / (1.0 + float(np.max(np.abs(expect)))))
    return worst


# -- assembled constructions ------------------------------------------------------


@dataclass(frozen=True)
class ConstructedMetric:
    """A verified Einstein square metric with both data presentations.

    metric is F over the recovered original data (a, b); metric_reduced is
    the same F written directly over the reduced pair.  The characterization
    constant of the construction is expected_constant, and every shipped
    construction has flat recovered a, hence expected flag curvature 0.
    """

    name: str
    alpha: RiemannMetric
    beta: OneFormField
    metric: GeneralABMetric
    metric_reduced: GeneralABMetric
    expected_constant: float
    expected_flag: float = 0.0


def _package(w: RiemannMetric, z: OneFormField, label: str, c: float) -> ConstructedMetric:
    """Recover (a, b) from the reduced pair and write F over both."""
    alpha, beta = from_reduced_pair(w, z)
    return ConstructedMetric(
        name=label,
        alpha=alpha,
        beta=beta,
        metric=square_metric(alpha, beta, label),
        metric_reduced=square_from_reduced_pair(w, z, label + "/reduced"),
        expected_constant=c,
    )


def construct_einstein_square(spec: WarpedProductSpec, name: str = "") -> ConstructedMetric:
    """Build and package an Einstein square metric from a warped spec."""
    w, z = build_warped(spec)
    return _package(w, z, name or f"einstein-square[{w.name}]", spec.c)


def berwald_family(n: int, c: float = 1.0, q: Optional[np.ndarray] = None,
                   name: str = "") -> ConstructedMetric:
    """The linear family: reduced pair (euclidean, (c x + q) . dx).

    z_{i|j} = c delta_ij is a homothety of the flat chart, so the recovered
    square metric is Einstein (Ricci-flat) with constant c; the c = 1,
    q = 0 member is the classical projectively flat example on the unit
    ball.  The chart is restricted to |c x + q| <= 0.9.
    """
    q = np.zeros(n) if q is None else np.asarray(q, float)
    if q.shape != (n,):
        raise ConstructionError(f"offset must have shape ({n},)")
    if c == 0.0 and np.linalg.norm(q) == 0.0:
        raise ConstructionError("c and q cannot both vanish")
    if c == 0.0 and not np.linalg.norm(q) < 1.0:
        raise ConstructionError("c = 0 requires |q| < 1")
    w = euclidean(n)

    def bcomp(X):
        return [c * X[i] + q[i] for i in range(n)]

    def norm2(X):
        acc = (c * X[0] + q[0]) * (c * X[0] + q[0])
        for i in range(1, n):
            acc = acc + (c * X[i] + q[i]) * (c * X[i] + q[i])
        return acc

    def domain(x):
        return float(np.linalg.norm(c * np.asarray(x, float) + q)) <= 0.9

    box = tuple()
    if c != 0.0:
        # center the box on the zero of z so samples stay inside |z| <= 0.9
        r = 0.9 / abs(c) / math.sqrt(n)
        box = tuple((float(-q[i] / c - r), float(-q[i] / c + r)) for i in range(n))
        if not all(math.isfinite(v) for lo, hi in box for v in (lo, hi, hi - lo)):
            raise ConstructionError(f"c = {c} puts the sample box beyond float64 range")
    z = OneFormField(n, bcomp, "linear-form", norm_squared=norm2)
    w = RiemannMetric(n, w.components, w.name, domain, box or None)
    return _package(w, z, name or f"berwald-family(n={n}, c={c})", c)
