"""Riemannian machinery on coordinate charts.

Metrics and one-forms are plain component callables: they accept a sequence
of scalars (floats or jets) and return nested lists of the same scalar kind.
Everything downstream (Christoffel symbols, geodesic spray, Ricci, covariant
derivatives) differentiates them by seeding jets, so a chart is usable as
long as its components are built from ring operations and square roots.

Index conventions: a Christoffel array gamma[i, j, k] is Gamma^i_{jk}, the
upper index first; the covariant derivative of a one-form is
b_{i|j} = d_j b_i - Gamma^k_{ij} b_k; the Ricci sign makes the round sphere
positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .jets import Jet, partials, seed, seed_pair

Scalar = Union[float, Jet]
Components = Callable[[Sequence[Scalar]], list]


class ChartError(ValueError):
    """Metric components violate symmetry or positive definiteness."""


@dataclass(frozen=True)
class RiemannMetric:
    """Riemannian metric given by chart components a_ij(x)."""

    dim: int
    components: Components
    name: str = "metric"
    domain: Callable[[np.ndarray], bool] = field(default=lambda x: True)
    sample_box: Optional[tuple[tuple[float, float], ...]] = None

    def matrix(self, x: Sequence[float]) -> np.ndarray:
        """Component matrix at a float point."""
        A = self.components([float(v) for v in x])
        return np.array([[_val(A[i][j]) for j in range(self.dim)] for i in range(self.dim)])


@dataclass(frozen=True)
class OneFormField:
    """One-form b_i(x) dx^i on the chart of an accompanying metric.

    norm_squared, when provided, is a closed form for b^2 = a^{ij} b_i b_j
    and must agree with the solve-based evaluation; it exists because b^2
    sits inside deformed metric components on hot paths.
    """

    dim: int
    components: Components
    name: str = "one-form"
    norm_squared: Optional[Callable[[Sequence[Scalar]], Scalar]] = None


def _val(s) -> float:
    return float(s.value) if isinstance(s, Jet) else float(s)


# -- chart validation --------------------------------------------------------


def validate_chart(alpha: RiemannMetric, points: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """Each point's metric matrix; raises ChartError if components are not
    finite, asymmetric or not positive definite to working precision."""
    mats = []
    for x in points:
        A = alpha.matrix(x)
        if A.shape != (alpha.dim, alpha.dim):
            raise ChartError(f"{alpha.name}: component shape {A.shape} at x = {_point(x)}")
        if not np.all(np.isfinite(A)):
            raise ChartError(f"{alpha.name}: non-finite components at x = {_point(x)}")
        scale = float(np.max(np.abs(A))) or 1.0
        if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
            raise ChartError(f"{alpha.name}: non-symmetric components at x = {_point(x)}")
        ev = np.linalg.eigvalsh(A)
        # a singular matrix rounds to an eigenvalue of either sign near eps
        if float(ev[0]) <= alpha.dim * np.finfo(float).eps * abs(float(ev[-1])):
            raise ChartError(f"{alpha.name}: not positive definite at x = {_point(x)} "
                             f"(eigenvalues {ev[0]:.3g} to {ev[-1]:.3g})")
        mats.append(A)
    return mats


def _point(x) -> list[float]:
    return [float(v) for v in x]


# -- connection and curvature -------------------------------------------------


def _levi_civita(A, X):
    """a, a^-1, d_k a^{ij}, Gamma^i_{jk} and d_m Gamma^i_{jk} (last axis m)
    from metric components A evaluated on second-order seeds X."""
    xs = tuple(range(len(X)))
    a, da, dda = partials(A, X[0].space, (), (xs,), (xs, xs))  # da[i, j, k] = d_k a_ij
    ainv = np.linalg.inv(a)
    dainv = -np.einsum("ip,pqk,qj->ijk", ainv, da, ainv)
    # twice the first-kind symbols, 2 Gamma_{ljk} = d_k a_lj + d_j a_lk - d_l a_jk
    two = da + da.transpose(0, 2, 1) - da.transpose(2, 0, 1)
    dtwo = dda + dda.transpose(0, 2, 1, 3) - dda.transpose(2, 0, 1, 3)
    gamma = 0.5 * np.einsum("il,ljk->ijk", ainv, two)
    dgamma = 0.5 * (np.einsum("ilm,ljk->ijkm", dainv, two)
                    + np.einsum("il,ljkm->ijkm", ainv, dtwo))
    return a, ainv, dainv, gamma, dgamma


def _ricci(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Ric_jk = d_l Gamma^l_{jk} - d_k Gamma^l_{jl}
                + Gamma^l_{lm} Gamma^m_{jk} - Gamma^l_{km} Gamma^m_{jl}"""
    ric = (np.einsum("ljkl->jk", dgamma) - np.einsum("ljlk->jk", dgamma)
           + np.einsum("llm,mjk->jk", gamma, gamma) - np.einsum("lkm,mjl->jk", gamma, gamma))
    return 0.5 * (ric + ric.T)


def geodesic_spray(alpha: RiemannMetric, x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """Spray coefficients G^i = (1/4) a^{il} ([a^2]_{x^k y^l} y^k - [a^2]_{x^l}).

    This differentiates the energy alpha^2(x, y) directly, which is the same
    route the Finsler spray uses; christoffel assembly is the cross-check.
    """
    n = alpha.dim
    X, Y = seed_pair(x, y, 1, 1)
    A = alpha.components(X)
    e2 = linalg.quadratic_form(A, list(Y))
    xs, ys = tuple(range(n)), tuple(range(n, 2 * n))
    (a0,) = partials(A, X[0].space, ())
    # mixed[k, l] = [a^2]_{x^k y^l}
    grad_x, mixed = partials(e2, X[0].space, (xs,), (xs, ys))
    rhs = mixed.T @ np.asarray(y, float) - grad_x
    return 0.25 * np.linalg.solve(a0, rhs)


def ricci_tensor(alpha: RiemannMetric, x: Sequence[float]) -> np.ndarray:
    """Ricci tensor by the classical curvature contraction of Christoffel
    symbols and their first x-derivatives, read off second-order jets of
    a_ij.  Independent of the spray-based curvature path."""
    X = seed(x, 2)
    _, _, _, gamma, dgamma = _levi_civita(alpha.components(X), X)
    return _ricci(gamma, dgamma)


# -- one-form calculus ---------------------------------------------------------


@dataclass(frozen=True)
class BetaDerivatives:
    """Second-order point bundle of a metric and a one-form at one x.

    Covariant derivative b_{i|j} = d_j b_i - Gamma^k_{ij} b_k split into
    r_ij = (b_{i|j} + b_{j|i}) / 2 and s_ij = (b_{i|j} - b_{j|i}) / 2, with
    the metric data needed for the standard contractions against y and b,
    Ric(a), and the x-derivatives (last axis) of a^{ij}, b_i and b_{i|j}.
    """

    a: np.ndarray
    ainv: np.ndarray
    dainv: np.ndarray
    ricci: np.ndarray
    b_lower: np.ndarray
    b_upper: np.ndarray
    db: np.ndarray
    b2: float
    bij: np.ndarray
    dbij: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def r00(self, y) -> float:
        y = np.asarray(y, float)
        return float(y @ self.r @ y)

    def s0_lower(self, y) -> np.ndarray:
        """s_{i0} = s_ij y^j."""
        return self.s @ np.asarray(y, float)

    def s0_upper(self, y) -> np.ndarray:
        """s^i_0 = a^{ij} s_{jk} y^k."""
        return self.ainv @ self.s0_lower(y)

    def s0(self, y) -> float:
        """s_0 = b^i s_{i0}."""
        return float(self.b_upper @ self.s0_lower(y))


def beta_derivatives(alpha: RiemannMetric, beta: OneFormField, x) -> BetaDerivatives:
    """The point bundle, from one evaluation of a_ij and b_i on second-order jets."""
    X = seed(x, 2)
    a, ainv, dainv, gamma, dgamma = _levi_civita(alpha.components(X), X)
    xs = tuple(range(alpha.dim))
    b, db, ddb = partials(beta.components(X), X[0].space, (), (xs,), (xs, xs))  # db[i, j] = d_j b_i
    b_upper = ainv @ b
    bij = db - np.einsum("kij,k->ij", gamma, b)
    dbij = (ddb - np.einsum("mijk,m->ijk", dgamma, b)
            - np.einsum("mij,mk->ijk", gamma, db))
    return BetaDerivatives(
        a=a, ainv=ainv, dainv=dainv, ricci=_ricci(gamma, dgamma),
        b_lower=b, b_upper=b_upper, db=db, b2=float(b @ b_upper),
        bij=bij, dbij=dbij, r=0.5 * (bij + bij.T), s=0.5 * (bij - bij.T),
    )


def one_form_norm_sq(alpha: RiemannMetric, beta: OneFormField, X: Sequence[Scalar]) -> Scalar:
    """b^2 = a^{ij} b_i b_j as a scalar (jet-valued when X are jets)."""
    if beta.norm_squared is not None:
        return beta.norm_squared(X)
    A = alpha.components(X)
    B = beta.components(X)
    v = linalg.solve(A, list(B))
    return linalg.dot(list(B), v)


# -- builtin charts ------------------------------------------------------------


def euclidean(n: int) -> RiemannMetric:
    def comp(X):
        return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    return RiemannMetric(dim=n, components=comp, name=f"euclidean-{n}")


def sphere(n: int, kappa: float = 1.0) -> RiemannMetric:
    """Constant curvature kappa > 0 in the stereographic-style chart
    a_ij = delta_ij / (1 + kappa |x|^2 / 4)^2."""
    if kappa <= 0:
        raise ValueError("sphere chart needs kappa > 0")

    def comp(X):
        q = X[0] * X[0]
        for v in X[1:]:
            q = q + v * v
        w = 1.0 + 0.25 * kappa * q
        f = 1.0 / (w * w)
        return [[f if i == j else 0.0 for j in range(n)] for i in range(n)]

    return RiemannMetric(dim=n, components=comp, name=f"sphere-{n}-k{kappa:g}")


def zero_form(n: int) -> OneFormField:
    return OneFormField(dim=n, components=lambda X: [0.0] * n, name="zero", norm_squared=lambda X: 0.0)


def gradient_form(n: int, scale: float = 1.0) -> OneFormField:
    """b = scale * x_i dx^i (closed; an exact differential of scale |x|^2 / 2)."""

    def comp(X):
        return [scale * v for v in X]

    return OneFormField(dim=n, components=comp, name=f"gradient-{scale:g}")


def drift_form(n: int, scale: float = 1.0) -> OneFormField:
    """b = scale * x_2 dx^1 (not closed: db = -scale dx^1 ^ dx^2)."""
    if n < 2:
        raise ValueError("drift form needs n >= 2")

    def comp(X):
        out = [0.0] * n
        out[0] = scale * X[1]
        return out

    return OneFormField(dim=n, components=comp, name=f"drift-{scale:g}")


def berwald_data(n: int) -> tuple[RiemannMetric, OneFormField]:
    """The classical chart on the unit ball whose square metric is projectively
    flat with vanishing flag curvature:

    a_ij = [(1 - |x|^2) delta_ij + x_i x_j] / (1 - |x|^2)^4,
    b_i  = x_i / (1 - |x|^2)^2,           with  b(x) = |x|.
    """

    def acomp(X):
        q = X[0] * X[0]
        for v in X[1:]:
            q = q + v * v
        w = 1.0 - q
        w4 = (w * w) * (w * w)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                e = X[i] * X[j]
                if i == j:
                    e = e + w
                row.append(e / w4)
            out.append(row)
        return out

    def bcomp(X):
        q = X[0] * X[0]
        for v in X[1:]:
            q = q + v * v
        w = 1.0 - q
        w2 = w * w
        return [X[i] / w2 for i in range(n)]

    def bnorm2(X):
        q = X[0] * X[0]
        for v in X[1:]:
            q = q + v * v
        return q

    alpha = RiemannMetric(
        dim=n, components=acomp, name=f"berwald-alpha-{n}",
        domain=lambda x: float(np.dot(x, x)) < 0.9025,
    )
    beta = OneFormField(dim=n, components=bcomp, name=f"berwald-beta-{n}", norm_squared=bnorm2)
    return alpha, beta
