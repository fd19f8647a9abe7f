"""Finsler (alpha, beta)-metrics: sprays, curvature, and the Douglas tensor.

A metric is F = alpha * phi(s) with s = beta/alpha, or in the general form
F = alpha * phi(b^2, s) where b is the alpha-norm of beta.  Everything here
is computed from the definition by exact jet differentiation:

    g_ij = (1/2) [F^2]_{y^i y^j}
    G^i  = (1/4) g^{il} ( [F^2]_{x^k y^l} y^k - [F^2]_{x^l} )
    R^i_k = 2 dG^i/dx^k - y^m d^2G^i/(dx^m dy^k)
            + 2 G^m d^2G^i/(dy^m dy^k) - (dG^i/dy^m)(dG^m/dy^k)

The sprays are produced as jets over (x, y) to whatever derivative orders a
downstream formula consumes: the one evaluation of F^2 happens in a space
with caps raised by the orders the extraction chain uses up, so every
coefficient that survives is exact.  The closed-form (alpha, beta) spray and
a finite-difference fallback serve as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .geometry import OneFormField, RiemannMetric, Scalar, beta_derivatives, geodesic_spray, one_form_norm_sq
from .jets import DerivativeSpec, Jet, fd_partial, seed_pair, sqrt
from .jetspace import xy_space


class StrongConvexityError(ArithmeticError):
    """The fundamental tensor is not positive definite at the sample."""


class DegenerateFlagError(ValueError):
    """Flag curvature requested for u parallel to y."""


@dataclass(frozen=True)
class PhiFunction:
    """The profile function of an (alpha, beta)-metric.

    kind "plain": fn(s) with its closed-form derivatives d1 = phi' and
    d2 = phi'', both required.  kind "general": fn(b2, s).  In both cases
    fn must be built from arithmetic and sqrt so jets can flow through it.
    """

    name: str
    kind: str
    fn: Callable
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    domain: Callable[[float, float], bool] = lambda b2, s: True

    def __post_init__(self):
        if self.kind == "plain" and (self.d1 is None or self.d2 is None):
            raise ValueError(f"plain profile {self.name!r} needs closed-form d1 and d2")

    def value(self, b2, s):
        if self.kind == "plain":
            return self.fn(s)
        return self.fn(b2, s)

    def deriv(self, s, order: int = 1):
        """phi', phi'' for plain kind, at a float argument."""
        if self.kind != "plain":
            raise ValueError("scalar derivatives are a plain-kind operation")
        if order == 1:
            return self.d1(s)
        if order == 2:
            return self.d2(s)
        raise ValueError(f"no closed form for phi derivative of order {order}")

    def partials(self, b2: float, s: float) -> tuple[float, float, float, float, float, float]:
        """(phi, phi_1, phi_2, phi_11, phi_12, phi_22) at a float argument,
        where subscript 1 differentiates in b^2 and 2 in s."""
        if self.kind != "general":
            raise ValueError("two-argument partials are a general-kind operation")
        space = xy_space(1, 1, 2, 2, 2)
        U = Jet.variable(space, 0, float(b2))
        S = Jet.variable(space, 1, float(s))
        p = self.fn(U, S)
        return (
            float(p.value),
            float(p.partial((1, 0))),
            float(p.partial((0, 1))),
            float(p.partial((2, 0))),
            float(p.partial((1, 1))),
            float(p.partial((0, 2))),
        )


@dataclass(frozen=True)
class GeneralABMetric:
    """F = alpha phi(s) or alpha phi(b^2, s) over a metric and a one-form."""

    alpha: RiemannMetric
    beta: OneFormField
    phi: PhiFunction
    name: str = "ab-metric"

    @property
    def dim(self) -> int:
        return self.alpha.dim


def f_value(M: GeneralABMetric, X: Sequence[Scalar], Y: Sequence[Scalar]) -> Scalar:
    """F(x, y), generic over floats and jets."""
    A = M.alpha.components(X)
    B = M.beta.components(X)
    a2 = linalg.quadratic_form(A, list(Y))
    if not isinstance(a2, Jet) and a2 <= 0.0:
        raise ValueError("F is undefined at y = 0")
    al = sqrt(a2)
    s = linalg.dot(list(B), list(Y)) / al
    if M.phi.kind == "plain":
        return al * M.phi.fn(s)
    b2 = one_form_norm_sq(M.alpha, M.beta, X)
    return al * M.phi.fn(b2, s)


def f_squared(M: GeneralABMetric, X, Y) -> Scalar:
    F = f_value(M, X, Y)
    return F * F


def fundamental_tensor(M: GeneralABMetric, x, y) -> tuple[np.ndarray, np.ndarray]:
    """g_ij = (1/2)[F^2]_{y^i y^j} and its inverse at one (x, y)."""
    X, Y = seed_pair(x, y, DerivativeSpec(0, 2))
    g = _fundamental(M, f_squared(M, X, Y), x, y)
    return g, np.linalg.inv(g)


def _fundamental(M: GeneralABMetric, F2: Jet, x, y) -> np.ndarray:
    """g_ij at (x, y), read off an F^2 jet over (x, y) with y-order >= 2.

    Raises StrongConvexityError unless g is strongly convex."""
    n = M.dim
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            m = [0] * (2 * n)
            m[n + i] += 1
            m[n + j] += 1
            g[i, j] = g[j, i] = 0.5 * float(F2.partial(tuple(m)))
    ev = np.linalg.eigvalsh(g)
    if ev[0] <= 0.0 or ev[-1] / ev[0] > 1e12:
        raise StrongConvexityError(
            f"{M.name}: fundamental tensor not strongly convex at x={tuple(np.round(x, 6))}, "
            f"y={tuple(np.round(y, 6))} (eigenvalues {ev})"
        )
    return g


# -- spray -----------------------------------------------------------------


def spray_jets(M: GeneralABMetric, x, y, x_out: int,
               y_out: int) -> tuple[float, np.ndarray, list[Jet]]:
    """F^2 and g_ij at (x, y), and the spray coefficients G^i as jets exact
    to (x_out, y_out, x_out + y_out).

    F^2 is evaluated once in a space with caps (x_out + 1, y_out + 2) and
    total x_out + y_out + 2; the assembly consumes one x-order for [F^2]_x,
    one x- and one y-order for the mixed term, and two y-orders for g_ij,
    so the solved G^i jets are exact on the advertised target space.
    Raises StrongConvexityError, before solving, where g is not strongly
    convex.
    """
    n = M.dim
    spec = DerivativeSpec(x_out + 1, y_out + 2)
    X, Y = seed_pair(x, y, spec, total_cap=x_out + y_out + 2)
    F2 = f_squared(M, X, Y)
    g = _fundamental(M, F2, x, y)
    target = xy_space(n, n, x_out, y_out, x_out + y_out)

    dx = [F2.derivative(l) for l in range(n)]
    gy = [F2.derivative(n + i) for i in range(n)]
    rows: list[list[Jet]] = [[None] * n for _ in range(n)]
    rhs: list[Jet] = []
    for l in range(n):
        dxy_l = [dx[k].derivative(n + l) for k in range(n)]
        acc = dxy_l[0] * Y[0]
        for k in range(1, n):
            acc = acc + dxy_l[k] * Y[k]
        rhs.append((acc - dx[l]).truncated(target))
    for i in range(n):
        gyi = gy[i]
        for j in range(i, n):
            gij = (0.5 * gyi.derivative(n + j)).truncated(target)
            rows[i][j] = gij
            rows[j][i] = gij
    G = linalg.solve(rows, rhs)
    return float(F2.value), g, [0.25 * gi for gi in G]


def spray(M: GeneralABMetric, x, y) -> np.ndarray:
    """Spray values from the definition (the generic route)."""
    return np.array([float(g.value) for g in spray_jets(M, x, y, 0, 0)[2]])


def spray_closed_form(M: GeneralABMetric, x, y) -> np.ndarray:
    """Spray of a plain (alpha, beta)-metric from the classical closed form:

        G^i = aG^i + alpha Q s^i_0 + Theta (-2 alpha Q s_0 + r_00) y^i / alpha
              + Psi (-2 alpha Q s_0 + r_00) b^i

        Q     = phi' / (phi - s phi')
        Theta = ((phi - s phi') phi' - s phi phi'') / (2 phi Delta)
        Psi   = phi'' / (2 Delta)
        Delta = phi - s phi' + (b^2 - s^2) phi''

    Independent of the jet pipeline: only alpha-level jets (through the
    geodesic spray and b_{i|j}) and scalar phi derivatives enter.
    """
    if M.phi.kind != "plain":
        raise ValueError("closed-form spray applies to plain (alpha, beta)-metrics")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    bd = beta_derivatives(M.alpha, M.beta, x)
    a2 = float(y @ bd.a @ y)
    if a2 <= 0.0:
        raise ValueError("spray undefined at y = 0")
    al = math.sqrt(a2)
    be = float(bd.b_lower @ y)
    s = be / al
    phi = float(M.phi.fn(s))
    d1 = float(M.phi.deriv(s, 1))
    d2 = float(M.phi.deriv(s, 2))
    core = phi - s * d1
    delta = core + (bd.b2 - s * s) * d2
    if phi <= 0.0 or core <= 1e-12 or delta <= 1e-12:
        raise StrongConvexityError(
            f"{M.name}: regularity denominators degenerate (phi={phi:.3e}, "
            f"phi - s phi'={core:.3e}, Delta={delta:.3e}) at s={s:.4f}, b2={bd.b2:.4f}"
        )
    q = d1 / core
    theta = (core * d1 - s * phi * d2) / (2.0 * phi * delta)
    psi = d2 / (2.0 * delta)
    ag = geodesic_spray(M.alpha, x, y)
    s0 = bd.s0(y)
    mix = -2.0 * al * q * s0 + bd.r00(y)
    return ag + al * q * bd.s0_upper(y) + (theta / al) * mix * y + psi * mix * bd.b_upper


# -- curvature ----------------------------------------------------------------


def riemann_curvature(M: GeneralABMetric, x, y, method: str = "jet") -> np.ndarray:
    """Riemann curvature R^i_k in Berwald's form, shape (n, n).

    method "jet" reads all spray derivatives from one exact jet evaluation;
    method "fd" numerically differentiates exact pointwise spray values by
    Richardson-extrapolated central differences (slower, noisier; kept as an
    independent fallback).
    """
    n = M.dim
    if method == "fd":
        return _riemann_fd(M, x, y)
    if method != "jet":
        raise ValueError(f"unknown curvature method {method!r}")
    return _riemann_from_jets(n, spray_jets(M, x, y, 1, 2)[2], y)


def _riemann_fd(M, x, y, step_x: float = 1e-3, step_y: float = 1e-3) -> np.ndarray:
    n = M.dim
    x = np.asarray(x, float)
    y = np.asarray(y, float)

    def comp(i):
        return lambda xv, yv: float(spray(M, xv, yv)[i])

    gv = spray(M, x, y)
    ex = np.eye(n, dtype=int)
    zero = np.zeros(n, dtype=int)
    dgx = np.array([[fd_partial(comp(i), x, y, ex[k], zero, step=step_x) for k in range(n)] for i in range(n)])
    dgy = np.array([[fd_partial(comp(i), x, y, zero, ex[m], step=step_y) for m in range(n)] for i in range(n)])
    dgxy = np.array(
        [[[fd_partial(comp(i), x, y, ex[m], ex[k], step=step_x) for k in range(n)] for m in range(n)] for i in range(n)]
    )
    dgyy = np.array(
        [[[fd_partial(comp(i), x, y, zero, ex[m] + ex[k], step=step_y) for k in range(n)] for m in range(n)] for i in range(n)]
    )
    return (
        2.0 * dgx
        - np.einsum("m,imk->ik", y, dgxy)
        + 2.0 * np.einsum("m,imk->ik", gv, dgyy)
        - np.einsum("im,mk->ik", dgy, dgy)
    )


def ricci(M: GeneralABMetric, x, y, method: str = "jet") -> float:
    """Ricci curvature: the trace R^m_m of the Riemann curvature."""
    return float(np.trace(riemann_curvature(M, x, y, method=method)))


def flag_curvature(M: GeneralABMetric, x, y, u) -> float:
    """Flag curvature of the flag with pole y and transverse edge u."""
    return curvature_data(M, x, y).flag_curvature(u)


# -- Douglas tensor -------------------------------------------------------------


@dataclass(frozen=True)
class DouglasTensor:
    """D_j{}^i{}_{kl}: third y-derivatives of the projective spray part.

    components[i, j, k, l] carries the up index first; the tensor is fully
    symmetric in (j, k, l) and vanishes when traced with y^j.
    """

    components: np.ndarray
    y: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))

    def y_trace_max(self) -> float:
        return float(np.max(np.abs(np.einsum("ijkl,j->ikl", self.components, self.y))))


def douglas_tensor(M: GeneralABMetric, x, y) -> DouglasTensor:
    """Douglas tensor from D = d^3/dy^3 [ G^i - (dG^m/dy^m) y^i / (n+1) ]."""
    n = M.dim
    _, _, G = spray_jets(M, x, y, 0, 4)
    # rebuild the y seeds inside G's space for an exact product with N
    space = G[0].space
    Y = [Jet.variable(space, n + i, float(y[i])) for i in range(n)]
    N = G[0].derivative(n + 0)
    for m in range(1, n):
        N = N + G[m].derivative(n + m)
    inv = 1.0 / (n + 1)
    P = [G[i] - inv * (N * Y[i]) for i in range(n)]
    nv = 2 * n
    D = np.empty((n, n, n, n))
    for j in range(n):
        for k in range(j, n):
            for l in range(k, n):
                m = [0] * nv
                m[n + j] += 1
                m[n + k] += 1
                m[n + l] += 1
                for i in range(n):
                    val = float(P[i].partial(tuple(m)))
                    for a, b, c in ((j, k, l), (j, l, k), (k, j, l), (k, l, j), (l, j, k), (l, k, j)):
                        D[i, a, b, c] = val
    return DouglasTensor(components=D, y=np.asarray(y, float))


# -- bundles --------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureData:
    """Everything the per-flag checks consume, computed once."""

    x: np.ndarray
    y: np.ndarray
    f2: float
    g: np.ndarray
    spray: np.ndarray
    riemann: np.ndarray
    ricci: float

    def flag_curvature(self, u) -> float:
        """Flag curvature of the flag with pole y and transverse edge u:

            K = g(u, R u) / (F^2 g(u, u) - g(y, u)^2)
        """
        u = np.asarray(u, float)
        g, y = self.g, self.y
        den = self.f2 * float(u @ g @ u) - float(y @ g @ u) ** 2
        if den <= 1e-12 * self.f2 * float(u @ g @ u):
            raise DegenerateFlagError("flag edge u is parallel to the pole y")
        return float(u @ g @ (self.riemann @ u)) / den

    def cfc_residual(self, K: float) -> float:
        """Deviation of R^i_k from constant flag curvature K.

        Constant flag curvature K means R^i_k = K (F^2 delta^i_k - y^i y_k)
        with y_k = g_kj y^j.  Returns max |difference| / (F^2 + max |R|), so
        the value is scale free in y.
        """
        R = self.riemann
        expect = K * (self.f2 * np.eye(len(self.y)) - np.outer(self.y, self.g @ self.y))
        return float(np.max(np.abs(R - expect))) / (self.f2 + float(np.max(np.abs(R))))

    def einstein_residual(self, c: Callable[[np.ndarray], float] | float) -> float:
        """|Ric - (n-1) c(x) F^2| / F^2."""
        cx = c(self.x) if callable(c) else float(c)
        return abs(self.ricci - (len(self.y) - 1) * cx * self.f2) / self.f2


def curvature_data(M: GeneralABMetric, x, y) -> CurvatureData:
    """The flag bundle at (x, y), from one spray solve: F^2 and g come from
    the F^2 jet the solve evaluates, so F^2 is evaluated once per flag."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    f2, g, G = spray_jets(M, x, y, 1, 2)
    R = _riemann_from_jets(M.dim, G, y)
    return CurvatureData(
        x=x, y=y, f2=f2, g=g,
        spray=np.array([float(gi.value) for gi in G]),
        riemann=R, ricci=float(np.trace(R)),
    )


def _riemann_from_jets(n: int, G: list[Jet], y) -> np.ndarray:
    y = np.asarray(y, float)
    nv = 2 * n

    def unit(*vars_):
        m = [0] * nv
        for v in vars_:
            m[v] += 1
        return tuple(m)

    gv = np.array([float(g.value) for g in G])
    dgx = np.array([[float(G[i].partial(unit(k))) for k in range(n)] for i in range(n)])
    dgy = np.array([[float(G[i].partial(unit(n + m))) for m in range(n)] for i in range(n)])
    dgxy = np.array(
        [[[float(G[i].partial(unit(m, n + k))) for k in range(n)] for m in range(n)] for i in range(n)]
    )
    dgyy = np.array(
        [[[float(G[i].partial(unit(n + m, n + k))) for k in range(n)] for m in range(n)] for i in range(n)]
    )
    return (
        2.0 * dgx
        - np.einsum("m,imk->ik", y, dgxy)
        + 2.0 * np.einsum("m,imk->ik", gv, dgyy)
        - np.einsum("im,mk->ik", dgy, dgy)
    )
