"""Finsler (alpha, beta)-metrics: sprays, curvature, and the Douglas tensor.

A metric is F = alpha * phi(s) with s = beta/alpha, or in the general form
F = alpha * phi(b^2, s) where b is the alpha-norm of beta.  Everything here
is computed from the definition by exact jet differentiation:

    g_ij = (1/2) [F^2]_{y^i y^j}
    G^i  = (1/4) g^{il} ( [F^2]_{x^k y^l} y^k - [F^2]_{x^l} )
    R^i_k = 2 dG^i/dx^k - y^m d^2G^i/(dx^m dy^k)
            + 2 G^m d^2G^i/(dy^m dy^k) - (dG^i/dy^m)(dG^m/dy^k)

The sprays are produced as jets over (x, y) to exactly the derivative orders
a downstream formula reads: each caller states the x-, y- and total caps
(x_out, y_out, total_out) of its reads, and the one evaluation of F^2
happens in a space with caps (x_out + 1, y_out + 2) and total
total_out + 2, raised by the orders the extraction chain uses up, so every
coefficient that survives is exact and none is kept that no read takes.
The flag bundle reads up to total order 2, caps (1, 2, 2); the Douglas
tensor reads three y-derivatives of a y-derivative, caps (0, 4, 4); the
pointwise spray reads values only, caps (0, 0, 0).

The flag bundle ``curvature_data`` is the one route to a flag-level
quantity; ``spray_closed_form`` and the finite-difference fallback
``riemann_fd`` serve as independent oracles.

``spray_jets``, ``curvature_data`` and ``douglas_tensor`` take one sample,
x and y of shape (n,), or a block of S samples, shapes (S, n): the block
runs one jet program whose jets carry a sample axis, and each sample's
result is bit-identical to its lone build.  The float math after the
jet read (``einsum``, ``eigvalsh``) runs sample by sample.  Where any
sample of a block fails, the block raises one of ``SAMPLE_FAILURES``,
naming the first sample that failed at the first op that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .geometry import OneFormField, RiemannMetric, Scalar, beta_derivatives, geodesic_spray, one_form_norm_sq
from .jets import Jet, JetDomainError, fd_partial, partials, seed_pair, sqrt
from .jetspace import xy_space


class StrongConvexityError(ArithmeticError):
    """The fundamental tensor is not positive definite at the sample."""


# What a bundle build raises when one sample is outside the metric's domain.
SAMPLE_FAILURES = (JetDomainError, linalg.SingularMatrixError, StrongConvexityError)


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

    def __post_init__(self):
        if self.kind == "plain" and (self.d1 is None or self.d2 is None):
            raise ValueError(f"plain profile {self.name!r} needs closed-form d1 and d2")

    def partials(self, b2: float, s: float) -> tuple[float, float, float, float, float, float]:
        """(phi, phi_1, phi_2, phi_11, phi_12, phi_22) at a float argument,
        where subscript 1 differentiates in b^2 and 2 in s.

        The reads stop at second order, in each variable and in total, so
        the seeds' caps are (2, 2) with total 2."""
        if self.kind != "general":
            raise ValueError("two-argument partials are a general-kind operation")
        (U,), (S,) = seed_pair([b2], [s], 2, 2, 2)
        v, d, dd = partials(self.fn(U, S), U.space, (), ((0, 1),), ((0, 1), (0, 1)))
        return (float(v), float(d[0]), float(d[1]),
                float(dd[0, 0]), float(dd[0, 1]), float(dd[1, 1]))


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


def _floats(v) -> str:
    """A vector for a message: plain numbers to 6 significant digits."""
    return "(" + ", ".join(f"{float(t):.6g}" for t in v) + ")"


def _fundamental(M: GeneralABMetric, F2: Jet, x, y) -> np.ndarray:
    """g_ij at (x, y), read off an F^2 jet over (x, y) with y-order >= 2;
    shape (n, n), or (S, n, n) over a block.

    Raises StrongConvexityError, at the first sample that fails, unless g
    is strongly convex at every sample."""
    n = M.dim
    ys = tuple(range(n, 2 * n))
    g = 0.5 * partials(F2, F2.space, (ys, ys))[0]
    for s, gs in enumerate(g.reshape(-1, n, n)):
        ev = np.linalg.eigvalsh(gs)
        if ev[0] <= 0.0 or ev[-1] / ev[0] > 1e12:
            raise StrongConvexityError(
                f"{M.name}: fundamental tensor not strongly convex at "
                f"x={_floats(np.reshape(x, (-1, n))[s])}, "
                f"y={_floats(np.reshape(y, (-1, n))[s])} (eigenvalues {_floats(ev)})"
            )
    return g


# -- spray -----------------------------------------------------------------


def spray_jets(M: GeneralABMetric, x, y, x_out: int, y_out: int,
               total_out: int) -> tuple[float | np.ndarray, np.ndarray, list[Jet]]:
    """F^2 and g_ij at (x, y), and the spray coefficients G^i as jets exact
    on the target space with caps (x_out, y_out) and total total_out.
    Blocks x and y of shape (S, n) give F^2 of shape (S,), g of shape
    (S, n, n) and jets with a sample axis.

    The caller states the caps of what it reads from G, the total cap
    included: there is no default, because a total cap above the reads
    roughly doubles the F^2 space (at n = 4, caps (2, 4) hold 700
    coefficients with total 5 and 360 with total 4).  F^2 is evaluated once
    in a space with
    caps (x_out + 1, y_out + 2) and total total_out + 2; the assembly
    consumes one x-order for [F^2]_x, one x- and one y-order for the mixed
    term, and two y-orders for g_ij, so the solved G^i jets are exact on the
    target space, to which every term is truncated before the assembly.
    Raises StrongConvexityError, before solving, where g is not strongly
    convex.
    """
    n = M.dim
    X, Y = seed_pair(x, y, x_out + 1, y_out + 2, total_cap=total_out + 2)
    F2 = f_squared(M, X, Y)
    g = _fundamental(M, F2, x, y)
    target = xy_space(n, n, x_out, y_out, total_out)

    Y = [v.truncated(target) for v in Y]
    dx = [F2.derivative(l) for l in range(n)]
    gy = [F2.derivative(n + i) for i in range(n)]
    rows: list[list[Jet]] = [[None] * n for _ in range(n)]
    rhs: list[Jet] = []
    for l in range(n):
        dxy_l = [dx[k].derivative(n + l).truncated(target) for k in range(n)]
        acc = dxy_l[0] * Y[0]
        for k in range(1, n):
            acc = acc + dxy_l[k] * Y[k]
        rhs.append(acc - dx[l].truncated(target))
    for i in range(n):
        gyi = gy[i]
        for j in range(i, n):
            gij = (0.5 * gyi.derivative(n + j)).truncated(target)
            rows[i][j] = gij
            rows[j][i] = gij
    G = linalg.solve(rows, rhs)
    return F2.value.copy(), g, [0.25 * gi for gi in G]


def _spray_values(M: GeneralABMetric, x, y) -> np.ndarray:
    """Spray values on the smallest jet space: riemann_fd's pointwise solve.

    It reads the values of G alone, so the target caps are (0, 0, 0)."""
    G = spray_jets(M, x, y, 0, 0, 0)[2]
    return partials(G, G[0].space, ())[0]


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
    d1 = float(M.phi.d1(s))
    d2 = float(M.phi.d2(s))
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


def riemann_fd(M, x, y, step_x: float = 1e-3, step_y: float = 1e-3) -> np.ndarray:
    """Riemann curvature R^i_k in Berwald's form by Richardson-extrapolated
    central differences of exact pointwise spray values: slower and noisier
    than ``curvature_data(M, x, y).riemann``, and independent of its jets."""
    n = M.dim
    x = np.asarray(x, float)
    y = np.asarray(y, float)

    def comp(i):
        return lambda xv, yv: float(_spray_values(M, xv, yv)[i])

    gv = _spray_values(M, x, y)
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


def douglas_tensor(M: GeneralABMetric, x, y) -> DouglasTensor | list[DouglasTensor]:
    """Douglas tensor from D = d^3/dy^3 [ G^i - (dG^m/dy^m) y^i / (n+1) ];
    a list of S tensors for blocks x and y of shape (S, n).

    D reads three y-derivatives of N = dG^m/dy^m, one more y-order than it
    reads of G itself, and no x-derivative: the spray's target caps are
    (0, 4, 4), so F^2 runs at caps (1, 6) with total 6."""
    n = M.dim
    y = np.asarray(y, float)
    _, _, G = spray_jets(M, x, y, 0, 4, 4)
    N = G[0].derivative(n + 0)
    for m in range(1, n):
        N = N + G[m].derivative(n + m)
    # N's space keeps the three y-orders D reads: seed y, one value per
    # sample, and truncate G there
    Y = [Jet.variable(N.space, n + i, v) for i, v in enumerate(y.T)]
    inv = 1.0 / (n + 1)
    P = [G[i].truncated(N.space) - inv * (N * Y[i]) for i in range(n)]
    ys = tuple(range(n, 2 * n))
    (D,) = partials(P, N.space, (ys, ys, ys))
    if y.ndim == 1:
        return DouglasTensor(components=D, y=y)
    return [DouglasTensor(components=D[s], y=y[s]) for s in range(len(y))]


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

    def einstein_residual(self, c: float) -> float:
        """|Ric - (n-1) c F^2| / F^2."""
        return abs(self.ricci - (len(self.y) - 1) * float(c) * self.f2) / self.f2


def curvature_data(M: GeneralABMetric, x, y) -> CurvatureData | list[CurvatureData]:
    """The flag bundle at (x, y), from one spray solve: F^2 and g come from
    the F^2 jet the solve evaluates, so F^2 is evaluated once per flag.
    Blocks x and y of shape (S, n) give a list of S bundles from one solve
    over the block.

    Berwald's Riemann tensor reads G, dG/dx, dG/dy, d^2G/dx dy and
    d^2G/dy dy, nothing beyond total order 2: the spray's target caps are
    (1, 2, 2), so F^2 runs at caps (2, 4) with total 4."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    f2, g, G = spray_jets(M, x, y, 1, 2, 2)
    xs, ys = tuple(range(M.dim)), tuple(range(M.dim, 2 * M.dim))
    reads = partials(G, G[0].space, (), (xs,), (ys,), (xs, ys), (ys, ys))
    if x.ndim == 1:
        return _flag_bundle(x, y, f2, g, *reads)
    return [_flag_bundle(x[s], y[s], f2[s], g[s], *(r[s] for r in reads))
            for s in range(len(x))]


def _flag_bundle(x, y, f2, g, gv, dgx, dgy, dgxy, dgyy) -> CurvatureData:
    """One sample's bundle from its spray partials: dgxy[i, m, k] is
    d^2 G^i / dx^m dy^k and dgyy[i, m, k] is d^2 G^i / dy^m dy^k."""
    R = (
        2.0 * dgx
        - np.einsum("m,imk->ik", y, dgxy)
        + 2.0 * np.einsum("m,imk->ik", gv, dgyy)
        - np.einsum("im,mk->ik", dgy, dgy)
    )
    return CurvatureData(x=x, y=y, f2=float(f2), g=g, spray=gv, riemann=R,
                         ricci=float(np.trace(R)))
