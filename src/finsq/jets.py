"""Truncated Taylor jets: exact higher-order derivatives of computed fields.

A ``Jet`` holds the Taylor coefficients of a scalar quantity with respect to
a fixed set of perturbation directions, truncated to the retained index set
of its :class:`~finsq.jetspace.JetSpace`.  Arithmetic on jets implements the
truncated power-series ring, so the retained coefficients of any composite
expression are exact to machine rounding: there is no step size anywhere.

Coefficients are float64, and jets combine only with jets over the same
direction set and with real scalars; anything else raises ``TypeError``.

Jets go in through ``seed`` and ``seed_pair``, which seed coordinate
directions, and derivatives come out through one reader, ``partials``:

* it returns actual partial derivatives, factorials included, never raw
  Taylor coefficients;
* a partial outside the retained set raises :class:`TruncationError`
  rather than returning a silent zero;
* every array it returns is a fresh C-contiguous float64 array.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from ._kernels import JetDomainError, backend_name
from .jetspace import JetSpace, TruncationError, jet_space, meet, xy_space

__all__ = [
    "Jet", "seed", "seed_pair", "partials", "fd_partial", "sqrt",
    "TruncationError", "SpaceMismatchError", "JetDomainError", "backend_name",
]


class SpaceMismatchError(ValueError):
    """Jets over unrelated direction sets were mixed in one operation."""


def _real(v) -> float:
    if isinstance(v, (numbers.Real, np.floating, np.integer)):
        return float(v)
    raise TypeError(f"jets take float64 coefficients; cannot combine with {type(v).__name__}")


class Jet:
    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- construction ------------------------------------------------------

    @classmethod
    def constant(cls, space: JetSpace, value) -> "Jet":
        c = np.zeros(space.size)
        c[0] = _real(value)
        return cls(space, c)

    @classmethod
    def variable(cls, space: JetSpace, var: int, value) -> "Jet":
        """Seed ``value + dxi_var``; the space must retain first order in var."""
        if not 0 <= var < space.nvars:
            raise ValueError(f"variable {var} out of range")
        unit = tuple(1 if v == var else 0 for v in range(space.nvars))
        pos = space.position.get(unit)
        if pos is None:
            raise TruncationError(f"space does not retain first order in variable {var}")
        j = cls.constant(space, value)
        j.coeffs[pos] = 1.0
        return j

    # -- inspection ----------------------------------------------------------

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, var: int) -> "Jet":
        """The jet of the partial derivative field along one variable.

        The result lives in the space with one order less in var's group;
        its retained coefficients are exact whenever this jet's are.
        """
        child, src, mult = self.space.derivative_map(var)
        return Jet(child, self.coeffs[src] * mult)

    def truncated(self, space: JetSpace) -> "Jet":
        if space is self.space:
            return self
        return Jet(space, self.coeffs[self.space.projection(space)])

    def __repr__(self):
        return f"Jet({self.value}, caps={self.space.group_caps}, nvars={self.space.nvars})"

    # -- ring operations -----------------------------------------------------

    def _align(self, other: "Jet"):
        if self.space is other.space:
            return self.space, self.coeffs, other.coeffs
        if self.space.var_groups != other.space.var_groups:
            raise SpaceMismatchError("jets over different direction sets cannot be combined")
        target = meet(self.space, other.space)
        return target, self.truncated(target).coeffs, other.truncated(target).coeffs

    def __add__(self, other):
        if isinstance(other, Jet):
            space, a, b = self._align(other)
            return Jet(space, a + b)
        c = self.coeffs.copy()
        c[0] = c[0] + _real(other)
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            space, a, b = self._align(other)
            return Jet(space, a - b)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            space, a, b = self._align(other)
            return Jet(space, _kernels.mul_f(space, a, b))
        return Jet(self.space, self.coeffs * _real(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            space, a, b = self._align(other)
            return Jet(space, _kernels.div_f(space, a, b))
        return Jet(self.space, self.coeffs / _real(other))

    def __rtruediv__(self, other):
        num = Jet.constant(self.space, other)
        return num.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, numbers.Integral):
            raise TypeError("jet powers must be integers; use sqrt() for halves")
        n = int(n)
        if n < 0:
            return (1.0 / self) ** (-n)
        result = Jet.constant(self.space, 1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def sqrt(self) -> "Jet":
        return Jet(self.space, _kernels.sqrt_f(self.space, self.coeffs))


def sqrt(v):
    """Square root working uniformly on floats and jets."""
    if isinstance(v, Jet):
        return v.sqrt()
    return math.sqrt(v)


# -- seeding and reading -------------------------------------------------------


def seed(point: Sequence[float], order: int) -> tuple[Jet, ...]:
    """Seed the coordinates of a point as jets to the given order: component
    i is point[i] + xi_i."""
    if order < 1:
        raise ValueError("seed order must be at least 1")
    p = np.asarray(point, dtype=float)
    space = jet_space((0,) * len(p), (order,))
    return tuple(Jet.variable(space, i, v) for i, v in enumerate(p))


def seed_pair(
    x: Sequence[float],
    y: Sequence[float],
    x_order: int,
    y_order: int,
    total_cap: int | None = None,
) -> tuple[tuple[Jet, ...], tuple[Jet, ...]]:
    """Seed base point and fiber vector along their coordinate directions,
    retaining x_order derivatives in x and y_order in y.

    A group with order zero is seeded as constants: the jets carry no
    dependence on those coordinates, which is exactly what requesting no
    derivatives there means.
    """
    if x_order < 0 or y_order < 0:
        raise ValueError("derivative orders must be nonnegative")
    if x_order + y_order < 1:
        raise ValueError("at least one derivative order must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    space = xy_space(len(x), len(y), x_order, y_order, total_cap)

    def mk(i, v, order):
        return Jet.variable(space, i, v) if order > 0 else Jet.constant(space, v)

    X = tuple(mk(i, x[i], x_order) for i in range(len(x)))
    Y = tuple(mk(len(x) + i, y[i], y_order) for i in range(len(y)))
    return X, Y


def partials(values, space: JetSpace, *reads) -> tuple[np.ndarray, ...]:
    """Mixed partials of an array of jets over one space, one array per read.

    values is a (possibly nested) sequence of jets over space and plain
    floats, which count as constants.  A read is a tuple of variable lists:
    () reads the values, (xs,) the gradients along xs, (xs, ys) the mixed
    second partials d_x d_y, and so on.  The array for a read has the shape
    of values followed by one axis per list.  Raises TruncationError for a
    partial that space does not retain, SpaceMismatchError for a jet over
    another space.
    """
    vals = np.asarray(values, dtype=object)
    rows = np.zeros((vals.size, space.size))
    for r, v in enumerate(vals.flat):
        if isinstance(v, Jet):
            if v.space is not space:
                raise SpaceMismatchError(f"jet over {v.space} read as a jet over {space}")
            rows[r] = v.coeffs
        else:
            rows[r, 0] = _real(v)
    out = []
    for read in reads:
        pos, fact = space.read_table(read)
        out.append(np.multiply(rows[:, pos], fact, order="C").reshape(vals.shape + pos.shape))
    return tuple(out)


# -- finite-difference oracle -------------------------------------------------


def fd_partial(
    field: Callable,
    x: Sequence[float],
    y: Sequence[float],
    xidx: Sequence[int],
    yidx: Sequence[int],
    step: float = 1e-3,
) -> float:
    """Central finite-difference estimate of one mixed partial.

    Composes first-order central differences per direction, then applies one
    Richardson extrapolation level, giving O(step^4) truncation error.  Used
    as an independent cross-check of the jet engine, and as the fallback
    curvature path; accuracy is limited by rounding for high total orders.
    """
    dirs: list[tuple[str, int]] = []
    for v, k in enumerate(xidx):
        dirs.extend([("x", v)] * k)
    for v, k in enumerate(yidx):
        dirs.extend([("y", v)] * k)
    if not dirs:
        return float(field(np.asarray(x, float), np.asarray(y, float)))

    def estimate(h: float) -> float:
        def rec(depth: int, xv: np.ndarray, yv: np.ndarray) -> float:
            if depth == len(dirs):
                return float(field(xv, yv))
            kind, v = dirs[depth]
            if kind == "x":
                xp = xv.copy(); xp[v] += h
                xm = xv.copy(); xm[v] -= h
                return (rec(depth + 1, xp, yv) - rec(depth + 1, xm, yv)) / (2 * h)
            yp = yv.copy(); yp[v] += h
            ym = yv.copy(); ym[v] -= h
            return (rec(depth + 1, xv, yp) - rec(depth + 1, xv, ym)) / (2 * h)

        return rec(0, np.asarray(x, float), np.asarray(y, float))

    coarse = estimate(step)
    fine = estimate(step / 2)
    return (4.0 * fine - coarse) / 3.0
