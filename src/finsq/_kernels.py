"""Coefficient kernels for jet arithmetic: float64 only, in two tiers.

The compiled tier is the C extension ``finsq._jetcore``; the numpy tier
below is built on per-degree bincounts.  Both walk the triple tables in the
same order, so their outputs are bit-identical.  The compiled tier runs
whenever the extension imports, and the numpy tier otherwise; the numpy
tier also serves as the reference the bitwise tests compare against.

Coefficient arrays have shape (size,) or (size, S), one column per sample;
a 1-d array is the case S = 1.  Every sample sees the same operations in
the same order as a lone 1-d call, so a column of a block is bit-identical
to that sample computed alone; a sample table builds its flag bundles
one chunk of samples per jet program on top of that.  Division and square
root check each sample's leading value and raise JetDomainError at the
first that fails.
"""

from __future__ import annotations

import math

import numpy as np

from .jetspace import JetSpace

try:
    from . import _jetcore  # type: ignore[attr-defined]
except ImportError:
    _jetcore = None


class JetDomainError(ArithmeticError):
    """Division or root at a leading value where the operation is singular."""


def backend_name() -> str:
    return "compiled" if _jetcore is not None else "numpy"


def _leads(a: np.ndarray):
    """The leading coefficient of each sample."""
    lead = a[0]
    return (lead,) if lead.ndim == 0 else lead.tolist()


def mul_f(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape)
    if _jetcore is not None:
        _jetcore.mul(a, b, out, space.mul_i, space.mul_j, space.mul_k)
    else:
        np_mul(space, a, b, out)
    return out


def div_f(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    for v in _leads(b):
        if v == 0.0 or not math.isfinite(v):
            raise JetDomainError(f"jet division by leading value {v}")
    out = np.zeros(a.shape)
    acc = np.zeros(a.shape)
    if _jetcore is not None:
        _jetcore.div(a, b, out, acc, space.div_i, space.div_j, space.div_k,
                     space.div_trip_off, space.deg_off, space.total_cap + 1)
    else:
        np_div(space, a, b, out, acc)
    return out


def sqrt_f(space: JetSpace, a: np.ndarray) -> np.ndarray:
    for v in _leads(a):
        if v <= 0.0 or not math.isfinite(v):
            raise JetDomainError(f"jet square root at leading value {v}")
    out = np.zeros(a.shape)
    acc = np.zeros(a.shape)
    if _jetcore is not None:
        _jetcore.sqrt_(a, out, acc, space.sq_i, space.sq_j, space.sq_k,
                       space.sq_trip_off, space.deg_off, space.total_cap + 1)
    else:
        np_sqrt(space, a, out, acc)
    return out


def _scatter(size: int, tk: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of w summed into rows tk of a size-row block, in table order.
    With a sample axis this is one bincount over the flattened (row,
    sample) positions, which keeps each sample's order of summation."""
    if w.ndim == 1:
        return np.bincount(tk, weights=w, minlength=size)
    lanes = w.shape[1]
    at = (tk[:, None] * lanes + np.arange(lanes)).ravel()
    return np.bincount(at, weights=w.ravel(), minlength=size * lanes).reshape(size, lanes)


def np_mul(space, a, b, out):
    out += _scatter(space.size, space.mul_k, a[space.mul_i] * b[space.mul_j])


def np_div(space, a, b, out, acc):
    b0 = b[0]
    out[0] = a[0] / b0
    for d in range(1, space.total_cap + 1):
        t0, t1 = space.div_trip_off[d], space.div_trip_off[d + 1]
        if t1 > t0:
            acc += _scatter(space.size, space.div_k[t0:t1],
                            b[space.div_j[t0:t1]] * out[space.div_i[t0:t1]])
        p0, p1 = space.deg_off[d], space.deg_off[d + 1]
        out[p0:p1] = (a[p0:p1] - acc[p0:p1]) / b0


def np_sqrt(space, a, out, acc):
    s0 = np.sqrt(a[0])
    denom = 2.0 * s0
    out[0] = s0
    for d in range(1, space.total_cap + 1):
        t0, t1 = space.sq_trip_off[d], space.sq_trip_off[d + 1]
        if t1 > t0:
            acc += _scatter(space.size, space.sq_k[t0:t1],
                            out[space.sq_i[t0:t1]] * out[space.sq_j[t0:t1]])
        p0, p1 = space.deg_off[d], space.deg_off[d + 1]
        out[p0:p1] = (a[p0:p1] - acc[p0:p1]) / denom
