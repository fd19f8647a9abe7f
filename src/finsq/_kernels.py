"""Coefficient kernels for jet arithmetic: float64 only, in two tiers.

The compiled tier is the C extension ``finsq._jetcore``; the numpy tier
below is built on per-degree bincounts.  Both walk the triple tables in the
same order, so their outputs are bit-identical.  The compiled tier runs
whenever the extension imports, and the numpy tier otherwise; the numpy
tier also serves as the reference the bitwise tests compare against.
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


def mul_f(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(space.size)
    if _jetcore is not None:
        _jetcore.mul(a, b, out, space.mul_i, space.mul_j, space.mul_k)
    else:
        np_mul(space, a, b, out)
    return out


def div_f(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b[0] == 0.0 or not math.isfinite(b[0]):
        raise JetDomainError(f"jet division by leading value {b[0]}")
    out = np.zeros(space.size)
    acc = np.zeros(space.size)
    if _jetcore is not None:
        _jetcore.div(a, b, out, acc, space.div_i, space.div_j, space.div_k,
                     space.div_trip_off, space.deg_off, space.total_cap + 1)
    else:
        np_div(space, a, b, out, acc)
    return out


def sqrt_f(space: JetSpace, a: np.ndarray) -> np.ndarray:
    if a[0] <= 0.0 or not math.isfinite(a[0]):
        raise JetDomainError(f"jet square root at leading value {a[0]}")
    out = np.zeros(space.size)
    acc = np.zeros(space.size)
    if _jetcore is not None:
        _jetcore.sqrt_(a, out, acc, space.sq_i, space.sq_j, space.sq_k,
                       space.sq_trip_off, space.deg_off, space.total_cap + 1)
    else:
        np_sqrt(space, a, out, acc)
    return out


def np_mul(space, a, b, out):
    out += np.bincount(space.mul_k, weights=a[space.mul_i] * b[space.mul_j],
                       minlength=space.size)


def np_div(space, a, b, out, acc):
    b0 = b[0]
    out[0] = a[0] / b0
    for d in range(1, space.total_cap + 1):
        t0, t1 = space.div_trip_off[d], space.div_trip_off[d + 1]
        if t1 > t0:
            tk = space.div_k[t0:t1]
            acc += np.bincount(tk, weights=b[space.div_j[t0:t1]] * out[space.div_i[t0:t1]],
                               minlength=space.size)
        p0, p1 = space.deg_off[d], space.deg_off[d + 1]
        out[p0:p1] = (a[p0:p1] - acc[p0:p1]) / b0


def np_sqrt(space, a, out, acc):
    s0 = math.sqrt(a[0])
    denom = 2.0 * s0
    out[0] = s0
    for d in range(1, space.total_cap + 1):
        t0, t1 = space.sq_trip_off[d], space.sq_trip_off[d + 1]
        if t1 > t0:
            acc += np.bincount(space.sq_k[t0:t1],
                               weights=out[space.sq_i[t0:t1]] * out[space.sq_j[t0:t1]],
                               minlength=space.size)
        p0, p1 = space.deg_off[d], space.deg_off[d + 1]
        out[p0:p1] = (a[p0:p1] - acc[p0:p1]) / denom

