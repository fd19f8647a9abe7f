"""Small dense linear algebra generic over floats and jets.

Charts are low dimensional (n <= 6 in practice) and every matrix solved
here is symmetric positive definite, so elimination needs no pivoting: the
sequence of ring operations depends on n alone, never on a sample's values.
That is what lets jets with a sample axis run one elimination for a whole
block of samples.
"""

from __future__ import annotations

import numbers


class SingularMatrixError(ArithmeticError):
    """A pivot's leading value is not above the floor set by the diagonal."""


def leading_values(v) -> list[float]:
    """The leading value of a ring scalar at each sample: one for a float or
    a jet without a sample axis, S for a jet with one."""
    return v.coeffs[:1].ravel().tolist() if hasattr(v, "coeffs") else [float(v)]


def solve(A, rhs):
    """Solve A v = rhs for a symmetric positive definite A of ring scalars.

    LDL^T elimination kept as U = D L^T: it reads and updates only the upper
    triangle.  A pivot whose leading value is not above 1e-13 times the
    largest leading value on A's diagonal raises SingularMatrixError; with
    a sample axis, the first sample that fails names the values.  A literal
    float 0.0 entry, a structural zero of the chart, is skipped.
    """
    n = len(A)
    U = [list(row) for row in A]
    c = list(rhs)
    if any(len(row) != n for row in U) or len(c) != n:
        raise ValueError("matrix and right-hand side must agree in size")
    # one floor per sample; a single leading value stands for every sample
    diag = [leading_values(U[k][k]) for k in range(n)]
    floor = [1e-13 * max(d[s % len(d)] for d in diag) for s in range(max(map(len, diag)))]
    for k in range(n):
        piv = U[k][k]
        lead = leading_values(piv)
        for s, lo in enumerate(floor):
            at = lead[s % len(lead)]
            if not at > lo:
                raise SingularMatrixError(f"pivot {at:.3e} in column {k} is not above {lo:.3e}")
        inv_p = 1.0 / piv if isinstance(piv, numbers.Real) else None
        for r in range(k + 1, n):
            if isinstance(U[k][r], numbers.Real) and U[k][r] == 0.0:
                continue
            f = U[k][r] * inv_p if inv_p is not None else U[k][r] / piv
            for c2 in range(r, n):
                U[r][c2] = U[r][c2] - f * U[k][c2]
            c[r] = c[r] - f * c[k]
    v = [None] * n
    for r in range(n - 1, -1, -1):
        acc = c[r]
        for c2 in range(r + 1, n):
            acc = acc - U[r][c2] * v[c2]
        v[r] = acc / U[r][r]
    return v


def dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def matvec(A, v):
    return [dot(row, v) for row in A]


def quadratic_form(A, u, v=None):
    """u^T A v with ring scalars; v defaults to u."""
    if v is None:
        v = u
    return dot(matvec(A, v), u)

