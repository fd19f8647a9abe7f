"""Small dense linear algebra generic over floats and jets.

Charts are low dimensional (n <= 6 in practice), so plain Gaussian
elimination with partial pivoting is all that is needed.  Pivoting compares
leading values: for a jet that is the value of its constant term, the
number whose magnitude governs invertibility of the truncated series.
"""

from __future__ import annotations

import numbers


class SingularMatrixError(ArithmeticError):
    """Leading values of the matrix are numerically singular."""


def leading_value(v) -> float:
    return float(v.coeffs[0]) if hasattr(v, "coeffs") else float(v)


def solve(A, rhs):
    """Solve A v = rhs for one right-hand-side vector of ring scalars."""
    n = len(A)
    M = [list(row) for row in A]
    c = list(rhs)
    if any(len(row) != n for row in M) or len(c) != n:
        raise ValueError("matrix and right-hand side must agree in size")
    for col in range(n):
        piv, piv_mag = col, abs(leading_value(M[col][col]))
        col_max = piv_mag
        for r in range(col + 1, n):
            mag = abs(leading_value(M[r][col]))
            col_max = max(col_max, mag)
            if mag > piv_mag:
                piv, piv_mag = r, mag
        if col_max == 0.0 or piv_mag < 1e-13 * col_max or piv_mag == 0.0:
            raise SingularMatrixError(f"pivot {piv_mag:.3e} in column {col}")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            c[col], c[piv] = c[piv], c[col]
        inv_p = 1.0 / M[col][col] if isinstance(M[col][col], numbers.Real) else None
        for r in range(col + 1, n):
            lead = leading_value(M[r][col])
            if lead == 0.0 and isinstance(M[r][col], numbers.Real):
                continue
            f = M[r][col] * inv_p if inv_p is not None else M[r][col] / M[col][col]
            for c2 in range(col + 1, n):
                M[r][c2] = M[r][c2] - f * M[col][c2]
            c[r] = c[r] - f * c[col]
    v = [None] * n
    for r in range(n - 1, -1, -1):
        acc = c[r]
        for c2 in range(r + 1, n):
            acc = acc - M[r][c2] * v[c2]
        v[r] = acc / M[r][r]
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

