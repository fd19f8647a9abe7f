"""Truncated multivariate Taylor index sets and their convolution tables.

A ``JetSpace`` fixes the perturbation variables of a truncated Taylor
expansion together with the retained multi-index set.  Variables belong to
groups (in practice a base-point group and a fiber group), each group has a
degree cap, and an overall total cap applies on top.  The retained set is
every multi-index whose per-group degrees and total degree stay within the
caps.  Such sets are downward closed, so ring operations carried out on the
retained coefficients are exact for every retained index: no contribution
from a discarded index can ever reach a kept one.

Indices are ordered by total degree, then lexicographically.  The graded
order is what makes division and square root computable by a per-degree
recursion, and it keeps the contribution order of every kernel tier
identical so results agree bit for bit.

Tables are built once per space and cached process-wide.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

_SPACE_CACHE: dict[tuple, "JetSpace"] = {}


class TruncationError(LookupError):
    """A derivative outside the retained truncation set was requested."""


def jet_space(var_groups: Iterable[int], group_caps: Iterable[int], total_cap: int | None = None) -> "JetSpace":
    """Return the cached space for the given variable layout and caps."""
    var_groups = tuple(int(g) for g in var_groups)
    group_caps = tuple(int(c) for c in group_caps)
    if not var_groups:
        raise ValueError("a jet space needs at least one variable")
    ngroups = max(var_groups) + 1
    if sorted(set(var_groups)) != list(range(ngroups)) or len(group_caps) != ngroups:
        raise ValueError("variable groups must be 0..G-1 with one cap per group")
    if any(c < 0 for c in group_caps):
        raise ValueError("group caps must be nonnegative")
    cap_sum = sum(group_caps)
    total = cap_sum if total_cap is None else min(int(total_cap), cap_sum)
    if total < 0:
        raise ValueError("total cap must be nonnegative")
    # A cap above the total is unreachable; normalize so equivalent spaces share cache slots.
    group_caps = tuple(min(c, total) for c in group_caps)
    key = (var_groups, group_caps, total)
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = JetSpace(var_groups, group_caps, total)
        _SPACE_CACHE[key] = space
    return space


def xy_space(nx: int, ny: int, x_order: int, y_order: int, total_cap: int | None = None) -> "JetSpace":
    """Space for jets over nx base-point directions and ny fiber directions."""
    return jet_space((0,) * nx + (1,) * ny, (x_order, y_order), total_cap)


def meet(a: "JetSpace", b: "JetSpace") -> "JetSpace":
    """Largest common subspace of two spaces over the same variables."""
    if a.var_groups != b.var_groups:
        raise ValueError("cannot meet spaces over different variable layouts")
    caps = tuple(min(u, v) for u, v in zip(a.group_caps, b.group_caps))
    return jet_space(a.var_groups, caps, min(a.total_cap, b.total_cap))


def _enumerate_indices(var_groups, group_caps, total_cap):
    n = len(var_groups)
    out = []
    idx = [0] * n
    left = list(group_caps)

    def rec(v, tot_left):
        if v == n:
            out.append(tuple(idx))
            return
        g = var_groups[v]
        top = min(left[g], tot_left)
        for k in range(top + 1):
            idx[v] = k
            left[g] -= k
            rec(v + 1, tot_left - k)
            left[g] += k
        idx[v] = 0

    rec(0, total_cap)
    out.sort(key=lambda m: (sum(m), m))
    return out


class JetSpace:
    """Retained multi-index set plus the tables driving coefficient kernels.

    Do not construct directly; go through :func:`jet_space` so instances are
    shared and identity checks stay meaningful.
    """

    __slots__ = (
        "var_groups", "group_caps", "total_cap", "nvars", "size",
        "indices", "position", "degrees", "deg_off", "fact",
        "mul_i", "mul_j", "mul_k",
        "div_i", "div_j", "div_k", "div_trip_off",
        "sq_i", "sq_j", "sq_k", "sq_trip_off",
        "_deriv_maps", "_projections", "_reads",
    )

    def __init__(self, var_groups, group_caps, total_cap):
        self.var_groups = var_groups
        self.group_caps = group_caps
        self.total_cap = total_cap
        self.nvars = len(var_groups)
        self.indices = _enumerate_indices(var_groups, group_caps, total_cap)
        self.size = len(self.indices)
        self.position = {m: p for p, m in enumerate(self.indices)}
        self.degrees = np.array([sum(m) for m in self.indices], dtype=np.int64)
        # graded order makes each degree a contiguous block
        self.deg_off = np.searchsorted(self.degrees, np.arange(total_cap + 2)).astype(np.int64)
        self.fact = np.array(
            [math.prod(math.factorial(k) for k in m) for m in self.indices],
            dtype=np.float64,
        )
        self._build_tables()
        self._deriv_maps = {}
        self._projections = {}
        self._reads = {}

    def _build_tables(self):
        # For every retained k, every componentwise divisor i is retained too
        # (downward closure), so enumeration needs no membership filtering.
        pos = self.position
        mi, mj, mk = [], [], []
        di, dj, dk = [], [], []
        si, sj, sk = [], [], []
        div_counts = [0] * (self.total_cap + 1)
        sq_counts = [0] * (self.total_cap + 1)
        for pk, k in enumerate(self.indices):
            deg = int(self.degrees[pk])
            for i in itertools.product(*[range(kv + 1) for kv in k]):
                j = tuple(a - b for a, b in zip(k, i))
                pi = pos[i]
                pj = pos[j]
                mi.append(pi)
                mj.append(pj)
                mk.append(pk)
                if pj != 0:
                    di.append(pi)
                    dj.append(pj)
                    dk.append(pk)
                    div_counts[deg] += 1
                    if pi != 0:
                        si.append(pi)
                        sj.append(pj)
                        sk.append(pk)
                        sq_counts[deg] += 1
        as_i32 = lambda xs: np.asarray(xs, dtype=np.int32)
        self.mul_i, self.mul_j, self.mul_k = as_i32(mi), as_i32(mj), as_i32(mk)
        self.div_i, self.div_j, self.div_k = as_i32(di), as_i32(dj), as_i32(dk)
        self.sq_i, self.sq_j, self.sq_k = as_i32(si), as_i32(sj), as_i32(sk)
        self.div_trip_off = np.concatenate([[0], np.cumsum(div_counts)]).astype(np.int64)
        self.sq_trip_off = np.concatenate([[0], np.cumsum(sq_counts)]).astype(np.int64)

    # -- derived spaces ----------------------------------------------------

    def derivative_map(self, var: int):
        """Child space and the (positions, multipliers) extracting d/dvar.

        child.coeffs[p] = parent.coeffs[src[p]] * mult[p], where mult carries
        the exponent bump: the Taylor coefficient of m in the derivative is
        (m_v + 1) times the coefficient of m + e_v in the parent.
        """
        cached = self._deriv_maps.get(var)
        if cached is not None:
            return cached
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable {var} out of range for {self.nvars} variables")
        g = self.var_groups[var]
        caps = list(self.group_caps)
        if caps[g] == 0 or self.total_cap == 0:
            raise ValueError("space retains no derivative in that direction")
        caps[g] -= 1
        child = jet_space(self.var_groups, tuple(caps), self.total_cap - 1)
        src = np.empty(child.size, dtype=np.int64)
        mult = np.empty(child.size, dtype=np.float64)
        for p, m in enumerate(child.indices):
            bumped = list(m)
            bumped[var] += 1
            src[p] = self.position[tuple(bumped)]
            mult[p] = m[var] + 1
        out = (child, src, mult)
        self._deriv_maps[var] = out
        return out

    def read_table(self, read) -> tuple[np.ndarray, np.ndarray]:
        """Positions and factorials of the partials one read takes.

        A read is a tuple of variable lists; entry (v1, v2, ...) of the
        tables belongs to the multi-index e_v1 + e_v2 + ..., one vi from
        each list.  Raises TruncationError if one is not retained.
        """
        key = tuple(tuple(int(v) for v in vs) for vs in read)
        cached = self._reads.get(key)
        if cached is not None:
            return cached
        shape = tuple(len(vs) for vs in key)
        pos = np.empty(shape, dtype=np.int64)
        for at, vars_ in zip(np.ndindex(shape), itertools.product(*key)):
            m = [0] * self.nvars
            for v in vars_:
                m[v] += 1
            p = self.position.get(tuple(m))
            if p is None:
                raise TruncationError(f"index {tuple(m)} not retained by {self}")
            pos[at] = p
        out = (pos, self.fact[pos])
        self._reads[key] = out
        return out

    def projection(self, sub: "JetSpace") -> np.ndarray:
        """Positions of a subspace's indices inside this space."""
        cached = self._projections.get(id(sub))
        if cached is not None:
            return cached
        if sub.var_groups != self.var_groups:
            raise ValueError("cannot project across different variable layouts")
        try:
            pos = np.array([self.position[m] for m in sub.indices], dtype=np.int64)
        except KeyError:
            raise ValueError("projection target is not a subspace") from None
        self._projections[id(sub)] = pos
        return pos

    def __repr__(self):
        return (
            f"JetSpace(nvars={self.nvars}, caps={self.group_caps}, "
            f"total={self.total_cap}, size={self.size})"
        )
