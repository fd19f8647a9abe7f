"""Jet engine: seeding, exact arithmetic, extraction, and error contract.

Expected values are either worked by hand (and frozen here) or checked
against an independent finite-difference oracle.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsq
import finsq.jets
from finsq.jets import (
    Jet,
    JetDomainError,
    SpaceMismatchError,
    TruncationError,
    fd_partial,
    partials,
    seed,
    seed_pair,
)
from finsq.jetspace import jet_space, meet, xy_space


def one_var(order):
    (t,) = seed([0.0], order)
    return t


def partial(jet, m):
    """The partial of one jet at the multi-index m, read through `partials`."""
    read = tuple((v,) for v, k in enumerate(m) for _ in range(k))
    return partials(jet, jet.space, read)[0].item()


def exact_partial(field, x, y, xidx, yidx):
    """One partial of field(X, Y) at (x, y), read off jets seeded to exactly
    the orders of the multi-indices."""
    X, Y = seed_pair(x, y, sum(xidx), sum(yidx))
    return partial(field(X, Y), tuple(xidx) + tuple(yidx))


def test_public_names_resolve():
    # a stale name in __all__ breaks `from finsq import *`
    for module in (finsq, finsq.jets):
        assert [n for n in module.__all__ if not hasattr(module, n)] == []


class TestSeeding:
    def test_seed_point_in_one_direction(self):
        X = seed([1.0, 2.0], 2)
        assert [float(j.value) for j in X] == [1.0, 2.0]
        # along the first coordinate direction only the first seed moves
        (grad,) = partials(X, X[0].space, ((0,),))
        assert grad.tolist() == [[1.0], [0.0]]

    def test_polynomial_on_seed(self):
        X = seed([1.0, 2.0], 2)
        f = X[0] * X[0]
        assert float(f.value) == 1.0
        assert partial(f, (1, 0)) == 2.0
        assert partial(f, (2, 0)) == 2.0

    def test_seed_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            seed([1.0], 0)
        with pytest.raises(ValueError):
            seed_pair([1.0], [1.0], -1, 2)
        with pytest.raises(ValueError):
            seed_pair([1.0], [1.0], 0, 0)

    def test_seed_pair_layout(self):
        X, Y = seed_pair([0.1, 0.2], [1.0, -1.0], 1, 2)
        assert float(X[1].value) == 0.2
        assert float(Y[0].value) == 1.0
        # x-seeds carry no y-dependence and vice versa
        assert partial(X[0], (0, 0, 1, 0)) == 0.0
        assert partial(Y[1], (0, 1, 0, 0)) == 0.0


class TestFrozenValues:
    def test_sqrt_taylor_at_one(self):
        # d/dt sqrt(1+t): 1/2; second derivative: -1/4
        r = (1.0 + one_var(3)).sqrt()
        assert float(r.value) == pytest.approx(1.0, abs=0)
        assert partial(r, (1,)) == pytest.approx(0.5, abs=1e-15)
        assert partial(r, (2,)) == pytest.approx(-0.25, abs=1e-15)
        assert partial(r, (3,)) == pytest.approx(0.375, abs=1e-15)

    def test_inner_product_squared_mixed_partial(self):
        # f = <x, y>^2, d^2 f / dx1 dy1 at x = y = e1 equals 4
        def f(X, Y):
            ip = X[0] * Y[0] + X[1] * Y[1]
            return ip * ip

        got = exact_partial(f, [1.0, 0.0], [1.0, 0.0], (1, 0), (1, 0))
        assert got == pytest.approx(4.0, abs=1e-14)

    def test_binomial_powers(self):
        t = one_var(5)
        p = (1.0 + t) ** 5
        # Taylor coefficients are the partials over k!
        coeffs = [partial(p, (k,)) / math.factorial(k) for k in range(6)]
        assert coeffs == [1.0, 5.0, 10.0, 10.0, 5.0, 1.0]

    def test_negative_power_matches_division(self):
        t = one_var(4)
        lhs = (1.0 + t) ** (-2)
        rhs = 1.0 / ((1.0 + t) * (1.0 + t))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0, atol=1e-15)


class TestReader:
    def test_factorials_included(self):
        # d^k/dt^k (1+t)^5 at t = 0 is 5! / (5-k)!
        p = (1.0 + one_var(5)) ** 5
        got = [partials(p, p.space, ((0,),) * k)[0].item() for k in range(6)]
        assert got == [1.0, 5.0, 20.0, 60.0, 120.0, 120.0]

    def test_inner_product_squared_hand_values(self):
        # f = <x, y>^2: f_{x^i y^j} = 2 (x_j y_i + <x, y> delta_ij) and
        # f_{y^i y^j} = 2 x_i x_j, here at x = y = e1
        X, Y = seed_pair([1.0, 0.0], [1.0, 0.0], 2, 2)
        ip = X[0] * Y[0] + X[1] * Y[1]
        xs, ys = (0, 1), (2, 3)
        v, dxy, dyy = partials(ip * ip, X[0].space, (), (xs, ys), (ys, ys))
        assert v.item() == 1.0
        assert dxy.tolist() == [[4.0, 0.0], [0.0, 2.0]]
        assert dyy.tolist() == [[2.0, 0.0], [0.0, 0.0]]

    def test_unretained_partial_is_error(self):
        t = one_var(2)
        with pytest.raises(TruncationError):
            partials(t, t.space, ((0,), (0,), (0,)))

    def test_foreign_jet_is_error(self):
        t = one_var(2)
        with pytest.raises(SpaceMismatchError):
            partials([t, 1.0], jet_space((0,), (3,)), ())

    def test_floats_are_constants(self):
        t = one_var(2)
        vals, grads = partials([[1.0 + t, 2.5], [3, t * t]], t.space, (), ((0,),))
        assert vals.tolist() == [[1.0, 2.5], [3.0, 0.0]]
        assert grads.tolist() == [[[1.0], [0.0]], [[0.0], [0.0]]]

    def test_output_is_c_contiguous(self):
        X = seed([0.1, 0.2, 0.3], 2)
        A = [[X[i] * X[j] for j in range(3)] for i in range(3)]
        xs = (0, 1, 2)
        for arr in partials(A, X[0].space, (), (xs,), (xs, xs)):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert X[0].space.read_table((xs,)) is X[0].space.read_table([list(xs)])

    def test_third_y_read_is_symmetric(self):
        # the Douglas read: one (ys, ys, ys) read fills every permutation
        _, Y = seed_pair([0.0], [0.5, -0.7, 1.1], 0, 3)
        f = Y[0] * Y[0] * Y[0] + Y[0] * Y[1] * Y[2] + 2.0 * Y[1] * Y[2] * Y[2]
        (D,) = partials(f, Y[0].space, ((1, 2, 3),) * 3)
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(D, D.transpose(perm))
        assert D[0, 0, 0] == 6.0 and D[2, 0, 1] == 1.0 and D[2, 1, 2] == 4.0
        assert D[1, 1, 1] == 0.0


class TestRingIdentities:
    @given(
        a=st.lists(st.floats(-2, 2), min_size=5, max_size=5),
        b=st.lists(st.floats(-2, 2), min_size=5, max_size=5),
        c=st.lists(st.floats(-2, 2), min_size=5, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_matches_cauchy_convolution(self, a, b, c):
        space = jet_space((0,), (4,))
        ja, jb = Jet(space, np.array(a)), Jet(space, np.array(b))
        prod = ja * jb
        expect = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(5)]
        np.testing.assert_allclose(prod.coeffs, expect, rtol=1e-12, atol=1e-12)
        # distributivity
        jc = Jet(space, np.array(c))
        lhs = ja * (jb + jc)
        rhs = ja * jb + ja * jc
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)

    @given(b0=st.floats(0.5, 3.0), rest=st.lists(st.floats(-1, 1), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_division_and_sqrt_invert(self, b0, rest):
        space = jet_space((0,), (4,))
        jb = Jet(space, np.array([b0] + rest))
        t = one_var(4)
        ja = 1.0 + 0.5 * t + t * t
        q = ja / jb
        np.testing.assert_allclose((q * jb).coeffs, ja.truncated(space).coeffs, rtol=1e-12, atol=1e-12)
        s = jb.sqrt()
        np.testing.assert_allclose((s * s).coeffs, jb.coeffs, rtol=1e-12, atol=1e-12)

    def test_leibniz_on_random_polynomials(self, rng):
        # jets of polynomial functions are exact, so d(fg) = f'g + fg' exactly
        space = jet_space((0, 0), (3,))
        for _ in range(20):
            ca = rng.uniform(-1, 1, space.size)
            cb = rng.uniform(-1, 1, space.size)
            ja, jb = Jet(space, ca), Jet(space, cb)
            prod = ja * jb
            for var in (0, 1):
                lhs = prod.derivative(var)
                rhs = ja.derivative(var) * jb.truncated(lhs.space) + ja.truncated(lhs.space) * jb.derivative(var)
                np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


def smooth_field(X, Y):
    # strictly positive inside the sampled box, built from supported ops
    q = (2.0 + X[0]) * Y[0] * Y[0] + (1.5 + X[0] * X[1]) * Y[1] * Y[1] + 0.3 * Y[0] * Y[1]
    from finsq.jets import sqrt

    return sqrt(q) * (1.0 + 0.2 * X[1] * Y[0]) / (2.0 + X[0] * X[0])


class TestFiniteDifferenceAgreement:
    X0 = [0.3, -0.4]
    Y0 = [0.8, 0.5]

    @pytest.mark.parametrize(
        "xidx,yidx",
        [

            ((1, 0), (0, 0)),
            ((0, 1), (0, 0)),
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1)),
            ((2, 0), (0, 0)),
            ((1, 1), (0, 0)),
            ((1, 0), (1, 0)),
            ((0, 1), (0, 1)),
            ((0, 0), (2, 0)),
            ((0, 0), (1, 1)),
            ((1, 0), (2, 0)),
            ((2, 0), (1, 0)),
            ((0, 0), (3, 0)),
            ((0, 0), (2, 1)),
        ],
    )
    def test_low_order_partials_match_fd(self, xidx, yidx):
        # Richardson-extrapolated central differences at step 1e-3 resolve
        # total order <= 3 to 1e-6 relative; the absolute floor covers the
        # oracle's own rounding noise (eps / h^3) on small derivative values
        exact = exact_partial(smooth_field, self.X0, self.Y0, xidx, yidx)
        approx = fd_partial(smooth_field, self.X0, self.Y0, xidx, yidx, step=1e-3)
        assert approx == pytest.approx(exact, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize(
        "xidx,yidx",
        [
            ((2, 0), (2, 0)),
            ((1, 1), (0, 3)),
            ((2, 0), (0, 3)),
        ],
    )
    def test_high_order_partials_match_fd_coarse_step(self, xidx, yidx):
        # rounding noise scales like eps/h^order, so orders 4 and 5 need a
        # coarser step before the FD oracle carries any signal at all
        exact = exact_partial(smooth_field, self.X0, self.Y0, xidx, yidx)
        approx = fd_partial(smooth_field, self.X0, self.Y0, xidx, yidx, step=0.05)
        assert approx == pytest.approx(exact, rel=5e-4, abs=5e-4)


class TestErrorContract:
    def test_partial_beyond_truncation_is_error(self):
        t = one_var(2)
        with pytest.raises(TruncationError):
            partial(t, (3,))

    def test_mixed_order_beyond_spec_is_error(self):
        X, Y = seed_pair([0.1], [1.0], 1, 1)
        f = X[0] * Y[0]
        # the mixed index within both caps is retained and exact
        assert partial(f, (1, 1)) == pytest.approx(1.0)
        with pytest.raises(TruncationError):
            partial(f, (2, 0))
        with pytest.raises(TruncationError):
            partial(f, (0, 2))

    def test_space_mismatch_rejected(self):
        a = one_var(2)
        space_b = jet_space((0, 0), (2,))
        b = Jet.variable(space_b, 0, 0.0)
        with pytest.raises(SpaceMismatchError):
            _ = a + b

    def test_non_float_coefficients_rejected(self):
        t = one_var(2)
        space = jet_space((0,), (2,))
        with pytest.raises(TypeError):
            Jet.constant(space, t)
        with pytest.raises(TypeError):
            Jet.variable(space, 0, t)
        for other in (None, "1", 1j):
            for op in (lambda: t + other, lambda: t * other, lambda: t / other):
                with pytest.raises(TypeError):
                    op()

    def test_sqrt_domain(self):
        t = one_var(2)
        with pytest.raises(JetDomainError):
            t.sqrt()
        with pytest.raises(JetDomainError):
            (t - 1.0).sqrt()

    def test_division_by_zero_lead(self):
        t = one_var(2)
        with pytest.raises(JetDomainError):
            _ = 1.0 / t



class TestExtraction:
    def test_derivative_of_polynomial_jet(self):
        space = jet_space((0, 0), (3,))
        x1 = Jet.variable(space, 0, 0.5)
        x2 = Jet.variable(space, 1, -1.5)
        f = x1 * x1 * x2
        df = f.derivative(0)
        expect = 2.0 * x1 * x2
        np.testing.assert_allclose(df.coeffs, expect.truncated(df.space).coeffs, rtol=0, atol=1e-15)

    def test_alignment_lands_in_meet_space(self):
        big = jet_space((0,), (4,))
        small = jet_space((0,), (2,))
        a = Jet.variable(big, 0, 1.0)
        b = Jet.variable(small, 0, 1.0)
        c = a * b
        assert c.space is meet(big, small)

    def test_truncation_is_projection(self):
        space = xy_space(1, 1, 2, 2)
        sub = xy_space(1, 1, 1, 1)
        x = Jet.variable(space, 0, 0.7)
        y = Jet.variable(space, 1, 1.3)
        f = (x * y + 1.0) * (x + y)
        g = f.truncated(sub)
        for idx in sub.indices:
            assert partial(g, idx) == partial(f, idx)
