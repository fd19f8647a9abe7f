"""Finsler core: sprays, curvature, flags, and the Douglas tensor.

Cross-checks the jet pipeline against three independent oracles: the
classical Levi-Civita route for Riemannian reductions, the closed-form
(alpha, beta) spray, and Richardson finite differences of pointwise spray
values.  Curvature facts (zero flag curvature of the locally projectively
flat example, Douglas vanishing for closed beta) come from the literature.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsq import finsler
from finsq import geometry as geo
from finsq.finsler import (
    DegenerateFlagError,
    GeneralABMetric,
    PhiFunction,
    StrongConvexityError,
    _spray_values,
    curvature_data,
    douglas_tensor,
    f_value,
    riemann_fd,
    spray_closed_form,
    spray_jets,
)
from finsq.jets import sqrt
from finsq.registry import builtin_names, resolve_metric
from finsq.sampling import sample_inputs

from conftest import conformal_poly, philox


def phi_riemannian():
    return PhiFunction("riemannian", "plain", lambda s: 1.0 + 0.0 * s,
                       d1=lambda s: 0.0, d2=lambda s: 0.0)


def phi_randers():
    return PhiFunction("randers", "plain", lambda s: 1.0 + s,
                       d1=lambda s: 1.0, d2=lambda s: 0.0)


def phi_square():
    return PhiFunction("square", "plain", lambda s: (1.0 + s) * (1.0 + s),
                       d1=lambda s: 2.0 * (1.0 + s), d2=lambda s: 2.0)


def berwald_square(n):
    al, be = geo.berwald_data(n)
    return GeneralABMetric(al, be, phi_square(), "berwald-square")


def sample(rng, M, lo=-0.4, hi=0.4):
    x = rng.uniform(lo, hi, M.dim)
    y = rng.uniform(-1.0, 1.0, M.dim)
    return x, y


class TestRiemannianReduction:
    """phi = 1 must reproduce the classical objects exactly."""

    @pytest.mark.parametrize("chart", [
        lambda: geo.sphere(3, 1.3),
        lambda: conformal_poly(2),
        lambda: geo.euclidean(3),
    ])
    def test_spray_and_ricci_match_classical(self, chart):
        al = chart()
        M = GeneralABMetric(al, geo.zero_form(al.dim), phi_riemannian(), "riem")
        rng = philox(101)
        for _ in range(4):
            x, y = sample(rng, M)
            gc = geo.geodesic_spray(al, x, y)
            cd = curvature_data(M, x, y)
            assert np.max(np.abs(cd.spray - gc)) <= 1e-12 * (1 + np.max(np.abs(gc)))
            rc = float(y @ geo.ricci_tensor(al, x) @ y)
            assert abs(cd.ricci - rc) <= 1e-12 * (1 + abs(rc))

    def test_fundamental_tensor_is_alpha(self):
        al = geo.sphere(3, 1.3)
        M = GeneralABMetric(al, geo.zero_form(3), phi_riemannian(), "riem")
        x = np.array([0.2, -0.1, 0.3])
        g = curvature_data(M, x, np.array([0.4, 1.0, -0.2])).g
        assert np.max(np.abs(g - al.matrix(x))) <= 1e-12


class TestSprayCrossCheck:
    """Generic jet spray vs the closed (alpha, beta) formula."""

    @pytest.mark.parametrize("build,seed", [
        (lambda: berwald_square(3), 7),
        (lambda: GeneralABMetric(geo.euclidean(3), geo.gradient_form(3, 0.4),
                                 phi_randers(), "grad-randers"), 8),
        (lambda: GeneralABMetric(geo.euclidean(3), geo.drift_form(3, 0.4),
                                 phi_randers(), "drift-randers"), 9),
        (lambda: GeneralABMetric(geo.berwald_data(3)[0], geo.berwald_data(3)[1],
                                 phi_randers(), "berwald-randers"), 10),
        (lambda: berwald_square(4), 11),
    ])
    def test_generic_equals_closed_form(self, build, seed):
        M = build()
        rng = philox(seed)
        for _ in range(5):
            x, y = sample(rng, M)
            a = curvature_data(M, x, y).spray
            b = spray_closed_form(M, x, y)
            assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(b)))

    def test_spray_jet_values_match_spray(self):
        M = berwald_square(3)
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        _, _, G = spray_jets(M, x, y, 1, 2, 2)
        values = np.array([float(g.value) for g in G])
        assert np.max(np.abs(values - _spray_values(M, x, y))) <= 1e-14


class TestHomogeneity:

    @given(lam=st.floats(0.3, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_f_degree_one_and_spray_degree_two(self, lam):
        M = berwald_square(3)
        x = [0.1, -0.2, 0.25]
        y = np.array([0.7, -0.3, 0.5])
        f1 = f_value(M, x, list(y))
        f2 = f_value(M, x, list(lam * y))
        assert abs(f2 - lam * f1) <= 1e-12 * (1 + abs(f1))
        g1 = curvature_data(M, x, y).spray
        g2 = curvature_data(M, x, lam * y).spray
        assert np.max(np.abs(g2 - lam * lam * g1)) <= 1e-10 * (1 + np.max(np.abs(g1)))


class TestFlagCurvature:

    @pytest.mark.parametrize("n,seed", [(3, 21), (4, 22)])
    def test_projectively_flat_square_example_has_zero_flag(self, n, seed):
        M = berwald_square(n)
        rng = philox(seed)
        for _ in range(6):
            x, y = sample(rng, M, -0.35, 0.35)
            u = rng.uniform(-1.0, 1.0, n)
            assert abs(curvature_data(M, x, y).flag_curvature(u)) <= 1e-10

    def test_flag_invariant_under_edge_changes(self):
        M = berwald_square(3)
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        u = np.array([0.2, 0.9, -0.4])
        cd = curvature_data(M, x, y)
        k0 = cd.flag_curvature(u)
        assert abs(cd.flag_curvature(u + 0.7 * y) - k0) <= 1e-8
        assert abs(cd.flag_curvature(2.5 * u) - k0) <= 1e-8

    def test_degenerate_flag_rejected(self):
        M = berwald_square(3)
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        cd = curvature_data(M, x, y)
        with pytest.raises(DegenerateFlagError):
            cd.flag_curvature(y)
        with pytest.raises(DegenerateFlagError):
            cd.flag_curvature(-2.0 * y)

    def test_riemannian_sphere_flag_is_kappa(self):
        al = geo.sphere(3, 1.7)
        M = GeneralABMetric(al, geo.zero_form(3), phi_riemannian(), "sphere")
        rng = philox(23)
        for _ in range(4):
            x, y = sample(rng, M)
            u = rng.uniform(-1.0, 1.0, 3)
            assert abs(curvature_data(M, x, y).flag_curvature(u) - 1.7) <= 1e-9

    def test_cfc_residual_detects_wrong_constant(self):
        M = berwald_square(3)
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        cd = curvature_data(M, x, y)
        assert cd.cfc_residual(0.0) <= 1e-12
        assert cd.cfc_residual(1.0) > 0.1


class TestDouglas:

    @pytest.mark.parametrize("n", [3, 4])
    def test_berwald_example_is_douglas(self, n):
        M = berwald_square(n)
        rng = philox(31)
        x, y = sample(rng, M)
        D = douglas_tensor(M, x, y)
        assert D.max_abs <= 1e-10

    def test_closed_beta_randers_is_douglas(self):
        M = GeneralABMetric(geo.euclidean(3), geo.gradient_form(3, 0.4),
                            phi_randers(), "grad-randers")
        rng = philox(32)
        x, y = sample(rng, M)
        assert douglas_tensor(M, x, y).max_abs <= 1e-10

    def test_drift_randers_is_not_douglas(self):
        M = GeneralABMetric(geo.euclidean(3), geo.drift_form(3, 0.4),
                            phi_randers(), "drift-randers")
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        D = douglas_tensor(M, x, y)
        assert D.max_abs > 1e-3
        assert D.max_abs == pytest.approx(0.5235033424620797, rel=1e-9)

    def test_symmetry_and_euler_trace(self):
        M = GeneralABMetric(geo.euclidean(3), geo.drift_form(3, 0.4),
                            phi_randers(), "drift-randers")
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        D = douglas_tensor(M, x, y)
        c = D.components
        assert np.array_equal(c, np.transpose(c, (0, 1, 3, 2)))
        assert np.array_equal(c, np.transpose(c, (0, 2, 1, 3)))
        assert D.y_trace_max() <= 1e-12


class TestFiniteDifferenceFallback:

    @pytest.mark.parametrize("build", [
        lambda: berwald_square(3),
        lambda: GeneralABMetric(geo.euclidean(3), geo.drift_form(3, 0.4),
                                phi_randers(), "drift-randers"),
    ])
    def test_fd_riemann_matches_jets(self, build):
        M = build()
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        Rj = curvature_data(M, x, y).riemann
        Rf = riemann_fd(M, x, y)
        assert np.max(np.abs(Rj - Rf)) <= 1e-6 * (1 + np.max(np.abs(Rj)))


class TestGeneralKind:
    """General phi(b^2, s) pipeline against the plain route and hand values."""

    def test_b2_independent_general_matches_plain(self):
        al, be = geo.berwald_data(3)
        Mg = GeneralABMetric(al, be, PhiFunction(
            "square-as-general", "general", lambda b2, s: (1.0 + s) * (1.0 + s)), "gen")
        Mp = berwald_square(3)
        rng = philox(41)
        for _ in range(4):
            x, y = sample(rng, Mg)
            gen = curvature_data(Mg, x, y).spray
            assert np.max(np.abs(gen - spray_closed_form(Mp, x, y))) <= 1e-12

    def test_partials_hand_values(self):
        phi = PhiFunction("square-conformal", "general",
                          lambda b2, s: (sqrt(1.0 + b2) + s) ** 2)
        b2, s = 0.37, 0.21
        r = np.sqrt(1.0 + b2)
        p, p1, p2, p11, p12, p22 = phi.partials(b2, s)
        assert p == pytest.approx((r + s) ** 2, rel=1e-14)
        assert p1 == pytest.approx((r + s) / r, rel=1e-14)
        assert p2 == pytest.approx(2.0 * (r + s), rel=1e-14)
        assert p11 == pytest.approx(-s / (2.0 * r ** 3), rel=1e-13)
        assert p12 == pytest.approx(1.0 / r, rel=1e-14)
        assert p22 == pytest.approx(2.0, rel=1e-14)

    def test_generic_b2_solve_matches_shortcut(self):
        al, be = geo.berwald_data(3)
        phi = PhiFunction("square-conformal", "general",
                          lambda b2, s: (sqrt(1.0 + b2) + s) ** 2)
        stripped = geo.OneFormField(be.dim, be.components, be.name)
        M1 = GeneralABMetric(al, be, phi, "shortcut")
        M2 = GeneralABMetric(al, stripped, phi, "solved")
        x = np.array([0.2, -0.1, 0.3])
        y = np.array([0.9, 0.4, -0.3])
        g1, g2 = curvature_data(M1, x, y).spray, curvature_data(M2, x, y).spray
        assert np.max(np.abs(g1 - g2)) <= 1e-12

    def test_plain_profile_requires_closed_form_derivatives(self):
        with pytest.raises(ValueError, match="d1 and d2"):
            PhiFunction("c", "plain", lambda s: 1.0)
        with pytest.raises(ValueError, match="d1 and d2"):
            PhiFunction("c", "plain", lambda s: 1.0, d1=lambda s: 0.0)

    def test_scalar_derivative_requires_plain(self):
        with pytest.raises(ValueError):
            phi_square().partials(0.1, 0.2)


class TestErrorsAndBundles:

    def test_zero_y_rejected(self):
        M = berwald_square(3)
        with pytest.raises(ValueError):
            f_value(M, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0])

    def test_closed_form_requires_plain(self):
        al, be = geo.berwald_data(3)
        M = GeneralABMetric(al, be, PhiFunction("g", "general",
                                                lambda b2, s: 1.0 + s), "gen")
        with pytest.raises(ValueError):
            spray_closed_form(M, [0.1, 0.0, 0.0], [1.0, 0.0, 0.0])

    def test_convexity_failure_reported(self):
        # s > 1 kills phi - s phi' = (1 + s)(1 - s) for the square profile
        M = GeneralABMetric(geo.euclidean(2), geo.gradient_form(2, 1.0),
                            phi_square(), "too-big-beta")
        x = np.array([1.25, 0.0])
        y = np.array([1.0, 0.001])
        with pytest.raises(StrongConvexityError):
            spray_closed_form(M, x, y)
        with pytest.raises(StrongConvexityError):
            curvature_data(M, x, y)
        # at s = 1, g is singular: refused as not convex before the spray solve
        with pytest.raises(StrongConvexityError):
            _spray_values(M, np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_curvature_data_consistent(self):
        M = berwald_square(3)
        x = np.array([0.1, -0.2, 0.25])
        y = np.array([0.7, -0.3, 0.5])
        cd = curvature_data(M, x, y)
        # bit for bit: `finsq eval --quantity spray` prints cd.spray
        assert np.array_equal(cd.spray, _spray_values(M, x, y))
        assert cd.ricci == float(np.trace(cd.riemann))
        assert cd.f2 == pytest.approx(float(f_value(M, list(x), list(y))) ** 2, rel=1e-14)


class TestSpraySpaces:
    """Each caller of spray_jets retains only what it reads."""

    @staticmethod
    def _f2_spaces(monkeypatch):
        spaces = []
        inner = finsler.f_squared

        def recorded(M, X, Y):
            F2 = inner(M, X, Y)
            spaces.append(F2.space)
            return F2

        monkeypatch.setattr(finsler, "f_squared", recorded)
        return spaces

    @pytest.mark.parametrize("n,size", [(4, 360), (6, 1302)])
    def test_flag_bundle_f2_space(self, n, size, monkeypatch):
        spaces = self._f2_spaces(monkeypatch)
        x, y = sample(philox(31), berwald_square(n))
        curvature_data(berwald_square(n), x, y)
        (space,) = spaces
        assert (space.group_caps, space.total_cap, space.size) == ((2, 4), 4, size)

    def test_douglas_f2_space(self, monkeypatch):
        spaces = self._f2_spaces(monkeypatch)
        x, y = sample(philox(32), berwald_square(4))
        douglas_tensor(berwald_square(4), x, y)
        (space,) = spaces
        assert (space.group_caps, space.total_cap, space.size) == ((1, 6), 6, 714)

    @pytest.mark.parametrize("name", builtin_names())
    def test_flag_bundle_bit_identical_to_total_three(self, name, monkeypatch):
        # every retained coefficient is summed in the same order in either space
        bundle = resolve_metric(name)
        samples = sample_inputs(bundle.alpha, bundle.beta, 3, 7)
        inner = finsler.spray_jets

        def total_three(M, x, y, x_out, y_out, total_out):
            assert (x_out, y_out, total_out) == (1, 2, 2)
            return inner(M, x, y, x_out, y_out, 3)

        for x, y in zip(samples.points, samples.directions):
            new = curvature_data(bundle.metric, x, y)
            with monkeypatch.context() as m:
                m.setattr(finsler, "spray_jets", total_three)
                old = curvature_data(bundle.metric, x, y)
            assert new.f2 == old.f2
            for field in ("g", "spray", "riemann"):
                assert np.array_equal(getattr(new, field), getattr(old, field)), field


def _blocks():
    """Every builtin and the warped construction, over both of its
    expressions, at n = 3 to 6."""
    out = []
    for n in range(3, 7):
        for name in builtin_names():
            out.append(pytest.param(resolve_metric({"name": name, "dim": n}).metric,
                                    id=f"{name}-{n}"))
        spec = {"construct": {"factor": {"type": "sphere", "dim": n - 1}, "c": 1.0, "d": 0.5}}
        cm = resolve_metric(spec).construction
        out += [pytest.param(cm.metric, id=f"warped-{n}"),
                pytest.param(cm.metric_reduced, id=f"warped-reduced-{n}")]
    return out


class TestSampleBlocks:
    """A block of samples runs one jet program; every sample's bundle is
    bit-identical to the one it gets alone."""

    FIELDS = ("f2", "g", "spray", "riemann", "ricci")

    @pytest.mark.parametrize("M", _blocks())
    def test_block_equals_lone_builds(self, M):
        samples = sample_inputs(M.alpha, M.beta, 5, 11)
        block = curvature_data(M, samples.points, samples.directions)
        assert len(block) == 5
        for cd, x, y in zip(block, samples.points, samples.directions):
            lone = curvature_data(M, x, y)
            for field in self.FIELDS:
                assert np.array_equal(getattr(cd, field), getattr(lone, field)), field

    @pytest.mark.parametrize("name", builtin_names())
    def test_batch_of_one_is_the_scalar_path(self, name):
        M = resolve_metric({"name": name, "dim": 4}).metric
        samples = sample_inputs(M.alpha, M.beta, 1, 12)
        x, y = samples.points[0], samples.directions[0]
        f2, g, G = spray_jets(M, x, y, 1, 2, 2)
        f2_b, g_b, G_b = spray_jets(M, x[None], y[None], 1, 2, 2)
        assert f2_b.shape == (1,) and f2_b[0] == f2
        assert np.array_equal(g_b[0], g)
        for gi, gi_b in zip(G, G_b):
            assert gi_b.coeffs.shape == gi.coeffs.shape + (1,)
            assert np.array_equal(gi_b.coeffs[:, 0], gi.coeffs)
        (cd,) = curvature_data(M, x[None], y[None])
        lone = curvature_data(M, x, y)
        for field in self.FIELDS:
            assert np.array_equal(getattr(cd, field), getattr(lone, field)), field

    @pytest.mark.parametrize("name", ["berwald", "randers-drift"])
    def test_douglas_block_equals_lone_builds(self, name):
        M = resolve_metric(name).metric
        samples = sample_inputs(M.alpha, M.beta, 4, 13)
        block = douglas_tensor(M, samples.points, samples.directions)
        for D, x, y in zip(block, samples.points, samples.directions):
            lone = douglas_tensor(M, x, y)
            assert np.array_equal(D.components, lone.components)
            assert np.array_equal(D.y, lone.y)

    def test_block_raises_at_a_failing_sample(self):
        # the too-big-beta chart of test_convexity_failure_reported, with a
        # convex sample first: the block fails as the bad sample does alone
        M = GeneralABMetric(geo.euclidean(2), geo.gradient_form(2, 1.0),
                            phi_square(), "too-big-beta")
        xs = np.array([[0.1, 0.2], [1.25, 0.0]])
        ys = np.array([[1.0, 0.5], [1.0, 0.001]])
        with pytest.raises(StrongConvexityError) as lone:
            curvature_data(M, xs[1], ys[1])
        with pytest.raises(StrongConvexityError) as block:
            curvature_data(M, xs, ys)
        assert str(block.value) == str(lone.value)
