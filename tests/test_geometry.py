"""Riemannian layer: connection, curvature, and one-form calculus.

Oracles: hand-worked Christoffel symbols of the conformal chart
(1 + x_1)^2 delta at the origin, the classical Gauss-curvature form of its
2d Ricci tensor, the round sphere's Ric = (n-1) kappa a, and cross-checks
between the two independent spray routes.
"""

import numpy as np
import pytest

from finsq import geometry as G
from tests.conftest import christoffels, conformal_poly, philox, spray_from_christoffels


class TestChristoffels:
    def test_conformal_chart_hand_values_at_origin(self):
        m = conformal_poly(2)
        gam = christoffels(m, [0.0, 0.0])
        assert gam[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        assert gam[0, 1, 1] == pytest.approx(-1.0, abs=1e-14)
        assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-14)
        assert gam[1, 1, 0] == pytest.approx(1.0, abs=1e-14)
        assert gam[1, 0, 0] == pytest.approx(0.0, abs=1e-14)
        assert gam[0, 0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_euclidean_chart_is_flat(self):
        gam = christoffels(G.euclidean(3), [0.4, -0.1, 0.2])
        assert np.max(np.abs(gam)) == 0.0

    def test_sphere_chart_critical_at_origin(self):
        gam = christoffels(G.sphere(3, 2.0), [0.0, 0.0, 0.0])
        assert np.max(np.abs(gam)) == pytest.approx(0.0, abs=1e-14)


class TestRicci:
    def test_conformal_2d_matches_gauss_curvature(self):
        # for (1 + x1)^2 delta the Gauss curvature is (1 + x1)^-4, so
        # Ric = K a = delta / (1 + x1)^2
        m = conformal_poly(2)
        for x in ([0.2, -0.3], [0.0, 0.5], [-0.4, 0.1]):
            ric = G.ricci_tensor(m, x)
            expect = np.eye(2) / (1.0 + x[0]) ** 2
            np.testing.assert_allclose(ric, expect, atol=1e-12)

    @pytest.mark.parametrize("n,kappa", [(2, 1.0), (3, 1.0), (3, 1.7), (4, 0.5)])
    def test_round_sphere(self, n, kappa):
        s = G.sphere(n, kappa)
        rng = philox(5)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, n)
            ric = G.ricci_tensor(s, x)
            np.testing.assert_allclose(ric, (n - 1) * kappa * s.matrix(x), atol=1e-12)
            y = rng.standard_normal(n)
            a2 = float(y @ s.matrix(x) @ y)
            assert float(y @ G.ricci_tensor(s, x) @ y) == pytest.approx((n - 1) * kappa * a2, rel=1e-12)

    def test_euclidean_is_ricci_flat(self):
        ric = G.ricci_tensor(G.euclidean(4), [0.1, 0.2, -0.3, 0.4])
        assert np.max(np.abs(ric)) < 1e-15

    def test_sign_convention_sphere_positive(self):
        ric = G.ricci_tensor(G.sphere(3, 1.0), [0.2, 0.1, -0.1])
        assert np.all(np.linalg.eigvalsh(ric) > 0)


class TestSpray:
    @pytest.mark.parametrize("make", [lambda: G.sphere(3, 1.3), lambda: conformal_poly(3), lambda: G.berwald_data(3)[0]])
    def test_energy_route_matches_christoffel_route(self, make):
        m = make()
        rng = philox(7)
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 3)
            y = rng.standard_normal(3)
            g1 = G.geodesic_spray(m, x, y)
            g2 = spray_from_christoffels(m, x, y)
            np.testing.assert_allclose(g1, g2, rtol=1e-10, atol=1e-12)

    def test_spray_quadratic_in_y(self):
        m = G.sphere(3, 1.0)
        x = np.array([0.3, -0.2, 0.1])
        y = np.array([0.5, 1.0, -0.4])
        np.testing.assert_allclose(
            G.geodesic_spray(m, x, 2.0 * y), 4.0 * G.geodesic_spray(m, x, y), rtol=1e-12
        )


class TestOneFormCalculus:
    def test_gradient_form_on_euclidean_is_parallel_scaled(self):
        # b_i = c x_i on flat space: b_{i|j} = c delta_ij exactly
        n = 3
        bij = G.beta_derivatives(G.euclidean(n), G.gradient_form(n, 0.4), [0.3, 0.1, -0.2]).bij
        np.testing.assert_allclose(bij, 0.4 * np.eye(n), atol=1e-14)

    def test_drift_form_split(self):
        # b = c x_2 dx^1 on flat space: db_1/dx_2 = c, so r_12 = r_21 = c/2,
        # s_12 = -s_21 = c/2
        n = 3
        bd = G.beta_derivatives(G.euclidean(n), G.drift_form(n, 0.8), [0.1, 0.5, -0.3])
        assert bd.bij[0, 1] == pytest.approx(0.8)
        assert bd.r[0, 1] == pytest.approx(0.4)
        assert bd.s[0, 1] == pytest.approx(0.4)
        assert bd.s[1, 0] == pytest.approx(-0.4)
        y = np.array([1.0, 2.0, 0.5])
        assert bd.r00(y) == pytest.approx(2 * 0.4 * y[0] * y[1])
        # s contraction: s_{10} = s_12 y^2 ... here s0_lower = s @ y
        np.testing.assert_allclose(bd.s0_lower(y), bd.s @ y)

    def test_norm_squared_shortcut_matches_solve(self):
        alpha, beta = G.berwald_data(3)
        stripped = G.OneFormField(dim=3, components=beta.components)
        rng = philox(11)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 3)
            via_shortcut = G.one_form_norm_sq(alpha, beta, list(x))
            via_solve = G.one_form_norm_sq(alpha, stripped, list(x))
            assert via_shortcut == pytest.approx(via_solve, rel=1e-12)
            assert via_shortcut == pytest.approx(float(x @ x), rel=1e-12)


class TestValidation:
    def test_validate_chart_accepts_sphere(self):
        G.validate_chart(G.sphere(3, 1.0), [[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]])

    def test_validate_chart_rejects_asymmetric(self):
        bad = G.RiemannMetric(dim=2, components=lambda X: [[1.0, 0.2], [0.1, 1.0]], name="bad")
        with pytest.raises(G.ChartError):
            G.validate_chart(bad, [[0.0, 0.0]])

    def test_validate_chart_rejects_indefinite(self):
        bad = G.RiemannMetric(dim=2, components=lambda X: [[1.0, 0.0], [0.0, -1.0]], name="bad")
        with pytest.raises(G.ChartError):
            G.validate_chart(bad, [[0.0, 0.0]])

    @pytest.mark.parametrize("fill", [float("inf"), float("nan")])
    def test_validate_chart_rejects_non_finite(self, fill):
        # one bad entry or all of them: refused before any eigenvalue solve
        one = G.RiemannMetric(dim=2, components=lambda X: [[1.0, 0.0], [0.0, fill]], name="one")
        every = G.RiemannMetric(dim=2, components=lambda X: [[fill] * 2] * 2, name="every")
        for bad in (one, every):
            with pytest.raises(G.ChartError, match="non-finite"):
                G.validate_chart(bad, [[0.0, 0.0]])
