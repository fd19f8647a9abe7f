"""Square-metric deformations and Einstein characterization checks.

The projectively flat example chart (berwald_data) is the workhorse: its
reduced pair is exactly (euclidean, x dx), its certificates must fit the
constant c = 1, and both spray-deformation identities hold to rounding.
A sphere with a gradient form and a drift Randers form serve as negative
controls that must fail the respective checks.
"""

import numpy as np
import pytest

from finsq import geometry as geo
from finsq import square as sq
from finsq.finsler import GeneralABMetric, f_value
from finsq.sampling import SampleTable

from conftest import philox


def berwald_pair(n=3):
    return geo.berwald_data(n)


def inner_points(rng, k, n, lo=-0.35, hi=0.35):
    return rng.uniform(lo, hi, (k, n))


class TestPhiLibrary:

    def test_keys_and_kinds(self):
        lib = sq.phi_library()
        kinds = {k: v.kind for k, v in lib.items()}
        assert kinds == {
            "riemannian": "plain",
            "square": "plain",
            "square-conformal": "general",
            "square-reduced": "general",
            "randers-nav": "general",
        }
        assert sq.randers_phi().kind == "plain"

    @pytest.mark.parametrize("key", ["square-conformal", "square-reduced", "randers-nav"])
    def test_consistency_pde_on_grid(self, key):
        # phi_22 = 2 (phi_1 - s phi_12) over b^2 in [0, 0.8], |s| <= b
        phi = sq.phi_library()[key]
        worst = 0.0
        for b2 in np.linspace(0.0, 0.8, 20):
            b = np.sqrt(b2)
            for s in np.linspace(-b, b, 20):
                worst = max(worst, sq.phi_pde_residual(phi, float(b2), float(s)))
        assert worst <= 1e-10

    def test_pde_requires_general_kind(self):
        with pytest.raises(ValueError):
            sq.phi_pde_residual(sq.phi_library()["square"], 0.1, 0.05)

    def test_pde_rejects_b2_independent_square(self):
        # without the b^2 dependence the square profile cannot be a rewrite:
        # phi_22 = 2 while phi_1 = phi_12 = 0
        phi = sq.PhiFunction("square-as-general", "general",
                             lambda b2, s: (1.0 + s) * (1.0 + s))
        assert sq.phi_pde_residual(phi, 0.3, 0.2) == pytest.approx(2.0, abs=1e-12)


class TestDeformations:

    def test_reduced_pair_of_flat_example_is_euclidean(self):
        al, be = berwald_pair()
        ar, br = sq.to_reduced_pair(al, be)
        rng = philox(51)
        for x in inner_points(rng, 4, 3):
            X = [float(v) for v in x]
            A = np.array([[float(v) for v in row] for row in ar.components(X)])
            B = np.array([float(v) for v in br.components(X)])
            assert np.max(np.abs(A - np.eye(3))) <= 1e-14
            assert np.max(np.abs(B - x)) <= 1e-14

    @pytest.mark.parametrize("forward,backward", [
        (sq.to_conformal_pair, sq.from_conformal_pair),
        (sq.to_reduced_pair, sq.from_reduced_pair),
    ])
    def test_roundtrip_recovers_original(self, forward, backward):
        al, be = berwald_pair()
        a2, b2 = backward(*forward(al, be))
        rng = philox(52)
        for x in inner_points(rng, 4, 3):
            X = [float(v) for v in x]
            assert np.max(np.abs(al.matrix(x) - a2.matrix(x))) <= 1e-10
            d = np.array([float(v) for v in be.components(X)]) - \
                np.array([float(v) for v in b2.components(X)])
            assert np.max(np.abs(d)) <= 1e-10

    def test_norm_identities(self):
        al, be = berwald_pair()
        rng = philox(53)
        for x in inner_points(rng, 4, 3):
            res = sq.norm_identity_residuals(al, be, x)
            assert max(res.values()) <= 1e-12

    # a wrong shortcut survives roundtrips (both directions chain it), so
    # compare against the contraction through the produced components
    @pytest.mark.parametrize("producer", [
        sq.to_conformal_pair, sq.from_conformal_pair,
        sq.to_reduced_pair, sq.from_reduced_pair,
    ])
    def test_norm_shortcut_matches_generic(self, producer):
        al, be = berwald_pair()
        ap, bp = producer(al, be)
        assert bp.norm_squared is not None
        rng = philox(58)
        for x in inner_points(rng, 4, 3):
            X = [float(v) for v in x]
            B = np.array([float(v) for v in bp.components(X)])
            generic = float(B @ np.linalg.solve(ap.matrix(x), B))
            assert bp.norm_squared(X) == pytest.approx(generic, abs=1e-12)

    def test_norm_waypoint(self):
        # b = 0.6 deforms to a conformal-pair norm of exactly 0.75
        al, be = berwald_pair()
        ac, bc = sq.to_conformal_pair(al, be)
        v2 = float(geo.one_form_norm_sq(ac, bc, [0.6, 0.0, 0.0]))
        assert np.sqrt(v2) == pytest.approx(0.75, abs=1e-13)

    @pytest.mark.parametrize("n", [3, 4])
    def test_f_three_expressions_agree(self, n):
        al, be = berwald_pair(n)
        rng = philox(54)
        for _ in range(5):
            x = rng.uniform(-0.35, 0.35, n)
            y = rng.uniform(-1.0, 1.0, n)
            f1, f2, f3 = sq.f_square_three_ways(al, be, x, y)
            assert abs(f2 - f1) <= 1e-9 * (1.0 + abs(f1))
            assert abs(f3 - f1) <= 1e-9 * (1.0 + abs(f1))

    def test_square_metric_convenience(self):
        al, be = berwald_pair()
        M = sq.square_metric(al, be)
        X = [0.1, -0.2, 0.25]
        Y = [0.7, -0.3, 0.5]
        direct = float(f_value(GeneralABMetric(al, be, sq.phi_library()["square"]), X, Y))
        assert float(f_value(M, X, Y)) == direct


class TestEinsteinCertificates:

    @pytest.mark.parametrize("n", [3, 4])
    def test_flat_example_passes_with_unit_constant(self, n):
        al, be = berwald_pair(n)
        pts = inner_points(philox(61), 6, n)
        cert = sq.check_einstein_square(SampleTable(sq.square_metric(al, be), pts))
        assert cert.passed
        assert cert.constant == pytest.approx(1.0, abs=1e-10)
        assert cert.residuals["covariant"].max <= 1e-12
        assert cert.residuals["alpha-ricci"].max <= 1e-12
        assert cert.residuals["finsler-ricci"].max <= 1e-10
        assert cert.samples_skipped == 0

    def test_scale_system_passes_on_flat_example(self):
        al, be = berwald_pair()
        pts = inner_points(philox(62), 6, 3)
        cert = sq.check_einstein_scale_system(SampleTable(sq.square_metric(al, be), pts))
        assert cert.passed
        assert cert.constant == pytest.approx(1.0, abs=1e-10)
        assert cert.residuals["gradient"].max <= 1e-12

    def test_exact_tau_gradient_matches_finite_differences(self):
        # a non-Einstein pair, so tau varies and the gradient law fails; the
        # bundle's exact tau_i must still agree with a Richardson central
        # difference of the bundle's tau
        al, be = geo.sphere(3), geo.gradient_form(3, 0.4)
        h = 1e-3

        def tau(p):
            return sq._tau(geo.beta_derivatives(al, be, p), 3)

        for x in inner_points(philox(67), 4, 3):
            bd = geo.beta_derivatives(al, be, x)
            exact = sq._tau_gradient(bd, 3)
            fd = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                d1 = (tau(x + e) - tau(x - e)) / (2.0 * h)
                d2 = (tau(x + 0.5 * e) - tau(x - 0.5 * e)) / h
                fd[i] = (4.0 * d2 - d1) / 3.0
            assert np.max(np.abs(exact - fd)) <= 1e-8 * np.max(np.abs(fd))
            assert np.max(np.abs(exact + 2.0 * tau(x) ** 2 * bd.b_lower)) > 1e-3

    def test_pair_certificates(self):
        al, be = berwald_pair()
        pts = inner_points(philox(63), 6, 3)
        conformal = GeneralABMetric(*sq.to_conformal_pair(al, be),
                                    sq.phi_library()["square-conformal"])
        cc = sq.check_conformal_pair(SampleTable(conformal, pts))
        assert cc.passed and cc.constant == pytest.approx(1.0, abs=1e-10)
        cr = sq.check_reduced_pair(SampleTable(sq.square_from_reduced_pair(*sq.to_reduced_pair(al, be)), pts))
        assert cr.passed and cr.constant == pytest.approx(1.0, abs=1e-10)

    def test_closedness_accepts_closed_and_rejects_drift(self):
        al, be = berwald_pair()
        pts = inner_points(philox(64), 6, 3)
        assert sq.check_closedness(SampleTable(sq.square_metric(al, be), pts)).passed
        drift = sq.square_metric(geo.euclidean(3), geo.drift_form(3, 0.4))
        bad = sq.check_closedness(SampleTable(drift, pts))
        assert not bad.passed
        assert bad.residuals["skew"].max > 1e-2

    def test_sphere_gradient_is_not_einstein_square(self):
        pts = inner_points(philox(65), 6, 3)
        gradient = sq.square_metric(geo.sphere(3, 1.0), geo.gradient_form(3, 0.3))
        cert = sq.check_einstein_square(SampleTable(gradient, pts))
        assert not cert.passed
        assert cert.residuals["alpha-ricci"].max > 0.1

    def test_b_cap_skips_and_counts(self):
        al, be = berwald_pair()
        pts = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.6, 0.0, 0.0],
                        [0.0, 0.0, 0.15], [0.0, 0.7, 0.0]])
        cert = sq.check_einstein_square(SampleTable(sq.square_metric(al, be), pts), b_cap=0.5)
        assert cert.samples_used == 3
        assert cert.samples_skipped == 2

    def test_skipped_point_keeps_directions_paired(self):
        # the off-chart point owns the zero direction; skipping it must not
        # hand that direction to the next point
        al, be = berwald_pair()
        pts = np.array([[0.99, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.2, 0.0],
                        [0.0, 0.0, 0.15]])
        dirs = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, -0.3], [0.4, 1.0, 0.1],
                         [-0.2, 0.5, 1.0]])
        cert = sq.check_einstein_square(SampleTable(sq.square_metric(al, be), pts, dirs))
        assert cert.passed
        assert cert.samples_used == 3
        assert cert.samples_skipped == 1

    def test_insufficient_samples_raises(self):
        al, be = berwald_pair()
        pts = np.array([[0.97, 0.0, 0.0], [0.0, 0.99, 0.0]])
        with pytest.raises(sq.InsufficientSamplesError):
            sq.check_einstein_square(SampleTable(sq.square_metric(al, be), pts))

    def test_certificate_json_shape(self):
        al, be = berwald_pair()
        pts = inner_points(philox(66), 4, 3)
        doc = sq.check_einstein_square(SampleTable(sq.square_metric(al, be), pts)).to_json()
        assert doc["passed"] is True
        assert set(doc["residuals"]) == {"covariant", "alpha-ricci", "finsler-ricci"}
        assert doc["residuals"]["covariant"]["count"] == 4


class TestSprayDeformation:

    @pytest.mark.parametrize("kind", ["conformal", "reduced"])
    def test_identity_on_flat_example(self, kind):
        al, be = berwald_pair()
        pts = inner_points(philox(71), 6, 3)
        res = sq.deformed_spray_residual(SampleTable(sq.square_metric(al, be), pts), kind=kind)
        assert res.residuals["identity"].max <= 1e-12
        assert res.residuals["precondition"].max <= 1e-12
        assert res.passed

    def test_precondition_flagged_when_violated(self):
        # a drift form does not satisfy the covariant equation for any tau
        pts = inner_points(philox(72), 6, 3)
        drift = sq.square_metric(geo.euclidean(3), geo.drift_form(3, 0.4))
        res = sq.deformed_spray_residual(SampleTable(drift, pts), kind="conformal")
        assert res.residuals["precondition"].max > 1e-3

    def test_unknown_kind_rejected(self):
        al, be = berwald_pair()
        with pytest.raises(ValueError):
            sq.deformed_spray_residual(SampleTable(sq.square_metric(al, be), np.zeros((3, 3))),
                                       kind="spherical")
