"""Warped-product construction of verified Einstein square metrics."""

import numpy as np
import pytest

from finsq import construct as con
from finsq import geometry as geo
from finsq import square as sq
from finsq.finsler import flag_curvature, ricci
from finsq.sampling import SampleTable

from conftest import philox


def warped_points(rng, spec, k):
    cols = [rng.uniform(spec.t_range[0], spec.t_range[1], k)]
    cols += [rng.uniform(-0.5, 0.5, k) for _ in range(spec.factor.dim)]
    return np.column_stack(cols)


class TestFactors:

    @pytest.mark.parametrize("m,kappa", [(2, 1.0), (3, 1.0), (2, 2.25)])
    def test_sphere_factor_verifies(self, m, kappa):
        g = con.sphere_factor(m, kappa)
        assert g.dim == m

    def test_wrong_curvature_rejected_at_build(self):
        # the spec wants Ric = (m-1) c^2 g; kappa = 2 with c = 1 violates it
        spec = con.WarpedProductSpec(geo.sphere(2, 2.0), 1.0, 0.5)
        with pytest.raises(con.ConstructionError):
            con.build_warped(spec)

    def test_flat_factor_only_fits_c_zero(self):
        con.build_warped(con.WarpedProductSpec(con.flat_factor(2), 0.0, 0.5))
        with pytest.raises(con.ConstructionError):
            con.build_warped(con.WarpedProductSpec(con.flat_factor(2), 1.0, 0.5))

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(con.ConstructionError):
            con.sphere_factor(0, 1.0)


class TestWarpedSpec:

    def test_auto_t_range_spans_h(self):
        spec = con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5)
        assert spec.t_range == pytest.approx((-0.3, 0.4))
        assert spec.h(spec.t_range[0]) == pytest.approx(0.2)
        assert spec.h(spec.t_range[1]) == pytest.approx(0.9)

    def test_invalid_parameters_rejected(self):
        f = con.flat_factor(2)
        with pytest.raises(con.ConstructionError):
            con.WarpedProductSpec(f, 0.0, 0.0)
        with pytest.raises(con.ConstructionError):
            con.WarpedProductSpec(f, 0.0, 1.2)
        with pytest.raises(con.ConstructionError):
            con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5, t_range=(0.0, 0.6))


class TestBuildWarped:

    def test_reduced_certificate_unit_constant(self):
        spec = con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5)
        w, z = con.build_warped(spec)
        pts = warped_points(philox(81), spec, 8)
        cert = sq.check_reduced_pair(SampleTable(sq.square_from_reduced_pair(w, z), pts))
        assert cert.passed
        assert cert.constant == pytest.approx(1.0, abs=1e-12)
        assert cert.residuals["homothety"].max <= 1e-13
        assert cert.residuals["ricci-flat"].max <= 1e-12

    def test_product_case(self):
        spec = con.WarpedProductSpec(con.flat_factor(2), 0.0, 0.5)
        w, z = con.build_warped(spec)
        pts = warped_points(philox(82), spec, 6)
        cert = sq.check_reduced_pair(SampleTable(sq.square_from_reduced_pair(w, z), pts))
        assert cert.passed
        assert cert.constant == pytest.approx(0.0, abs=1e-13)

    def test_trace_formula_for_curved_warp(self):
        # h'' != 0 exercises every term of the warped Ricci decomposition
        factor = geo.sphere(2, 1.3)
        pts = warped_points(philox(83), con.WarpedProductSpec(factor, 1.0, 0.5), 6)
        res = con.warped_trace_residual(
            factor, lambda t: 1.0 + 0.3 * t * t, lambda t: 0.6 * t, lambda t: 0.6,
            (-0.5, 0.5), pts)
        assert res <= 1e-12

    def test_sample_box_covers_chart(self):
        spec = con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5)
        w, _ = con.build_warped(spec)
        assert w.sample_box[0] == pytest.approx(spec.t_range)
        assert len(w.sample_box) == 3
        assert w.domain(np.array([0.0, 0.1, -0.2]))
        assert not w.domain(np.array([0.9, 0.1, -0.2]))


class TestConstruction:

    @pytest.mark.parametrize("m,seed", [(2, 84), (3, 85)])
    def test_einstein_certificate_on_recovered_data(self, m, seed):
        spec = con.WarpedProductSpec(con.sphere_factor(m, 1.0), 1.0, 0.5)
        cm = con.construct_einstein_square(spec)
        pts = warped_points(philox(seed), spec, 6)
        cert = sq.check_einstein_square(SampleTable(cm.metric, pts))
        assert cert.passed
        assert cert.constant == pytest.approx(1.0, abs=1e-10)

    def test_both_presentations_ricci_flat(self):
        spec = con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5)
        cm = con.construct_einstein_square(spec)
        rng = philox(86)
        pts = warped_points(rng, spec, 3)
        for x in pts:
            y = rng.uniform(-1.0, 1.0, 3)
            assert abs(ricci(cm.metric, x, y)) <= 1e-10
            assert abs(ricci(cm.metric_reduced, x, y)) <= 1e-10

    def test_flag_curvature_vanishes(self):
        spec = con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5)
        cm = con.construct_einstein_square(spec)
        rng = philox(87)
        for x in warped_points(rng, spec, 3):
            y = rng.uniform(-1.0, 1.0, 3)
            u = rng.uniform(-1.0, 1.0, 3)
            assert abs(flag_curvature(cm.metric, x, y, u) - cm.expected_flag) <= 1e-10

    def test_spray_deformation_identities_on_construction(self):
        # exercises the recovered pair's norm shortcut through the
        # conformal factor, not just through generic contractions
        spec = con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5)
        cm = con.construct_einstein_square(spec)
        pts = warped_points(philox(88), spec, 6)
        for kind in ("conformal", "reduced"):
            cert = sq.deformed_spray_residual(SampleTable(cm.metric, pts), kind=kind)
            assert cert.passed
            assert cert.residuals["identity"].max <= 1e-12


class TestBerwaldFamily:

    def test_unit_member_is_the_classical_chart(self):
        cm = con.berwald_family(3, 1.0)
        al, be = geo.berwald_data(3)
        rng = philox(88)
        for _ in range(4):
            x = rng.uniform(-0.4, 0.4, 3)
            X = [float(v) for v in x]
            assert np.max(np.abs(cm.alpha.matrix(x) - al.matrix(x))) <= 1e-14
            d = np.array([float(v) for v in cm.beta.components(X)]) - \
                np.array([float(v) for v in be.components(X)])
            assert np.max(np.abs(d)) <= 1e-14

    def test_off_center_member(self):
        cm = con.berwald_family(3, 0.7, np.array([0.1, 0.0, -0.05]))
        rng = philox(89)
        lo = np.array([b[0] for b in cm.alpha.sample_box])
        hi = np.array([b[1] for b in cm.alpha.sample_box])
        pts = rng.uniform(lo, hi, (6, 3))
        pts = pts[[cm.alpha.domain(p) for p in pts]]
        assert len(pts) >= 4
        cert = sq.check_einstein_square(SampleTable(cm.metric, pts))
        assert cert.passed
        assert cert.constant == pytest.approx(0.7, abs=1e-10)
        y = rng.uniform(-1.0, 1.0, 3)
        u = rng.uniform(-1.0, 1.0, 3)
        assert abs(flag_curvature(cm.metric, pts[0], y, u)) <= 1e-10

    def test_constant_form_member(self):
        cm = con.berwald_family(3, 0.0, np.array([0.5, 0.0, 0.0]))
        x = np.array([0.2, -0.3, 0.1])
        assert cm.alpha.domain(x)
        rng = philox(90)
        pts = rng.uniform(-0.4, 0.4, (5, 3))
        cert = sq.check_einstein_square(SampleTable(cm.metric, pts))
        assert cert.passed
        assert cert.constant == pytest.approx(0.0, abs=1e-12)

    def test_invalid_family_parameters(self):
        with pytest.raises(con.ConstructionError):
            con.berwald_family(3, 1.0, np.array([0.1, 0.2]))
        with pytest.raises(con.ConstructionError):
            con.berwald_family(3, 0.0)
        with pytest.raises(con.ConstructionError):
            con.berwald_family(3, 0.0, np.array([1.5, 0.0, 0.0]))
