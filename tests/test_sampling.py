"""Sample generation and the per-run sample table."""

import numpy as np
import pytest

from finsq import finsler
from finsq import geometry as geo
from finsq import square as sq
from finsq.finsler import GeneralABMetric, StrongConvexityError
from finsq.registry import resolve_metric
from finsq.sampling import FLAG_CHUNK, SampleTable, SamplingError, sample_inputs

from conftest import philox


def _constant_metric(n, value, name):
    return geo.RiemannMetric(n, lambda X: [[value] * n for _ in range(n)], name)


class TestSampleInputs:

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_degenerate_matrix_is_a_labelled_refusal(self, value):
        # nan, inf and 0 matrices fail the chart check at the first
        # accepted point, before the rejection loops draw any direction
        alpha = _constant_metric(3, value, "degenerate")
        with pytest.raises(geo.ChartError):
            sample_inputs(alpha, None, 2, seed=0)

    def test_rank_one_matrix_has_no_transverse_edge(self):
        # a = e e^T: every direction of positive norm is parallel to every
        # other in the a-inner product, so no flag edge is transverse; the
        # chart check refuses the singular matrix before the loops look
        alpha = _constant_metric(3, 1.0, "rank-one")
        with pytest.raises(geo.ChartError, match="not positive definite"):
            sample_inputs(alpha, None, 2, seed=0)

    @pytest.mark.parametrize("matrix,what", [
        (1e-12 * np.eye(3), "direction"),
        (np.ones((3, 3)) + 1e-9 * np.eye(3), "flag edge"),
    ], ids=["tiny", "near-rank-one"])
    def test_nearly_degenerate_chart_ends_the_rejection_loops(self, matrix, what):
        # positive definite, so the chart check passes, but no draw clears
        # the norm floor (tiny) or the transversality bound (near rank one):
        # the loops must give up after the draw limit instead of spinning
        alpha = geo.RiemannMetric(3, lambda X: matrix.tolist(), "nearly-degenerate")
        geo.validate_chart(alpha, [np.zeros(3)])
        with pytest.raises(SamplingError, match=what):
            sample_inputs(alpha, None, 2, seed=0)


class TestSampleTable:

    def _table(self, k=3):
        al, be = geo.berwald_data(3)
        return SampleTable(sq.square_metric(al, be), philox(5).uniform(-0.3, 0.3, (k, 3)))

    def test_each_bundle_built_once(self, monkeypatch):
        calls = {"beta_derivatives": 0, "geodesic_spray": 0}
        for name in calls:
            inner = getattr(geo, name)

            def counted(*args, _name=name, _inner=inner):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(geo, name, counted)
        table = self._table()
        for _ in range(2):
            for k in range(3):
                assert table.point(k) is table.point(k)
                assert table.alpha_spray(k) is table.alpha_spray(k)
        assert table.flag(1) is table.flag(1)
        assert calls == {"beta_derivatives": 3, "geodesic_spray": 3}

    def test_bundles_match_direct_builds(self):
        table = self._table()
        x, y = table.points[2], table.directions[2]
        direct = geo.beta_derivatives(table.alpha, table.beta, x)
        assert np.array_equal(table.point(2).bij, direct.bij)
        assert np.array_equal(table.alpha_spray(2), geo.geodesic_spray(table.alpha, x, y))

    def test_failed_build_is_not_cached(self, monkeypatch):
        inner = geo.beta_derivatives
        calls = []

        def flaky(*args):
            calls.append(1)
            if len(calls) == 1:
                raise ArithmeticError("first build fails")
            return inner(*args)

        monkeypatch.setattr(geo, "beta_derivatives", flaky)
        table = self._table()
        with pytest.raises(ArithmeticError, match="first build fails"):
            table.point(0)
        bd = table.point(0)
        assert table.point(0) is bd
        assert len(calls) == 2

    def test_one_direction_per_point(self):
        al, be = geo.berwald_data(3)
        with pytest.raises(ValueError, match="one direction per point"):
            SampleTable(sq.square_metric(al, be), np.zeros((3, 3)), np.ones((2, 3)))

    def test_einstein_certificate_needs_the_square_metric(self):
        table = SampleTable(sq.square_metric(*geo.berwald_data(3)), np.zeros((2, 3)))
        randers = GeneralABMetric(table.alpha, table.beta, sq.randers_phi())
        with pytest.raises(ValueError, match="square metric"):
            sq.check_einstein_square(SampleTable(randers, table.points))


class TestFlagChunks:
    """Flag bundles are built one chunk of samples at a time."""

    def test_one_spray_solve_per_chunk(self, monkeypatch):
        blocks = []
        inner = finsler.spray_jets

        def counted(M, x, *args):
            blocks.append(len(x))
            return inner(M, x, *args)

        monkeypatch.setattr(finsler, "spray_jets", counted)
        al, be = geo.berwald_data(3)
        count = 2 * FLAG_CHUNK + 1
        table = SampleTable(sq.square_metric(al, be), philox(6).uniform(-0.3, 0.3, (count, 3)))
        cd = table.flag(FLAG_CHUNK + 3)
        table.flag(FLAG_CHUNK)
        table.flag(2 * FLAG_CHUNK - 1)
        assert blocks == [FLAG_CHUNK]
        assert cd is table.flag(FLAG_CHUNK + 3)
        for k in range(count):
            table.flag(k)
        assert blocks == [FLAG_CHUNK, FLAG_CHUNK, 1]
        with pytest.raises(IndexError):
            table.flag(count)

    def test_a_failing_sample_spoils_no_other(self):
        # the flat-factor construction with c = 0, d = 0.99999999: at some
        # samples its fundamental tensor is not strongly convex
        bundle = resolve_metric({"construct": {"factor": {"type": "flat", "dim": 2},
                                               "c": 0, "d": 0.99999999}})
        M = bundle.metric
        samples = sample_inputs(M.alpha, M.beta, 8, 0, b_cap=0.9999999999)
        lone, failed = {}, {}
        for k, (x, y) in enumerate(zip(samples.points, samples.directions)):
            try:
                lone[k] = finsler.curvature_data(M, x, y)
            except StrongConvexityError as exc:
                failed[k] = str(exc)
        bad = min(failed)
        chosen = sorted(lone)[:4]
        order = chosen[:2] + [bad] + chosen[2:]
        table = SampleTable(M, samples.points[order], samples.directions[order])
        for _ in range(2):
            with pytest.raises(StrongConvexityError) as exc:
                table.flag(2)
            assert str(exc.value) == failed[bad]
        for j, k in enumerate(order):
            if k != bad:
                cd = table.flag(j)
                for field in ("f2", "g", "spray", "riemann", "ricci"):
                    assert np.array_equal(getattr(cd, field), getattr(lone[k], field))
