"""The compiled and numpy kernel tiers must agree bit for bit.

Both walk the same triple tables in the same order, so every intermediate
sum sees the same operands in the same sequence, on one sample or on a
block of samples.  If the extension is not built these tests exercise
only the numpy tier's self-consistency.
"""

import numpy as np
import pytest

from finsq import _kernels
from finsq.config import parse_config
from finsq.jetspace import jet_space, xy_space
from finsq.registry import resolve_metric
from finsq.reporting import build_report, dumps
from finsq.sampling import FLAG_CHUNK
from finsq.suites import run_suites

try:
    from finsq import _jetcore
except ImportError:
    _jetcore = None

SPACES = [
    jet_space((0,), (6,)),
    jet_space((0, 0, 0), (4,)),
    xy_space(3, 3, 2, 4, 5),
    xy_space(2, 2, 1, 6, 7),
]


def _random_coeffs(space, rng, positive_lead=False, lanes=()):
    c = rng.uniform(-1.0, 1.0, (space.size,) + lanes)
    if positive_lead:
        c[0] = rng.uniform(0.5, 2.0, lanes)
    return c


# Each kernel as f(space, args, out): the compiled call, and the numpy
# tier's, on 1-d or 2-d coefficient arrays.
def _compiled(op):
    def run(space, args, out):
        acc = np.zeros(out.shape)
        if op == "mul":
            _jetcore.mul(*args, out, space.mul_i, space.mul_j, space.mul_k)
        elif op == "div":
            _jetcore.div(*args, out, acc, space.div_i, space.div_j, space.div_k,
                         space.div_trip_off, space.deg_off, space.total_cap + 1)
        else:
            _jetcore.sqrt_(*args, out, acc, space.sq_i, space.sq_j, space.sq_k,
                           space.sq_trip_off, space.deg_off, space.total_cap + 1)
    return run


def _numpy(op):
    def run(space, args, out):
        if op == "mul":
            _kernels.np_mul(space, *args, out)
        else:
            getattr(_kernels, f"np_{op}")(space, *args, out, np.zeros(out.shape))
    return run


def _operands(op, space, rng, lanes=()):
    if op == "mul":
        return [_random_coeffs(space, rng, lanes=lanes), _random_coeffs(space, rng, lanes=lanes)]
    if op == "div":
        return [_random_coeffs(space, rng, lanes=lanes),
                _random_coeffs(space, rng, positive_lead=True, lanes=lanes)]
    return [_random_coeffs(space, rng, positive_lead=True, lanes=lanes)]


TIERS = [pytest.param(_numpy, id="numpy"),
         pytest.param(_compiled, id="compiled",
                      marks=pytest.mark.skipif(_jetcore is None, reason="compiled kernels not built"))]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("op", ["mul", "div", "sqrt"])
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"caps{s.group_caps}t{s.total_cap}")
def test_block_columns_equal_lone_calls(space, op, tier, rng):
    """A (size, S) block gives, column by column, the S lone 1-d results."""
    args = _operands(op, space, rng, lanes=(7,))
    out = np.zeros((space.size, 7))
    tier(op)(space, args, out)
    for s in range(7):
        lone = np.zeros(space.size)
        tier(op)(space, [np.ascontiguousarray(a[:, s]) for a in args], lone)
        assert np.array_equal(out[:, s], lone)


@pytest.mark.skipif(_jetcore is None, reason="compiled kernels not built")
@pytest.mark.parametrize("op", ["mul", "div", "sqrt"])
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"caps{s.group_caps}t{s.total_cap}")
def test_block_bitwise_across_tiers(space, op, rng):
    args = _operands(op, space, rng, lanes=(5,))
    out_c, out_n = np.zeros((space.size, 5)), np.zeros((space.size, 5))
    _compiled(op)(space, args, out_c)
    _numpy(op)(space, args, out_n)
    assert np.array_equal(out_c, out_n)


@pytest.mark.skipif(_jetcore is None, reason="compiled kernels not built")
@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"caps{s.group_caps}t{s.total_cap}")
class TestCompiledMatchesNumpy:
    def test_mul_bitwise(self, space, rng):
        a = _random_coeffs(space, rng)
        b = _random_coeffs(space, rng)
        out_c = np.zeros(space.size)
        _jetcore.mul(a, b, out_c, space.mul_i, space.mul_j, space.mul_k)
        out_n = np.zeros(space.size)
        _kernels.np_mul(space, a, b, out_n)
        assert np.array_equal(out_c, out_n)

    def test_div_bitwise(self, space, rng):
        a = _random_coeffs(space, rng)
        b = _random_coeffs(space, rng, positive_lead=True)
        out_c = np.zeros(space.size)
        acc_c = np.zeros(space.size)
        _jetcore.div(a, b, out_c, acc_c, space.div_i, space.div_j, space.div_k,
                     space.div_trip_off, space.deg_off, space.total_cap + 1)
        out_n = np.zeros(space.size)
        acc_n = np.zeros(space.size)
        _kernels.np_div(space, a, b, out_n, acc_n)
        assert np.array_equal(out_c, out_n)

    def test_sqrt_bitwise(self, space, rng):
        a = _random_coeffs(space, rng, positive_lead=True)
        out_c = np.zeros(space.size)
        acc_c = np.zeros(space.size)
        _jetcore.sqrt_(a, out_c, acc_c, space.sq_i, space.sq_j, space.sq_k,
                       space.sq_trip_off, space.deg_off, space.total_cap + 1)
        out_n = np.zeros(space.size)
        acc_n = np.zeros(space.size)
        _kernels.np_sqrt(space, a, out_n, acc_n)
        assert np.array_equal(out_c, out_n)


@pytest.mark.skipif(_jetcore is None, reason="compiled kernels not built")
class TestCompiledRejectsBadInput:
    """The extension checks every buffer before its unchecked loops run."""

    SPACE = xy_space(2, 2, 1, 3, 4)

    def _mul_args(self):
        s = self.SPACE
        return [np.ones(s.size), np.ones(s.size), np.zeros(s.size), s.mul_i, s.mul_j, s.mul_k]

    def _div_args(self):
        s = self.SPACE
        return [np.ones(s.size), np.ones(s.size), np.zeros(s.size), np.zeros(s.size),
                s.div_i, s.div_j, s.div_k, s.div_trip_off, s.deg_off, s.total_cap + 1]

    def _sqrt_args(self):
        s = self.SPACE
        return [np.ones(s.size), np.zeros(s.size), np.zeros(s.size),
                s.sq_i, s.sq_j, s.sq_k, s.sq_trip_off, s.deg_off, s.total_cap + 1]

    def test_float32_array(self):
        args = self._mul_args()
        args[0] = args[0].astype(np.float32)
        with pytest.raises(TypeError):
            _jetcore.mul(*args)

    def test_int64_table(self):
        args = self._mul_args()
        args[3] = args[3].astype(np.int64)
        with pytest.raises(TypeError):
            _jetcore.mul(*args)

    def test_non_contiguous_slice(self):
        args = self._div_args()
        args[1] = np.ones(2 * self.SPACE.size)[::2]
        with pytest.raises(ValueError):
            _jetcore.div(*args)

    def test_read_only_out(self):
        for kernel, args, slot in ((_jetcore.mul, self._mul_args(), 2),
                                   (_jetcore.div, self._div_args(), 3),
                                   (_jetcore.sqrt_, self._sqrt_args(), 1)):
            args[slot].flags.writeable = False
            with pytest.raises(ValueError):
                kernel(*args)

    @pytest.mark.parametrize("value", [-1, 10**6])
    def test_table_index_out_of_range(self, value):
        for kernel, args, slot in ((_jetcore.mul, self._mul_args(), 5),
                                   (_jetcore.div, self._div_args(), 4),
                                   (_jetcore.sqrt_, self._sqrt_args(), 4)):
            args[slot] = args[slot].copy()
            args[slot][-1] = value
            with pytest.raises(IndexError):
                kernel(*args)

    def test_unequal_tables(self):
        args = self._mul_args()
        args[5] = args[5][:-1].copy()
        with pytest.raises(ValueError):
            _jetcore.mul(*args)

    def test_offsets_not_monotone(self):
        args = self._div_args()
        args[7] = args[7].copy()
        args[7][1] = args[7][2] + 1
        with pytest.raises(ValueError):
            _jetcore.div(*args)

    def test_offsets_past_the_arrays(self):
        args = self._div_args()
        args[0] = np.ones(3)  # a shorter than the positions the recursion reads
        with pytest.raises(IndexError):
            _jetcore.div(*args)

    # -- blocks of samples: a bad shape is refused before any loop runs

    @staticmethod
    def _guarded_out(shape):
        """A zeroed out inside a NaN-filled buffer: a write outside out
        shows in the guard."""
        guard = np.full(int(np.prod(shape)) + 16, np.nan)
        out = guard[8:-8].reshape(shape)
        out[...] = 0.0
        return guard, out

    def _assert_refused(self, kernel, args, slot, exc):
        guard, out = self._guarded_out(args[slot].shape)
        args[slot] = out
        with pytest.raises(exc):
            kernel(*args)
        assert np.all(np.isnan(guard[:8])) and np.all(np.isnan(guard[-8:]))
        assert not np.any(out)

    def _blocks(self, lanes):
        """(kernel, args, coefficient slots, out slot) for each kernel, with
        (size, lanes) blocks in every coefficient slot."""
        for kernel, args, slots, out in ((_jetcore.mul, self._mul_args(), (0, 1, 2), 2),
                                         (_jetcore.div, self._div_args(), (0, 1, 2, 3), 2),
                                         (_jetcore.sqrt_, self._sqrt_args(), (0, 1, 2), 1)):
            for slot in slots:
                args[slot] = np.zeros((self.SPACE.size, lanes))
            yield kernel, args, slots, out

    def test_mismatched_sample_counts(self):
        for kernel, args, slots, out in self._blocks(4):
            for odd in slots:
                bad = list(args)
                bad[odd] = np.ones((self.SPACE.size, 3))
                self._assert_refused(kernel, bad, out, ValueError)
                bad[odd] = np.ones(self.SPACE.size)  # a 1-d array is one sample
                self._assert_refused(kernel, bad, out, ValueError)

    def test_non_contiguous_block(self):
        for kernel, args, slots, out in self._blocks(4):
            for block in (np.ones((self.SPACE.size, 8))[:, ::2],
                          np.asfortranarray(np.ones((self.SPACE.size, 4)))):
                bad = list(args)
                bad[slots[0]] = block
                self._assert_refused(kernel, bad, out, ValueError)

    def test_three_d_arrays(self):
        for kernel, args, slots, out in self._blocks(4):
            for slot in slots:
                bad = list(args)
                bad[slot] = np.ones((self.SPACE.size, 2, 2))
                if slot == out:
                    with pytest.raises(ValueError):
                        kernel(*bad)
                else:
                    self._assert_refused(kernel, bad, out, ValueError)

    def test_two_d_tables(self):
        args = self._mul_args()
        args[3] = np.ascontiguousarray(np.stack([args[3], args[3]], axis=1))
        self._assert_refused(_jetcore.mul, args, 2, ValueError)

    def test_overlapping_out(self):
        s = self.SPACE
        a = np.ones(s.size)
        with pytest.raises(ValueError):
            _jetcore.mul(a, np.ones(s.size), a, s.mul_i, s.mul_j, s.mul_k)
        args = self._div_args()
        args[3] = args[2]  # acc is out
        with pytest.raises(ValueError):
            _jetcore.div(*args)

    def test_wrong_argument_count(self):
        with pytest.raises(TypeError):
            _jetcore.mul(*self._mul_args()[:-1])
        with pytest.raises(TypeError):
            _jetcore.div(*self._div_args(), 0)
        with pytest.raises(TypeError):
            _jetcore.sqrt_()


class TestNumpyTierAlgebra:
    """Fallback correctness without the extension: invert the operations."""

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"caps{s.group_caps}t{s.total_cap}")
    def test_div_then_mul_roundtrip(self, space, rng):
        a = _random_coeffs(space, rng)
        b = _random_coeffs(space, rng, positive_lead=True)
        out = np.zeros(space.size)
        acc = np.zeros(space.size)
        _kernels.np_div(space, a, b, out, acc)
        back = np.zeros(space.size)
        _kernels.np_mul(space, out, b, back)
        np.testing.assert_allclose(back, a, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"caps{s.group_caps}t{s.total_cap}")
    def test_sqrt_squares_back(self, space, rng):
        a = _random_coeffs(space, rng, positive_lead=True)
        a[0] = abs(a[0]) + 0.5
        out = np.zeros(space.size)
        acc = np.zeros(space.size)
        _kernels.np_sqrt(space, a, out, acc)
        back = np.zeros(space.size)
        _kernels.np_mul(space, out, out, back)
        np.testing.assert_allclose(back, a, rtol=1e-12, atol=1e-12)


# the three workloads of the benchmark (perfbench/run.py), at 5 samples
WORKLOAD_CONFIGS = {
    "berwald-all": {"metric": "berwald"},
    "sphere4-flag": {"metric": {"name": "sphere", "dim": 4},
                     "suites": ["cfc", "douglas", "einstein"]},
    "warped4-point": {"metric": {"construct": {"factor": {"type": "sphere", "dim": 3},
                                               "c": 1.0, "d": 0.5}},
                      "suites": ["einstein", "closed", "spray-deform", "warped"]},
}


def _report_text(doc: dict, samples: int = 5) -> str:
    cfg = parse_config(dict(doc, samples=samples))
    report = build_report(cfg.echo(), run_suites(resolve_metric(cfg.metric), cfg))
    report["versions"]["jet_backend"] = None
    return dumps(report)


@pytest.mark.skipif(_jetcore is None, reason="compiled kernels not built")
@pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
def test_reports_bit_identical_across_tiers(workload, monkeypatch):
    compiled = _report_text(WORKLOAD_CONFIGS[workload])
    monkeypatch.setattr(_kernels, "_jetcore", None)
    assert _kernels.backend_name() == "numpy"
    assert _report_text(WORKLOAD_CONFIGS[workload]) == compiled


@pytest.mark.skipif(_jetcore is None, reason="compiled kernels not built")
def test_chunked_reports_bit_identical_across_tiers(monkeypatch):
    # 2 chunks and one more sample: full chunks and a short last one
    doc = WORKLOAD_CONFIGS["sphere4-flag"]
    samples = 2 * FLAG_CHUNK + 1
    compiled = _report_text(doc, samples)
    monkeypatch.setattr(_kernels, "_jetcore", None)
    assert _report_text(doc, samples) == compiled
