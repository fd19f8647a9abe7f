"""Deterministic sample generation and the per-run sample table.

Counter-based Philox streams keyed by an integer seed make runs
reproducible across processes and platforms; identical (seed, chart,
count) requests produce identical samples in identical order.  A
SampleTable holds the bundles every check of a run reads at those samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import finsler
from . import geometry as geo
from .finsler import SAMPLE_FAILURES, CurvatureData, GeneralABMetric
from .geometry import BetaDerivatives, OneFormField, RiemannMetric, one_form_norm_sq


# Flag bundles are built FLAG_CHUNK samples at a time, as one jet program
# whose coefficient blocks have one column per sample.  A bundle keeps
# dozens of blocks alive: at 16 samples one chunk's peak is 0.7-1.7 MB on
# the benchmark workloads, at 32 it is twice that, so 16 keeps peak RSS
# well inside its 10 % bound.
FLAG_CHUNK = 16


class SamplingError(RuntimeError):
    """The chart rejected too many draws to assemble a sample set, or a
    direction or flag edge at an accepted point."""


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass(frozen=True)
class SampleSet:
    """Points with matched alpha-unit directions and transverse flag edges."""

    points: np.ndarray
    directions: np.ndarray
    edges: np.ndarray
    attempts: int


def _draw_point(rng, alpha: RiemannMetric, max_x: float) -> np.ndarray:
    if alpha.sample_box is not None:
        lo = np.array([b[0] for b in alpha.sample_box])
        hi = np.array([b[1] for b in alpha.sample_box])
        return rng.uniform(lo, hi)
    while True:
        x = rng.uniform(-max_x, max_x, alpha.dim)
        if float(np.linalg.norm(x)) <= max_x:
            return x


def sample_inputs(alpha: RiemannMetric, beta: Optional[OneFormField], count: int,
                  seed: int, max_x: float = 0.8, b_cap: float = 0.9) -> SampleSet:
    """count accepted samples, rejecting points outside the chart or with
    b >= b_cap, plus one alpha-unit y and one non-parallel edge u apiece.

    Raises ChartError at the first accepted point whose metric matrix is
    not finite, symmetric and positive definite."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = rng_for(seed)
    limit = max(1000, 1000 * count)
    pts, ys, us = [], [], []
    attempts = 0
    while len(pts) < count:
        attempts += 1
        if attempts > limit:
            raise SamplingError(
                f"{alpha.name}: {attempts - 1} draws produced only {len(pts)} "
                f"of {count} samples (domain too small for max_x={max_x}, b_cap={b_cap})")
        x = _draw_point(rng, alpha, max_x)
        if not alpha.domain(x):
            continue
        if beta is not None:
            b2 = float(one_form_norm_sq(alpha, beta, [float(v) for v in x]))
            if b2 >= b_cap * b_cap:
                continue
        a = geo.validate_chart(alpha, [x])[0]
        y = _unit_direction(rng, a, limit, alpha.name)
        u = _transverse_edge(rng, a, y, limit, alpha.name)
        pts.append(x)
        ys.append(y)
        us.append(u)
    return SampleSet(points=np.array(pts), directions=np.array(ys),
                     edges=np.array(us), attempts=attempts)


def _unit_direction(rng, a: np.ndarray, limit: int, name: str) -> np.ndarray:
    n = a.shape[0]
    for _ in range(limit):
        y = rng.uniform(-1.0, 1.0, n)
        norm2 = float(y @ a @ y)
        if norm2 > 1e-6:
            return y / np.sqrt(norm2)
    raise SamplingError(f"{name}: {limit} draws produced no direction of positive "
                        f"alpha-norm (the metric matrix is nearly degenerate)")


def _transverse_edge(rng, a: np.ndarray, y: np.ndarray, limit: int, name: str) -> np.ndarray:
    for _ in range(limit):
        u = rng.uniform(-1.0, 1.0, a.shape[0])
        nu = float(u @ a @ u)
        if nu <= 1e-6:
            continue
        cos = float(y @ a @ u) / np.sqrt(nu * float(y @ a @ y))
        if abs(cos) <= 0.95:
            return u / np.sqrt(nu)
    raise SamplingError(f"{name}: {limit} draws produced no flag edge transverse to "
                        f"the direction (the metric matrix is nearly degenerate)")


class SampleTable:
    """The per-sample bundles of one metric over one sample set.

    Sample k is point k with direction k.  Its point bundle
    (geometry.beta_derivatives on the metric's alpha and beta), flag bundle
    (finsler.curvature_data on the metric) and the Riemannian spray of
    alpha (geometry.geodesic_spray) are each built on first request and
    then kept, so every check of a run reads the same bundle objects, which
    no check may write to.  A build that raises stores nothing.  The checks
    keep their own filters (chart, b_cap): a filter selects indices, never
    bundles.

    Flag bundles are built in chunks: the first request for sample k
    builds every still-missing sample of k's chunk of FLAG_CHUNK indices in
    one block, with results bit-identical to lone builds.  Where a sample
    of the block fails (one of finsler.SAMPLE_FAILURES), the chunk's samples
    are built one at a time instead, so each succeeds or raises exactly as
    its lone build does.  Point bundles and alpha sprays stay per sample.

    Sharing is limited by the oracle rule: two checks may read one bundle
    only when they compare it against different expectations, and no check
    takes the quantity it verifies from the table it is checked against.
    Directions default to a fixed Philox draw, one row per point.
    """

    def __init__(self, metric: GeneralABMetric, points, directions=None):
        self.metric = metric
        self.points = np.asarray(points, float)
        if directions is None:
            rng = np.random.Generator(np.random.Philox(key=97))
            directions = rng.uniform(-1.0, 1.0, self.points.shape)
        self.directions = np.asarray(directions, float)
        if self.directions.shape != self.points.shape:
            raise ValueError(f"directions have shape {self.directions.shape}, "
                             f"points {self.points.shape}: one direction per point")
        self._point: dict[int, BetaDerivatives] = {}
        self._flag: dict[int, CurvatureData] = {}
        self._spray: dict[int, np.ndarray] = {}

    @property
    def alpha(self) -> RiemannMetric:
        return self.metric.alpha

    @property
    def beta(self) -> OneFormField:
        return self.metric.beta

    def __len__(self) -> int:
        return len(self.points)

    def point(self, k: int) -> BetaDerivatives:
        if k not in self._point:
            self._point[k] = geo.beta_derivatives(self.alpha, self.beta, self.points[k])
        return self._point[k]

    def flag(self, k: int) -> CurvatureData:
        if k not in self._flag:
            self._build_flags(k)
        return self._flag[k]

    def _build_flags(self, k: int) -> None:
        if not 0 <= k < len(self):
            raise IndexError(f"sample {k} outside a table of {len(self)}")
        start = k - k % FLAG_CHUNK
        todo = [j for j in range(start, min(start + FLAG_CHUNK, len(self)))
                if j not in self._flag]
        try:
            built = finsler.curvature_data(self.metric, self.points[todo],
                                           self.directions[todo])
        except SAMPLE_FAILURES:
            built = None
        if built is not None:
            self._flag.update(zip(todo, built))
            return
        failure = None
        for j in todo:
            try:
                self._flag[j] = finsler.curvature_data(self.metric, self.points[j],
                                                       self.directions[j])
            except SAMPLE_FAILURES as exc:
                if j == k:
                    failure = exc
        if failure is not None:
            raise failure

    def alpha_spray(self, k: int) -> np.ndarray:
        if k not in self._spray:
            self._spray[k] = geo.geodesic_spray(self.alpha, self.points[k],
                                                self.directions[k])
        return self._spray[k]
