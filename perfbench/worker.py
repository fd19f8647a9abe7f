"""One fresh, single-threaded process of the benchmark.

    python3 perfbench/worker.py setup CONFIG_JSON
    python3 perfbench/worker.py check CONFIG_JSON
    python3 perfbench/worker.py trace CONFIG_JSON SPANS_PATH
    python3 perfbench/worker.py micro

``setup`` imports finsq, parses the configuration and resolves the metric.
``check`` goes on to run the suites and serialize the report, the work a
``finsq check`` user waits for.  ``trace`` does the same with every finsq
function wrapped by ``spans.Recorder`` from before the configuration is
parsed, and writes the spans to SPANS_PATH.  ``micro`` times direct kernel
calls.  Each mode prints one JSON object on stdout.  Times are
``time.perf_counter`` readings, which on Linux share one monotonic clock
across processes, so the parent can time set-up from the moment it
spawned this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "finsq")


def _import_finsq():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import finsq
    import finsq.config
    import finsq.registry
    import finsq.reporting
    import finsq.suites

    here = os.path.realpath(os.path.dirname(finsq.__file__))
    if here != os.path.realpath(PACKAGE_DIR):
        raise SystemExit(f"imported finsq from {here}, not from this checkout")
    return finsq


def _check(doc: dict, mode: str, spans_path: str | None = None) -> dict:
    finsq = _import_finsq()
    recorder = None
    if mode == "trace":
        from spans import Recorder

        recorder = Recorder(PACKAGE_DIR)
        recorder.install()
    # Looked up after install, so the traced run calls the wrappers.
    cfg = finsq.config.parse_config(doc)
    bundle = finsq.registry.resolve_metric(cfg.metric)
    ready = time.perf_counter()
    out = {"ready": ready, "backend": finsq._kernels.backend_name()}
    if mode == "setup":
        return out

    results = finsq.suites.run_suites(bundle, cfg)
    report = finsq.reporting.build_report(cfg.echo(), results)
    text = finsq.reporting.dumps(report)
    check_s = time.perf_counter() - ready

    checks = [c for r in report["suites"] for c in r["checks"]]
    out.update(
        check_s=check_s,
        passed=report["passed"],
        checks_attempted=len(checks),
        checks_failed=sum(not c["passed"] for c in checks),
        report_sha256=hashlib.sha256(text.encode()).hexdigest(),
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        recorder.save(spans_path)
        sample = finsq.sampling.sample_inputs.__wrapped__
        drawn = sample(bundle.alpha, bundle.beta, cfg.samples, cfg.seed,
                       max_x=cfg.max_x, b_cap=cfg.b_cap)
        out.update(samples=cfg.samples, sample_attempts=drawn.attempts)
    return out


def _median_time(fn, inner: int, batches: int) -> float:
    """Median over batches of the mean time of one call, in seconds."""
    fn()
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    times.sort()
    return times[len(times) // 2]


def _micro() -> dict:
    """Direct kernel timings: mul, div and sqrt on the size-714 space of the
    Douglas spray jets at n = 4, and one mul_f on a size-5 first-order
    space, the call that dominates point-level call counts."""
    import numpy as np

    finsq = _import_finsq()
    from finsq._kernels import div_f, mul_f, sqrt_f
    from finsq.jetspace import jet_space, xy_space

    big = xy_space(4, 4, 1, 6, 6)
    small = jet_space((0,) * 4, (1,))
    rng = np.random.Generator(np.random.Philox(key=7))
    a, b = rng.uniform(0.5, 1.5, big.size), rng.uniform(0.5, 1.5, big.size)
    p, q = rng.uniform(0.5, 1.5, small.size), rng.uniform(0.5, 1.5, small.size)

    def mds():
        return sqrt_f(big, div_f(big, mul_f(big, a, b), b))

    return {
        "backend": finsq._kernels.backend_name(),
        "mds_size": big.size,
        "mul_size": small.size,
        "mds_714_ms": _median_time(mds, 20, 15) * 1e3,
        "mul_f_5_us": _median_time(lambda: mul_f(small, p, q), 2000, 15) * 1e6,
    }


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "micro":
        out = _micro()
    else:
        out = _check(json.loads(argv[1]), mode, *argv[2:])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
