"""The finsq benchmark: end-to-end `finsq check` timings and a traced per-layer run.

    python3 perfbench/run.py --workload berwald-all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The program is built from source first
(``setup.py build_ext --inplace``, which compiles the kernel extension when
the checkout's build provides one).  Every measured operation is one fresh
single-threaded worker process (``worker.py``), so import cost and the cold
jet-space tables that every CLI user pays are counted.  The loop is closed:
one worker at a time, started by this single parent process.

A run first starts ``SETUP_WORKERS`` set-up-only workers, then starts check
workers one after another until ``--seconds`` have passed (at least
``MIN_CHECKS`` of them).  The workload's configuration, with ``--seed`` as
its sampling seed, is the only input the program receives.

Each check worker is an operation.  It fails, and gives no timing, when the
report does not pass, when any check in it failed, or when its report bytes
differ from the first report of the run (reports are deterministic by
contract).

``--trace 0`` prints the end-to-end metrics: medians over the run's
successful workers.  ``--trace 1`` also runs one traced worker (every finsq
function wrapped by ``spans.py``) and one kernel micro-timing worker, and
prints the per-layer metrics of ``layers.py`` after the end-to-end ones.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics of the mode (end-to-end, or per-layer when traced).  A full
record of the run, with the kernel backend, nproc, Python and numpy
versions and the source revision, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    # The README command and the baseline row: mixed work, the only
    # workload that covers deformation, pde and reporting.
    "berwald-all": {"metric": "berwald", "samples": 100},
    # Flag-level checks only: spray jets and large-space kernels; point-level
    # geometry does nothing here.
    "sphere4-flag": {"metric": {"name": "sphere", "dim": 4},
                     "suites": ["cfc", "douglas", "einstein"], "samples": 300},
    # Point-level work dominates (beta_derivatives, small kernels), and set-up
    # includes the warped construction.
    "warped4-point": {"metric": {"construct": {"factor": {"type": "sphere", "dim": 3},
                                               "c": 1.0, "d": 0.5}},
                      "suites": ["einstein", "closed", "spray-deform", "warped"],
                      "samples": 100},
}

SETUP_WORKERS = 6
MIN_CHECKS = 2
RUN_LIMIT_S = 170.0
SCRUBBED_ENV = ("FINSQ_THREADS", "FINSQ_JET_BACKEND")
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The program could not be built or started; no result is printed."""


class WorkerFailed(RuntimeError):
    """One worker process exited with an error."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(SINGLE_THREAD_ENV)
    return env


def _build(env: dict) -> None:
    for needed in ("setup.py", os.path.join("src", "finsq", "__init__.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found under {ROOT}: nothing to benchmark")
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stdout}\n{proc.stderr}")


def _spawn(env: dict, deadline: float, mode: str, *args: str) -> dict:
    timeout = max(1.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), mode, *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerFailed(f"{mode} worker printed no result: {proc.stdout[-400:]!r}") from exc
    if "ready" in out:
        out["setup_s"] = out["ready"] - spawned
    return out


def _environment(backend: str) -> dict:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".pyx", ".c", ".json")):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    import numpy

    return {
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def run(workload: str, seed: int, seconds: float, trace: bool,
        config: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record).

    ``config`` replaces the workload's configuration (the self-test uses
    small ones); the seed is always ``seed``.
    """
    env = _worker_env()
    _build(env)
    cfg = json.dumps(dict(config or WORKLOADS[workload], seed=seed))
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        _spawn(env, deadline, "setup", cfg)  # warm the file cache and bytecode
        begin = time.perf_counter()
        setups = [_spawn(env, deadline, "setup", cfg)["setup_s"]
                  for _ in range(SETUP_WORKERS)]
    except WorkerFailed as exc:
        raise BenchError(f"the program does not set up: {exc}") from exc
    workers, errors = [], []
    while len(workers) + len(errors) < MIN_CHECKS or time.perf_counter() - begin < seconds:
        try:
            workers.append(_spawn(env, deadline, "check", cfg))
        except WorkerFailed as exc:
            errors.append(str(exc))
            if time.perf_counter() >= deadline:
                break

    traced = micro = None
    if trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload}.npz")
        try:
            traced = _spawn(env, deadline, "trace", cfg, spans_path)
            micro = _spawn(env, deadline, "micro")
        except WorkerFailed as exc:
            raise BenchError(f"the traced run failed: {exc}") from exc

    reference = workers[0]["report_sha256"] if workers else None

    def correct(w):
        return w["passed"] and w["checks_failed"] == 0 and w["report_sha256"] == reference

    judged = workers + ([traced] if traced else [])
    ok = [w for w in workers if correct(w)]
    mismatches = sum(w["report_sha256"] != reference for w in judged)
    checks_failed = sum(w["checks_failed"] for w in judged)
    failed = sum(not correct(w) for w in judged) + len(errors)
    attempted = len(judged) + len(errors)
    if not ok:
        raise BenchError("no check succeeded:\n" + "\n".join(errors[:3]))

    check_s = statistics.median(w["check_s"] for w in ok)
    all_setups = setups + [w["setup_s"] for w in ok]
    end_to_end = {
        "check_s": check_s,
        "setup_s": statistics.median(all_setups),
        "peak_rss_mb": max(w["maxrss_mb"] for w in ok),
    }
    metrics = end_to_end
    if trace:
        from spans import Spans

        metrics = layers.per_layer(
            Spans(spans_path), traced, check_s, micro,
            {"attempted": traced["checks_attempted"],
             "failed": checks_failed,
             "mismatches": mismatches})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layers.UNITS[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "config": json.loads(cfg),
        "environment": _environment(ok[0]["backend"]),
        "setup_s": setups, "workers": workers, "traced": traced, "micro": micro,
        "errors": errors, "end_to_end": end_to_end, "result": result,
        "summary": {
            "check_s": _spread([w["check_s"] for w in ok]),
            "setup_s": _spread(all_setups),
            "checks": f"{ok[0]['checks_attempted']} checks per report, "
                      f"{checks_failed} failed in "
                      f"{len(judged)} reports, {mismatches} reports mismatched",
        },
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for key, text in record["summary"].items():
        print(f"{key}: {text}")
    if args.trace:
        print("end-to-end, from the untraced workers of this run:")
        for key, value in record["end_to_end"].items():
            print(f"  {key:<40} {value:>16.6g} {layers.UNITS[key]}")
    print("per-layer:" if args.trace else "end-to-end:")
    for key, m in result["metrics"].items():
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
