"""Metric definitions and the per-layer numbers derived from a trace.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric catalogue;
``BENCHMARK.json`` lists the same names, units and directions, and
``selftest.py`` checks that the two agree.  Each per-layer entry also
records which end-to-end metric it should move and on which workload,
written down before any optimisation is measured against it.

Layer names follow the finsq modules, except that ``finsq._kernels`` is
``kernels`` (a metric name starts with a letter or a digit).  "small" kernel calls run on jet
spaces of size < 200 (point-level work, sizes 5 to 25), "large" ones on
sizes >= 200 (flag-level spray jets, sizes 700 and 714).
"""

from __future__ import annotations

# The bound on check_s is wide because the CPU speed of a shared 2-vCPU
# virtual machine drifts by about +-12 % over tens of seconds, and a run of 30 s
# cannot average that out; peak RSS is nearly deterministic.
END_TO_END = [
    # name, unit, better, bound
    ("check_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_KERNEL_MOVES = {
    "large": "check_s on sphere4-flag (kernels are most of its time on numpy)",
    "small": "check_s on warped4-point (point-level size-5/25 calls)",
}

PER_LAYER = [
    # name, unit, better, what it should move
    *[(f"kernels.{op}.{band}.{q}", unit, "lower", _KERNEL_MOVES[band])
      for op in ("mul_f", "div_f", "sqrt_f")
      for band in ("large", "small")
      for q, unit in (("calls", "count"), ("s", "s"))],
    ("kernels.object.calls", "count", "lower",
     "nothing: object-tier kernels are expected unused by every workload"),
    ("kernels.micro.mds_714_ms", "ms", "lower",
     "check_s on sphere4-flag; gate for a compiled kernel tier"),
    ("kernels.micro.mul_f_5_us", "us", "lower",
     "check_s on warped4-point; gate for a compiled kernel tier"),
    ("jetspace.table_builds", "count", "lower", "check_s on every workload"),
    ("jetspace.table_build_s", "s", "lower", "check_s on every workload"),
    ("jetspace.lookup.calls", "count", "lower", "check_s on every workload"),
    ("jetspace.lookup.s", "s", "lower", "check_s on every workload"),
    ("jets.op.calls", "count", "lower", "check_s on warped4-point"),
    ("jets.self_s", "s", "lower", "check_s on warped4-point"),
    ("linalg.calls", "count", "lower", "check_s on warped4-point"),
    ("linalg.self_s", "s", "lower", "check_s on warped4-point"),
    *[(f"geometry.{fn}.{q}", unit, "lower",
       "check_s on warped4-point; about 0 on sphere4-flag")
      for fn in ("beta_derivatives", "christoffels", "ricci_tensor")
      for q, unit in (("calls", "count"), ("s", "s"))],
    ("geometry.matrix.calls", "count", "lower", "check_s on warped4-point"),
    ("finsler.f_squared.calls", "count", "lower",
     "check_s on sphere4-flag and the cfc share of berwald-all"),
    ("finsler.f_squared.per_sample", "count/sample", "lower",
     "check_s on sphere4-flag and the cfc share of berwald-all"),
    *[(f"finsler.{fn}.{q}", unit, "lower",
       "check_s on sphere4-flag and the cfc share of berwald-all")
      for fn in ("spray_jets", "fundamental_tensor", "curvature")
      for q, unit in (("calls", "count"), ("s", "s"))],
    *[(f"square.{fn}.s", "s", "lower", "check_s on warped4-point and berwald-all")
      for fn in ("check_einstein_square", "check_einstein_scale_system",
                 "check_closedness", "deformed_spray_residual", "check_reduced_pair")],
    ("construct.construct_einstein_square.s", "s", "lower", "setup_s on warped4-point only"),
    ("registry.resolve_metric.s", "s", "lower", "setup_s on warped4-point only"),
    ("config.parse_config.s", "s", "lower", "setup_s on every workload"),
    ("sampling.sample_inputs.s", "s", "lower", "check_s, as a small guard"),
    ("sampling.accept_ratio", "ratio", "higher", "check_s, as a small guard"),
    ("reporting.build_report.s", "s", "lower", "check_s, as a small guard"),
    ("reporting.dumps.s", "s", "lower", "check_s, as a small guard"),
    *[(f"suites.{name}.s", "s", "lower", "check_s on the workloads that run the suite")
      for name in ("cfc", "closed", "deformation", "douglas", "einstein",
                   "pde", "spray-deform", "warped")],
    ("suites.non_kernel_s", "s", "lower",
     "check_s on every workload; the target of sample-axis batching"),
    ("trace.overhead_s", "s", "lower", "nothing: the cost of tracing itself"),
    ("checks.attempted", "count", "higher", "nothing: the base of checks.failed"),
    ("checks.failed", "count", "lower", "correct; 0 at every workload"),
    ("report.mismatches", "count", "lower", "correct; reports are byte identical"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

_KERNELS = ("mul_f", "div_f", "sqrt_f")
_CURVATURE = ("flag_curvature", "cfc_residual", "ricci", "einstein_residual", "douglas_tensor")


def _module_names(spans, prefix: str) -> list[str]:
    return [n for n in spans.names if n.startswith(prefix)]


def per_layer(spans, traced: dict, untraced_check_s: float, micro: dict,
              checks: dict) -> dict:
    """Every per-layer metric, from the spans of one traced check, that
    worker's own summary, the untraced check time of the same run, the
    kernel micro timings, and the correctness counts of the run."""
    m = {}
    kernel_names = []
    for op in _KERNELS:
        for band in ("large", "small"):
            name = f"finsq._kernels.{op}[{band}]"
            kernel_names.append(name)
            m[f"kernels.{op}.{band}.calls"] = spans.calls([name])
            m[f"kernels.{op}.{band}.s"] = spans.seconds([name])
    object_tier = [f"finsq._kernels.{op}_o" for op in ("mul", "div", "sqrt")]
    kernel_names += object_tier
    m["kernels.object.calls"] = spans.calls(object_tier)
    m["kernels.micro.mds_714_ms"] = micro["mds_714_ms"]
    m["kernels.micro.mul_f_5_us"] = micro["mul_f_5_us"]

    build = ["finsq.jetspace.JetSpace.__init__"]
    lookup = ["finsq.jetspace.jet_space", "finsq.jetspace.meet"]
    m["jetspace.table_builds"] = spans.calls(build)
    m["jetspace.table_build_s"] = spans.seconds(build)
    m["jetspace.lookup.calls"] = spans.calls(lookup)
    m["jetspace.lookup.s"] = spans.self_seconds(lookup + ["finsq.jetspace.xy_space"])

    m["jets.op.calls"] = spans.calls(_module_names(spans, "finsq.jets.Jet."))
    m["jets.self_s"] = spans.self_seconds(_module_names(spans, "finsq.jets."))
    linalg = _module_names(spans, "finsq.linalg.")
    m["linalg.calls"] = spans.calls(linalg)
    m["linalg.self_s"] = spans.self_seconds(linalg)

    for fn in ("beta_derivatives", "christoffels", "ricci_tensor"):
        m[f"geometry.{fn}.calls"] = spans.calls([f"finsq.geometry.{fn}"])
        m[f"geometry.{fn}.s"] = spans.seconds([f"finsq.geometry.{fn}"])
    m["geometry.matrix.calls"] = spans.calls(["finsq.geometry.RiemannMetric.matrix"])

    m["finsler.f_squared.calls"] = spans.calls(["finsq.finsler.f_squared"])
    m["finsler.f_squared.per_sample"] = m["finsler.f_squared.calls"] / traced["samples"]
    groups = {"spray_jets": ["spray_jets"], "fundamental_tensor": ["fundamental_tensor"],
              "curvature": list(_CURVATURE)}
    for key, fns in groups.items():
        names = [f"finsq.finsler.{fn}" for fn in fns]
        m[f"finsler.{key}.calls"] = spans.calls(names)
        m[f"finsler.{key}.s"] = spans.seconds(names)

    for fn in ("check_einstein_square", "check_einstein_scale_system",
               "check_closedness", "deformed_spray_residual", "check_reduced_pair"):
        m[f"square.{fn}.s"] = spans.seconds([f"finsq.square.{fn}"])
    for key in ("construct.construct_einstein_square", "registry.resolve_metric",
                "config.parse_config", "sampling.sample_inputs",
                "reporting.build_report", "reporting.dumps"):
        m[f"{key}.s"] = spans.seconds([f"finsq.{key}"])
    m["sampling.accept_ratio"] = traced["samples"] / traced["sample_attempts"]

    for name, *_ in PER_LAYER:
        if name.startswith("suites.") and name != "suites.non_kernel_s":
            suite = name[len("suites."):-len(".s")]
            m[name] = spans.seconds([f"finsq.suites._suite_{suite.replace('-', '_')}"])
    m["suites.non_kernel_s"] = untraced_check_s - spans.seconds(kernel_names)
    m["trace.overhead_s"] = traced["check_s"] - untraced_check_s

    m["checks.attempted"] = checks["attempted"]
    m["checks.failed"] = checks["failed"]
    m["report.mismatches"] = checks["mismatches"]
    return m
