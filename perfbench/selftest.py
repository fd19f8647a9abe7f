"""Self-test of the benchmark: every named metric is emitted, with its unit.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with the metric catalogue in
``layers.py`` and the workloads in ``run.py``, then runs the benchmark
untraced and traced on one small configuration (all suites on berwald at
two samples) and checks that each run's last line carries exactly the four
result keys, passes its correctness gate, and reports every end-to-end or
per-layer metric by name with the unit BENCHMARK.json gives it.  Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import os
import re
import sys

import layers
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = {"metric": "berwald", "samples": 2}


def _check_spec(spec: dict, fail) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    for name in names:
        if not NAME.match(name):
            fail(f"bad name {name!r}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound out of range in {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if setup != [{"name": "setup_s", "unit": "s", "better": "lower",
                  "bound": max(m["bound"] for m in spec["end_to_end"])}]:
        fail("setup_s must be in seconds, lower-better, with the largest bound")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if e2e != [tuple(m) for m in layers.END_TO_END]:
        fail("end_to_end differs from layers.END_TO_END")
    per = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per != [tuple(m[:3]) for m in layers.PER_LAYER]:
        fail("per_layer differs from layers.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("workloads differ from run.WORKLOADS")
    if any(len(w["why"]) > 200 or "\n" in w["why"] for w in spec["workloads"]):
        fail("a workload's why is not one line of at most 200 characters")


def _check_result(result: dict, expected: list[dict], fail, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: run not correct: {result['attempted']} attempted, "
             f"{result['failed']} failed")
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        fail(f"{label}: metric {name} not emitted")
    for name in sorted(set(got) - set(want)):
        fail(f"{label}: metric {name} emitted but not named in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            fail(f"{label}: {name} in {got[name]}, BENCHMARK.json says {want[name]}")
        if not isinstance(result["metrics"][name]["value"], (int, float)):
            fail(f"{label}: {name} is not a number")


def main() -> int:
    problems = []
    fail = problems.append
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _check_spec(spec, fail)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run("selftest", seed=0, seconds=0, trace=trace, config=SMALL)
        _check_result(json.loads(json.dumps(result)), spec[key], fail, f"trace={int(trace)}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
