#!/usr/bin/env python3
"""Smoke test of the benchmark at toy sizes (a few seconds).

    python3 bench/smoke.py

Runs every workload shape, untraced and traced, and fails unless
- every metric named in BENCHMARK.json is emitted, with its unit, as a finite
  number, and the result line has exactly the keys the contract names;
- BENCHMARK.json's workloads, units and directions match the code's;
- every layer wrapper fired at least once, so renaming a wrapped library
  function fails here instead of silently dropping a layer;
- the traced runs reproduce the untraced runs exactly.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, SRC

sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

TOY = (
    workloads.PipelineWorkload(
        "pipeline-toy", num_graphs=40, noise=1.55, epochs=2,
        samples_per_epoch=2, eval_samples=2, learning_rate=0.01,
        accuracy_floor=None,
    ),
    workloads.SamplerWorkload("sampler-toy", num_fixtures=3, draws_per_fixture=200),
)


def check_result(result: dict, expected: dict, label: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted {result['attempted']!r}")
    if result["failed"] != 0 or result["correct"] is not True:
        errors.append(f"{label}: {result['failed']} of {result['attempted']} failed")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ by {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            errors.append(f"{label}: {name} unit {got.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", tracer.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            errors.append(f"BENCHMARK.json {key} differs from the code's table")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    fired = set()
    for workload in TOY:
        result, _ = workloads.run(workload, seed=0, seconds=0, trace=False)
        errors += check_result(json.loads(json.dumps(result)), e2e, f"{workload.name} trace 0")
        result, detail = workloads.run(workload, seed=0, seconds=0, trace=True)
        errors += check_result(json.loads(json.dumps(result)), per_layer, f"{workload.name} trace 1")
        fired |= set(detail["wrappers_fired"])
    for key in sorted(tracer.wrapper_keys() - fired):
        errors.append(f"wrapper {key} never fired")

    for error in errors:
        print("FAIL", error)
    print("smoke:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
