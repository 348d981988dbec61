#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics the code emits,
that every workload emits every end-to-end and per-layer metric with a unit
(and its workload-specific metrics), that a probe whose entry point is gone
is reported absent instead of crashing, and that each correctness gate
fails on a deliberately perturbed output.  Runs in about two minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
from layers import LAYER_METRICS, Target, Tracer, absent_metrics  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

TINY_SCALE = 0.2
#: Workload-specific metrics printed by name, per workload.
NAMED = {
    "train": {"train_triples_per_s"},
    "rank": {"rank_items_per_s", "mrr", "bridging_mrr"},
    "rank_sharded": {"rank_items_per_s", "mrr", "bridging_mrr", "worker_peak_rss_mb"},
    "serve": {"rank_p50_ms", "rank_p95_ms", "score_p50_ms", "score_p95_ms",
              "saturation_rps"},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {name: unit for name, (unit, _) in LAYER_METRICS.items()},
          "BENCHMARK.json per_layer differs from layers.LAYER_METRICS")


def run_tiny(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--scale", str(TINY_SCALE)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300,
                          cwd=str(HERE.parent))
    check(done.returncode == 0, f"{workload} trace={trace} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: gates not green: {done.stdout}")
    expected = (END_TO_END if not trace
                else {name: unit for name, (unit, _) in LAYER_METRICS.items()})
    check(set(result["metrics"]) == set(expected),
          f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        check(metric["unit"] == expected[name], f"{workload}: {name} unit {metric['unit']}")
        check(math.isfinite(metric["value"]), f"{workload}: {name} = {metric['value']}")
        if not trace:
            check(metric["value"] > 0, f"{workload}: end-to-end {name} is not positive")
    if not trace:
        for name in NAMED[workload]:
            check(f"   {name} " in done.stdout, f"{workload}: {name} not printed")
    return result


def check_workloads() -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_tiny(workload, trace)
            print(f"ok   {workload} trace={trace}: every metric emitted with a unit")


def check_absent_probe() -> None:
    tracer = Tracer((Target("repro.no_such_module.gone", "gsm.forward"),
                     Target("repro.core.gsm.GSM.no_such_method", "gnn.rgcn")))
    tracer.install()
    tracer.uninstall()
    check(len(tracer.absent_paths) == 2, "unresolvable probes not reported")
    missing = absent_metrics(tracer)
    check("gsm.forward_s" in missing and "gnn.rgcn_s" in missing,
          f"metrics of missing probes not absent: {missing}")
    print("ok   probes whose entry point is gone are reported absent")


def check_gates_fail_on_perturbation() -> None:
    losses = [[0.9, 0.5], [0.9, 0.5]]
    band = (0.3, 0.8)
    check(not gates.check_train(losses, 0.5, 2e-4, band), "clean train rejected")
    check(gates.check_train([[0.9, float("nan")]], None, 2e-4, None), "NaN loss accepted")
    check(gates.check_train(losses, 0.5 + 1e-3, 2e-4, band), "wrong final loss accepted")
    check(gates.check_train([[0.9, 0.5], [0.9, 0.6]], None, 2e-4, None),
          "disagreeing fits accepted")
    check(gates.check_train([[0.9, 0.9]], None, 2e-4, band), "loss outside the band accepted")

    summary = {"overall": {"MRR": 0.3, "Hits@1": 0.2},
               "bridging": {"MRR": 0.1, "Hits@1": 0.05}}
    check(not gates.check_rank([summary, summary], (0.2, 0.4)), "clean rank rejected")
    check(gates.check_rank([summary], (0.35, 0.4)), "MRR outside the band accepted")

    nudged = json.loads(json.dumps(summary))
    nudged["bridging"]["MRR"] = math.nextafter(nudged["bridging"]["MRR"], 1.0)
    check(not gates.check_sharded([summary], summary), "clean sharded rejected")
    check(gates.check_sharded([nudged], summary), "1-ulp sharded difference accepted")

    served = [("TransE", [(0, 1, 2)], [0.25]), ("DEKG-ILP", [(0, 1, 2), (0, 1, 3)], [1.0, 2.0])]
    direct = [[0.25], [1.0, 2.0]]
    check(not gates.check_served(served, direct), "clean served scores rejected")
    check(gates.check_served(served, [[0.25], [1.0, math.nextafter(2.0, 3.0)]]),
          "1-ulp served score difference accepted")
    print("ok   every correctness gate fails on a perturbed output")


def main() -> int:
    check_benchmark_json()
    print("ok   BENCHMARK.json matches the emitted metrics")
    check_gates_fail_on_perturbation()
    check_absent_probe()
    check_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
