#!/usr/bin/env python3
"""End-to-end benchmark of the DEKG-ILP reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload rank --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1
    python3 perfbench/run.py --compare perfbench/results/a.json perfbench/results/b.json

Each workload runs in its own fresh interpreter (``workload.py``), so its
set-up time and peak memory belong to it and no cache warmth carries over:

``train``
    Fit a fresh DEKG-ILP through ``repro.experiment.train_model`` for two
    epochs, cold first epoch included.  Backward, optimizer and kernel
    changes show here; extraction changes should not.
``rank``
    In-process ``Evaluator.evaluate(workers=1)`` of a checkpoint restored
    before every op (outside the timing), so the extraction provider starts
    cold as in ``repro evaluate``.  One op ranks 164 (triple, form) items
    against 31 triples each.  No backward pass.
``rank_sharded``
    The same op with ``workers=2``: a spawned ``SupervisedPool`` with
    ``repro.shm`` pages, the only workload that exercises sharding, shared
    memory and supervision.  BLAS thread variables stay at the user default,
    so oversubscription between workers shows.
``serve``
    An open loop of seeded Poisson arrivals against an in-process
    ``ScoringService`` serving DEKG-ILP and TransE (coalescer defaults,
    ``replicas=0``, unbounded queue, one warm pass first): DEKG-ILP rank
    requests (a true triple and its 30 filtered candidates) at 10/s and
    TransE single-triple score requests at twice that.  Latency runs from
    the scheduled send time.  A saturation pass (every rank request once,
    each with two score requests, submitted at once) then measures the rank
    request rate the service sustains.

End-to-end metrics (``--trace 0``), on every workload: ``setup_s``
(interpreter start to first timed op, median of two set-ups),
``peak_rss_mb`` and ``latency_ms`` (median wall time of one op -- a 2-epoch
fit, one ranking pass -- or, for serve, the median rank request latency).
The workload-specific metrics (``train_triples_per_s``;
``rank_items_per_s``, ``mrr``, ``bridging_mrr``; ``worker_peak_rss_mb``;
``rank_p50_ms``, ``rank_p95_ms``, ``score_p50_ms``, ``score_p95_ms``,
``saturation_rps``) are printed by name above the result line and kept in
``perfbench/results/``; they are not in the result line because each exists
on some workloads only.

``--trace 1`` wraps each layer's entry point from outside ``src/repro`` (see
``layers.py``) and reports the per-layer metrics instead, plus the tracing
overhead measured against untraced ops of the same run.  Correctness gates
(``gates.py``) run on every run; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from environment import before_run, comparability  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workload import RESULT_MARKER, SCALE, WORKLOADS  # noqa: E402

#: The end-to-end metrics every workload reports: name -> unit.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "latency_ms": "ms"}
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The workload could not produce a result."""


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: float) -> Dict:
    """Run one workload in a fresh interpreter and return its full record."""
    environment = before_run()
    command = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale)]
    spawned_at = time.time()
    # A session of its own, so a timeout can stop the workload's pool
    # workers together with it.
    child = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)],
                             stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = [line for line in output.splitlines() if line.startswith(RESULT_MARKER)]
    if child.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} exited with {child.returncode} and no result")
    record = json.loads(lines[-1][len(RESULT_MARKER):])
    environment["load_after"] = list(os.getloadavg())
    environment.update(record.pop("environment"))
    record.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "scale": scale, "environment": environment})
    record["setup_s"] = statistics.median(record["setup_seconds"])
    record["correct"] = not record["failures"] and record["failed"] == 0
    return record


def metrics_of(record: Dict) -> Dict[str, Dict]:
    """The result-line metrics: end-to-end untraced, per-layer traced."""
    if record["trace"]:
        absent = set(record.get("absent", []))
        metrics = {}
        for name, (unit, _) in LAYER_METRICS.items():
            metrics[name] = {"value": record["per_layer"][name], "unit": unit}
            if name in absent:
                metrics[name]["absent"] = True
        return metrics
    return {name: {"value": record[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def report(record: Dict) -> None:
    """Human-readable lines: gates, every metric by name and unit, environment."""
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"succeeded={record['attempted'] - record['failed']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"   GATE FAILED: {failure}")
    setups = ", ".join(f"{value:.3f}" for value in record["setup_seconds"])
    ops = ", ".join(f"{value:.3f}" for value in record["op_seconds"])
    print(f"   set-ups [s]: {setups}; timed ops [s]: {ops}")
    for name, metric in metrics_of(record).items():
        note = "  (absent: entry point no longer exists)" if metric.get("absent") else ""
        print(f"   {name:28s} {metric['value']:14.6g} {metric['unit']}{note}")
    if not record["trace"]:
        for name, (value, unit) in record["named"].items():
            print(f"   {name:28s} {value:14.6g} {unit}")
    if record["trace"] and record["workload"] == "rank_sharded":
        print("   note: work inside spawned workers is visible only through the "
              "parent-side spans and getrusage; it is not estimated")
    env = record["environment"]
    threads = {k: v for k, v in env["thread_variables"].items() if v is not None}
    print(f"   environment: cores={env['usable_cores']} "
          f"host probe={env['calibration_ms']:.2f} ms load "
          f"{env['load_before'][0]:.2f}->{env['load_after'][0]:.2f} "
          f"heavy={env['heavy_processes'] or 'none'} numpy={env['numpy']} "
          f"blas={env['blas']} threads={threads or 'unset'}")


def save(record: Dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    scale = "" if record["scale"] == SCALE else f"-scale{record['scale']}"
    path = RESULTS / (f"{record['workload']}-seed{record['seed']}"
                      f"-trace{record['trace']}{scale}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def compare(left_path: str, right_path: str) -> int:
    """Print the metric ratios of two saved results, or why they can't be compared."""
    left, right = (json.loads(Path(p).read_text(encoding="utf-8"))
                   for p in (left_path, right_path))
    reasons = comparability(left["environment"], right["environment"])
    if left["workload"] != right["workload"] or left["trace"] != right["trace"]:
        reasons.append("different workloads or trace modes")
    if reasons:
        print("not comparable:")
        for reason in reasons:
            print(f"  {reason}")
        return 3
    a, b = metrics_of(left), metrics_of(right)
    for name in a:
        base, value = a[name]["value"], b[name]["value"]
        ratio = f"{value / base:.3f}x" if base else "n/a"
        print(f"{name:28s} {base:14.6g} -> {value:14.6g} {a[name]['unit']:6s} {ratio}")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="DEKG-ILP end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE,
                        help=argparse.SUPPRESS)  # the self-test's tiny scale
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
        except BenchmarkError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        report(record)
        save(record)
        records.append(record)
    if len(records) == 1:
        metrics = metrics_of(records[0])
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in records for name, metric in metrics_of(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
