"""Worker-count scaling of the sharded filtered-ranking evaluator.

``Evaluator.evaluate(model, workers=N)`` splits the (triple, form) work list
into contiguous shards and fans them out over N spawned processes, each
holding its own DEKG-ILP replica — attached zero-copy to read-only shared
memory parameter/CSR pages where available, rebuilt from a checkpoint byte
round-trip otherwise.
Because candidate draws are counter-seeded per (triple, form) pair and shard
results are merged in order, every worker count must produce **bit-identical**
metrics — that equality is asserted here for every measured worker count, so
the benchmark gates correctness before it reports speed.

The speedup gate (>= 1.8x at 4 workers) only fires on machines that actually
have >= 4 usable cores: evaluation sharding buys wall-clock from idle cores,
and on a 1- or 2-core CI runner a 4-process pool can only add spawn overhead.
The measured numbers and the visible core count are recorded either way, so
the JSON history stays interpretable across heterogeneous machines.

Worker *startup* cost is measured separately and unconditionally: one fresh
spawn process per mode rebuilds a scoring-ready replica either by
deserializing checkpoint bytes + a pickled graph (the pre-shm path) or by
attaching to read-only shared-memory parameter/CSR pages, and reports seconds
plus RSS / private-memory deltas.  That comparison needs no idle cores, so it
runs (and lands in the JSON) even on 1-core machines where the speedup gate
is informational.

Results are appended to ``BENCH_eval.json`` (override the path with the
``REPRO_BENCH_EVAL_JSON`` environment variable), mirroring the
``BENCH_training.json`` record schema documented in ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from typing import Dict, List, Optional

from common import append_bench_run, print_banner
from repro.core.config import ModelConfig
from repro.core.model import DEKGILP
from repro.datasets.benchmark import build_benchmark
from repro.eval.evaluator import Evaluator
from repro.resilience import usable_cores
from repro.shm import measure_worker_startup, shm_enabled

WORKER_COUNTS = [1, 2, 4]
SCALE = 0.6            # synthetic fb15k-237, sized so work dominates pool spawn
NUM_TEST_TRIPLES = 80  # (triple, form) items = 2x this with head+tail forms
MAX_CANDIDATES = 35
HIDDEN_DIM = 16
SPEEDUP_FLOOR = 1.8    # acceptance gate at 4 workers (>= 4 usable cores only)
#: The speedup gate is only meaningful when the sequential run is much larger
#: than pool start-up (~1s: 4 spawns, numpy imports, replica/graph unpickle).
#: If a future config shrinks the workload below this, the gate reports
#: instead of failing — a sub-second "benchmark" would measure overhead.
MIN_SEQUENTIAL_SECONDS = 2.5
#: ``REPRO_BENCH_EVAL_GATE=off`` downgrades the speedup floor to a printed
#: report while keeping the bit-identity asserts hard.  Shared CI runners
#: advertise 4 vCPUs but contend for them, so wall-clock floors flake there;
#: CI sets this and relies on the correctness gate plus the uploaded JSON.
SPEEDUP_GATE = os.environ.get("REPRO_BENCH_EVAL_GATE", "auto") != "off"

JSON_PATH = os.environ.get(
    "REPRO_BENCH_EVAL_JSON",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_eval.json"))


def _write_json(results: List[Dict], cores: int,
                worker_startup: Optional[List[Dict]] = None) -> None:
    """Append this run to the tracked history (keeps prior runs' numbers)."""
    extra = {"usable_cores": cores}
    if worker_startup is not None:
        extra["worker_startup"] = worker_startup
    append_bench_run(
        JSON_PATH, "eval_sharding", "seconds",
        config={
            "dataset": "fb15k-237",
            "split": "EQ",
            "scale": SCALE,
            "test_triples": NUM_TEST_TRIPLES,
            "forms": ["head", "tail"],
            "max_candidates": MAX_CANDIDATES,
            "hidden_dim": HIDDEN_DIM,
        },
        results=results,
        **extra,
    )


@lru_cache(maxsize=None)
def _dataset_and_model():
    """Build (once per session) the dataset and eval-mode model under test.

    Scoring cost is independent of training state, so an untrained (but
    deterministic, eval-mode) model measures the same sharding behaviour
    without paying a training run in CI.
    """
    dataset = build_benchmark("fb15k-237", "EQ", seed=0, scale=SCALE)
    model = DEKGILP(dataset.num_relations,
                    config=ModelConfig(embedding_dim=HIDDEN_DIM, gnn_hidden_dim=HIDDEN_DIM,
                                       edge_dropout=0.0),
                    seed=0)
    model.eval()
    return dataset, model


def _measure_startup() -> List[Dict]:
    """One fresh spawn per mode: deserialize vs shm-attach worker bring-up."""
    dataset, model = _dataset_and_model()
    return measure_worker_startup(model, dataset.split.evaluation_graph())


def _print_startup(rows: List[Dict]) -> None:
    for row in rows:
        rss = row.get("rss_delta")
        private = row.get("private_delta")
        fmt = lambda b: "    n/a" if b is None else f"{b / 1024.0:7.0f} KiB"
        print(f"  startup[{row['mode']:>11s}]: {row['seconds']:6.3f} s   "
              f"rss {fmt(rss)}   private {fmt(private)}")
    if not any(row["mode"] == "attach" for row in rows):
        print("  (attach row skipped: shared memory unavailable or REPRO_SHM=off)")


def test_eval_sharding_scaling():
    """Wall clock per worker count, gated on bit-identical metrics."""
    dataset, model = _dataset_and_model()
    evaluator = Evaluator(dataset, max_candidates=MAX_CANDIDATES, seed=0)
    test_triples = dataset.test_triples[:NUM_TEST_TRIPLES]

    results: List[Dict] = []
    baseline_summary = None
    baseline_seconds = None
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        result = evaluator.evaluate(model, test_triples=test_triples,
                                    model_name="DEKG-ILP", workers=workers)
        seconds = time.perf_counter() - start
        summary = result.summary()
        if baseline_summary is None:
            baseline_summary, baseline_seconds = summary, seconds
        # Correctness gate: sharding must never change a single bit of the
        # metrics, regardless of worker count.
        assert summary == baseline_summary, (
            f"workers={workers} changed the metrics:\n{summary}\nvs\n{baseline_summary}")
        results.append({
            "workers": workers,
            "seconds": seconds,
            "speedup_vs_sequential": baseline_seconds / seconds,
            "items": len(test_triples) * 2,
            "metrics_identical_to_sequential": True,
        })

    cores = usable_cores()
    # Startup cost (attach vs deserialize) is measured unconditionally: it
    # needs one spawned probe per mode, not idle cores, so even the 1-core
    # informational runs record it.
    startup_rows = _measure_startup()
    modes = {row["mode"] for row in startup_rows}
    assert "deserialize" in modes, f"missing deserialize startup row: {startup_rows}"
    if shm_enabled():
        assert "attach" in modes, f"missing attach startup row: {startup_rows}"
    _write_json(results, cores, worker_startup=startup_rows)

    print_banner(
        f"Evaluation sharding — {len(test_triples)} triples x 2 forms, "
        f"{MAX_CANDIDATES} candidates each, {cores} usable core(s)")
    for row in results:
        print(f"  workers={row['workers']}: {row['seconds']:7.2f} s   "
              f"speedup {row['speedup_vs_sequential']:4.2f}x   "
              f"metrics identical: {row['metrics_identical_to_sequential']}")
    _print_startup(startup_rows)
    print(f"  -> {JSON_PATH}")

    # The acceptance gate needs idle cores to draw on (on fewer than 4 usable
    # cores a 4-worker pool measures spawn overhead, not sharding) and a
    # sequential run big enough to amortize pool start-up; outside those
    # conditions the gate is informational (the JSON still records everything).
    four_worker = next(row for row in results if row["workers"] == 4)
    if SPEEDUP_GATE and cores >= 4 and baseline_seconds >= MIN_SEQUENTIAL_SECONDS:
        assert four_worker["speedup_vs_sequential"] >= SPEEDUP_FLOOR, (
            f"4-worker speedup {four_worker['speedup_vs_sequential']:.2f}x "
            f"below the {SPEEDUP_FLOOR}x floor on a {cores}-core machine "
            f"({baseline_seconds:.1f}s sequential)")
    else:
        reason = ("REPRO_BENCH_EVAL_GATE=off" if not SPEEDUP_GATE else
                  f"{cores} usable core(s) < 4" if cores < 4 else
                  f"sequential run {baseline_seconds:.2f}s < {MIN_SEQUENTIAL_SECONDS}s")
        print(f"  ({SPEEDUP_FLOOR}x gate informational: {reason}; "
              f"measured {four_worker['speedup_vs_sequential']:.2f}x)")


if __name__ == "__main__":
    test_eval_sharding_scaling()
