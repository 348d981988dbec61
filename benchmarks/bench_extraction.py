"""Subgraph-extraction speedup benchmark: per-pair vs multi-source batch.

PR 2 made training batched but still extracted enclosing subgraphs one
(head, tail) pair at a time; at the "large" training-benchmark size that
per-pair Python BFS dominated the epoch (ROADMAP "Batched extraction").
This benchmark tracks the multi-source frontier BFS
(:func:`repro.subgraph.provider.extract_batch`) against the per-pair
extractor on the same workloads, plus the warm-cache behaviour of the
policy-driven :class:`~repro.subgraph.provider.SubgraphProvider`:

* **cold, per-pair** — ``extract_enclosing_subgraph`` in a Python loop;
* **cold, batched** — ``extract_batch`` over training-shaped chunks
  (every (head, tail) frontier set of a chunk expands against the CSR
  snapshot at once);
* **warm** — a second pass through a provider whose cache was filled by the
  first, measuring the pure cache-hit path.

Every batched extraction is compared against its per-pair counterpart —
nodes, labels, features, endpoint rows, induced edges, dtypes included — so
the benchmark is **equivalence-gated**: it cannot report a speedup for a
path that returns different subgraphs.  Results are printed and appended to
``BENCH_extraction.json`` (override with ``REPRO_BENCH_EXTRACTION_JSON``).
The >= 1.5x cold-batch floor at the default size can be disabled on
contended runners with ``REPRO_BENCH_EXTRACTION_GATE=off``; the equivalence
gate always stays hard.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from common import append_bench_run, print_banner
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.extraction import extract_enclosing_subgraph
from repro.subgraph.provider import SubgraphProvider, extract_batch

HOPS = 2
BATCH = 32          # positives + negatives of one training mini-batch
REPEATS = 3         # timing repeats; min is the reported estimate

#: (name, num_entities, num_triples) — matches bench_training's generator.
SIZES = [
    ("small", 60, 150),
    ("default", 120, 400),
    ("large", 200, 800),
]

JSON_PATH = os.environ.get(
    "REPRO_BENCH_EXTRACTION_JSON",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_extraction.json"))
GATE = os.environ.get("REPRO_BENCH_EXTRACTION_GATE", "on") != "off"


def _synthetic_graph(num_entities: int, num_triples: int, seed: int = 0) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    tuples = sorted({
        (int(h), int(r), int(t))
        for h, r, t in zip(
            rng.integers(0, num_entities, num_triples),
            rng.integers(0, 8, num_triples),
            rng.integers(0, num_entities, num_triples),
        )
    })
    return KnowledgeGraph(num_entities, 8, [Triple(*t) for t in tuples])


def _workload(graph: KnowledgeGraph, seed: int = 1) -> List[Triple]:
    """Training-shaped pair workload: every positive plus one corruption each."""
    rng = np.random.default_rng(seed)
    positives = graph.triples
    corrupted = [
        Triple(int(rng.integers(0, graph.num_entities)), t.relation, t.tail)
        if rng.random() < 0.5
        else Triple(t.head, t.relation, int(rng.integers(0, graph.num_entities)))
        for t in positives
    ]
    return positives + corrupted


def _assert_equivalent(batched, per_pair, context: str) -> None:
    assert batched.target == per_pair.target, context
    assert batched.hops == per_pair.hops, context
    # strict=True: equal shapes and dtypes as well as equal values.
    for name in ("nodes", "node_labels", "edges", "node_features",
                 "head_row", "tail_row"):
        np.testing.assert_array_equal(getattr(batched, name),
                                      getattr(per_pair, name), strict=True,
                                      err_msg=f"{name}: {context}")


def _time_per_pair(graph: KnowledgeGraph, targets: List[Triple]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for target in targets:
            extract_enclosing_subgraph(graph, target, hops=HOPS,
                                       omit_target_edge=False)
        best = min(best, time.perf_counter() - start)
    return best


def _time_batched(graph: KnowledgeGraph, targets: List[Triple]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for chunk_start in range(0, len(targets), BATCH):
            extract_batch(graph, targets[chunk_start:chunk_start + BATCH],
                          hops=HOPS, omit_target_edge=False)
        best = min(best, time.perf_counter() - start)
    return best


def _time_warm(graph: KnowledgeGraph, targets: List[Triple]) -> Dict[str, float]:
    provider = SubgraphProvider(hops=HOPS, cache_size=len(targets) + 1)
    pairs = [(t.head, t.tail) for t in targets]
    for chunk_start in range(0, len(pairs), BATCH):
        provider.get_many(graph, pairs[chunk_start:chunk_start + BATCH])
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for chunk_start in range(0, len(pairs), BATCH):
            provider.get_many(graph, pairs[chunk_start:chunk_start + BATCH])
        best = min(best, time.perf_counter() - start)
    stats = provider.stats()
    return {"seconds": best, "hit_rate": float(stats["hit_rate"])}


def _write_json(rows: List[Dict]) -> None:
    """Append this run to the tracked history (keeps prior runs' numbers)."""
    append_bench_run(
        JSON_PATH, "extraction", "seconds_per_workload",
        config={"hops": HOPS, "batch": BATCH, "repeats": REPEATS},
        results=rows,
    )


def test_extraction_batched_vs_per_pair():
    """Cold per-pair vs multi-source batch vs warm cache, equivalence-gated."""
    rows: List[Dict] = []
    for name, num_entities, num_triples in SIZES:
        graph = _synthetic_graph(num_entities, num_triples)
        targets = _workload(graph)

        # The correctness gate first: batched extraction must be
        # subgraph-identical to the per-pair path on the whole workload.
        batched_subgraphs = []
        for chunk_start in range(0, len(targets), BATCH):
            batched_subgraphs.extend(
                extract_batch(graph, targets[chunk_start:chunk_start + BATCH],
                              hops=HOPS, omit_target_edge=False))
        for target, subgraph in zip(targets, batched_subgraphs):
            expected = extract_enclosing_subgraph(graph, target, hops=HOPS,
                                                  omit_target_edge=False)
            _assert_equivalent(subgraph, expected, f"{name}: target={target}")

        seconds_per_pair = _time_per_pair(graph, targets)
        seconds_batched = _time_batched(graph, targets)
        warm = _time_warm(graph, targets)
        rows.append({
            "size": name,
            "num_entities": num_entities,
            "num_triples": len(graph),
            "num_pairs": len(targets),
            "seconds_per_pair_cold": seconds_per_pair,
            "seconds_batched_cold": seconds_batched,
            "seconds_warm_cache": warm["seconds"],
            "batch_speedup_cold": seconds_per_pair / seconds_batched,
            "warm_speedup_vs_per_pair": seconds_per_pair / warm["seconds"],
            "warm_hit_rate": warm["hit_rate"],
        })

    _write_json(rows)

    print_banner(
        f"Extraction: per-pair vs multi-source batch — {HOPS}-hop, "
        f"chunks of {BATCH}, equivalence-gated")
    for row in rows:
        print(f"  {row['size']:8s} |E|={row['num_entities']:4d} "
              f"pairs={row['num_pairs']:5d}: "
              f"per-pair {row['seconds_per_pair_cold']*1000:8.1f} ms   "
              f"batched {row['seconds_batched_cold']*1000:7.1f} ms "
              f"({row['batch_speedup_cold']:4.1f}x)   "
              f"warm {row['seconds_warm_cache']*1000:6.1f} ms "
              f"({row['warm_speedup_vs_per_pair']:5.1f}x)")
    print(f"  -> {JSON_PATH}")

    if GATE:
        default_row = next(row for row in rows if row["size"] == "default")
        assert default_row["batch_speedup_cold"] >= 1.5, (
            f"multi-source extraction speedup "
            f"{default_row['batch_speedup_cold']:.2f}x below the 1.5x floor "
            f"(set REPRO_BENCH_EXTRACTION_GATE=off on contended runners)")


if __name__ == "__main__":
    test_extraction_batched_vs_per_pair()
