"""Shared infrastructure for the benchmark harness.

Every ``bench_*.py`` file regenerates one table or figure of the paper.  The
heavy work — building a benchmark dataset, training a model, evaluating it —
is cached at module level so that, within one ``pytest benchmarks/`` session,
figures that reuse the same trained model (e.g. Table III, Fig. 5 and Fig. 7)
do not retrain it.

Scope control
-------------
The full 3 KGs x 3 splits x 12 models sweep of the paper takes hours on CPU.
By default the harness runs a representative subset (the FB15k-237 family,
all three splits, every model) at a reduced scale; set the environment
variable ``REPRO_BENCH_FULL=1`` to sweep all nine datasets at a larger scale.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.datasets.benchmark import BenchmarkDataset, build_benchmark, dataset_names, split_names
from repro.eval.evaluator import EvaluationResult, Evaluator
from repro.experiment import train_model
from repro.resilience import atomic_write_json

FULL_SWEEP = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Scale factor applied to the synthetic raw KGs.
SCALE = 0.5 if FULL_SWEEP else 0.3
#: Training epochs per model.
EPOCHS = 4 if FULL_SWEEP else 3
#: Candidate cap per (test triple, prediction form) in the filtered ranking.
MAX_CANDIDATES = 50 if FULL_SWEEP else 25
#: Cap on the number of test triples evaluated per dataset (None = all).
MAX_TEST_TRIPLES = None if FULL_SWEEP else 30
#: Embedding dimension (the paper's optimal configuration uses 32).
EMBEDDING_DIM = 32 if FULL_SWEEP else 16
#: Worker processes for evaluation sharding (metrics are identical for any
#: worker count, so this is purely a wall-clock knob for multi-core machines).
EVAL_WORKERS = int(os.environ.get("REPRO_BENCH_EVAL_WORKERS", "1"))

#: Models of Table III, in the paper's row order.
TABLE3_MODELS = ["TransE", "RotatE", "ConvE", "GEN", "RuleN", "Grail", "TACT", "DEKG-ILP"]
#: Models shown in Fig. 5.
FIG5_MODELS = ["DEKG-ILP", "TACT", "Grail", "RuleN", "TransE", "GEN"]
#: DEKG-ILP variants shown in Fig. 6.
FIG6_MODELS = ["DEKG-ILP-R", "DEKG-ILP-C", "DEKG-ILP-N", "DEKG-ILP"]
#: Models shown in Fig. 7 / Table IV.
COMPLEXITY_MODELS = ["TransE", "RotatE", "ConvE", "GEN", "Grail", "TACT", "DEKG-ILP"]


def bench_datasets() -> List[str]:
    """KG families included in the current benchmark scope."""
    return dataset_names() if FULL_SWEEP else ["fb15k-237"]


def bench_splits() -> List[str]:
    """Evaluation mixtures included in the current benchmark scope."""
    return split_names()


@lru_cache(maxsize=None)
def get_dataset(name: str, split: str, seed: int = 0) -> BenchmarkDataset:
    """Build (and cache) one benchmark dataset."""
    return build_benchmark(name, split, seed=seed, scale=SCALE)


@lru_cache(maxsize=None)
def get_trained_model(model_name: str, dataset_name: str, split: str, seed: int = 0):
    """Train (and cache) one model on one dataset."""
    dataset = get_dataset(dataset_name, split, seed)
    return train_model(model_name, dataset, epochs=EPOCHS,
                       embedding_dim=EMBEDDING_DIM, seed=seed)


@lru_cache(maxsize=None)
def get_evaluation(model_name: str, dataset_name: str, split: str,
                   seed: int = 0) -> EvaluationResult:
    """Train + evaluate (cached) one model on one dataset."""
    dataset = get_dataset(dataset_name, split, seed)
    model = get_trained_model(model_name, dataset_name, split, seed)
    evaluator = Evaluator(dataset, max_candidates=MAX_CANDIDATES, seed=seed,
                          workers=EVAL_WORKERS)
    test_triples = dataset.test_triples
    if MAX_TEST_TRIPLES is not None:
        test_triples = test_triples[:MAX_TEST_TRIPLES]
    return evaluator.evaluate(model, test_triples=test_triples, model_name=model_name)


def thread_counts() -> Dict:
    """OMP/BLAS thread-count environment, for benchmark comparability.

    Unset means the library default, usually all cores.
    """
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    counts = {key: os.environ.get(key) for key in keys}
    counts["cpu_count"] = os.cpu_count()
    return counts


def bench_env() -> Dict:
    """Execution-environment block recorded in every ``BENCH_*.json`` run.

    Perf numbers from different machines are only comparable when the
    BLAS/OMP threading situation is known; this captures it.
    """
    return {"threads": thread_counts()}


def append_bench_run(path: str, benchmark: str, unit: str,
                     config: Dict, results: Sequence[Dict], **extra) -> None:
    """Append one run to a ``BENCH_*.json`` history file, atomically.

    The file holds ``{"benchmark", "unit", "runs": [...]}``; each run is
    stamped with the UTC time and the :func:`bench_env` block (plus any
    ``extra`` top-level keys, e.g. ``usable_cores``).  Prior runs' numbers
    are preserved; an unreadable/corrupt history starts fresh rather than
    aborting the benchmark.  The write goes through
    :func:`repro.resilience.atomic_write_json`, so an interrupted benchmark
    can never truncate the accumulated history.
    """
    run = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "env": bench_env(),
        **extra,
        "config": config,
        "results": list(results),
    }
    payload = {"benchmark": benchmark, "unit": unit, "runs": []}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing.get("runs"), list):
            payload["runs"] = existing["runs"]
    except (OSError, ValueError):
        pass  # first run, or an unreadable file: start a fresh history
    payload["runs"].append(run)
    atomic_write_json(path, payload)


def print_banner(title: str) -> None:
    """Uniform section header in the benchmark output."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
