"""One benchmark workload in a fresh interpreter (started by ``run.py``).

Usage (normally only ``run.py`` calls this)::

    python3 perfbench/workload.py --workload rank --seed 0 --seconds 15 \\
        --trace 0 --spawned-at <time.time() of the parent before the spawn>

The result is printed as one ``PERFBENCH-RESULT <json>`` line.  Shared inputs
of every workload: the ``fb15k-237`` EQ benchmark at scale 0.6 (216
entities, 82 test triples, half bridging), DEKG-ILP with the default
``ModelConfig`` and ``embedding_dim=32``, filtered head + tail ranking
against 30 candidates.  The dataset instance is pinned (split seed 0),
because different splits change the cost of a ranked item by ~18% and would
drown the run-to-run spread; the workload seed drives model initialisation,
training, candidate draws and request arrivals.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import io
import json
import os
import re
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

RESULT_MARKER = "PERFBENCH-RESULT "
WORKLOADS = ("train", "rank", "rank_sharded", "serve")

DATASET, SPLIT, DATASET_SEED, SCALE = "fb15k-237", "EQ", 0, 0.6
EMBEDDING_DIM = 32
MAX_CANDIDATES = 30
FORMS = ("head", "tail")
TRAIN_EPOCHS = 2        # the train workload: cold first epoch + one warm epoch
SETUP_EPOCHS = 1        # epochs of the model the rank and serve workloads use
TRANSE_EPOCHS = 20
SETUPS = 2              # set-ups per run; setup_s is their median
SHARDED_WORKERS = 2
#: Offered DEKG-ILP rank rate of the serve workload: 0.25-0.35 of the 28-38
#: rank requests/s the saturation pass measures on a 2-core box, low enough
#: that the median latency is service time rather than queueing noise.
#: TransE score requests arrive at twice this rate.
RANK_RATE = 10.0
SCORE_PER_RANK = 2
SERVE_SAMPLE = 32       # served requests re-scored directly by the gate
MAX_WAIT_MS, MAX_BATCH = 2.0, 64

LOSS_LINE = re.compile(r"^epoch \d+: loss=(\S+) ", re.MULTILINE)


@dataclass
class Config:
    seed: int
    seconds: float
    scale: float = SCALE

    @property
    def recorded(self) -> bool:
        """Whether the recorded references apply (only at the real scale)."""
        return self.scale == SCALE


def build_dataset(config: Config):
    from repro.datasets.benchmark import build_benchmark
    return build_benchmark(DATASET, SPLIT, seed=DATASET_SEED, scale=config.scale)


def train_dekg(dataset, config: Config, epochs: int, verbose: bool = False):
    """DEKG-ILP fitted through ``train_model``; returns (model, epoch losses)."""
    from repro.core.config import TrainingConfig
    from repro.experiment import train_model

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        model = train_model("DEKG-ILP", dataset, embedding_dim=EMBEDDING_DIM,
                            seed=config.seed,
                            training_config=TrainingConfig(
                                epochs=epochs, seed=config.seed, verbose=verbose))
    return model, [float(value) for value in LOSS_LINE.findall(printed.getvalue())]


def summary_floats(summary: Dict) -> Dict:
    return {scope: {name: float(value) for name, value in metrics.items()}
            for scope, metrics in summary.items()}


# --------------------------------------------------------------------- #
# batch workloads: a set-up, then timed operations back to back
# --------------------------------------------------------------------- #
class TrainWorkload:
    """Fit a fresh DEKG-ILP for ``TRAIN_EPOCHS`` epochs per operation."""

    def __init__(self, config: Config):
        self.config = config
        self.losses: List[List[float]] = []

    def setup(self) -> Optional[bytes]:
        self.dataset = build_dataset(self.config)
        return None

    def prepare(self) -> None:
        pass

    def op(self):
        _, losses = train_dekg(self.dataset, self.config, TRAIN_EPOCHS, verbose=True)
        self.losses.append(losses)
        return losses

    def work(self) -> int:
        return len(self.dataset.train_graph.triples) * TRAIN_EPOCHS

    def check(self, references: Dict) -> List[str]:
        from gates import check_train
        train = references["train"]
        if not self.config.recorded:
            return check_train(self.losses, None, train["tolerance"], None)
        return check_train(self.losses, train["final_loss"].get(str(self.config.seed)),
                           train["tolerance"], tuple(train["loss_band"]))

    def named(self, op_seconds: List[float]) -> Dict:
        rates = [self.work() / seconds for seconds in op_seconds]
        return {"train_triples_per_s": (statistics.median(rates), "1/s")}


class RankWorkload:
    """``Evaluator.evaluate`` of a checkpoint restored before every op."""

    workers = 1

    def __init__(self, config: Config):
        self.config = config
        self.summaries: List[Dict] = []
        self.events: List = []

    def setup(self) -> bytes:
        from repro.core.persistence import model_to_bytes
        from repro.eval.evaluator import Evaluator

        self.dataset = build_dataset(self.config)
        model, _ = train_dekg(self.dataset, self.config, SETUP_EPOCHS)
        self.checkpoint = model_to_bytes(model)
        self.evaluator = Evaluator(self.dataset, forms=FORMS,
                                   max_candidates=MAX_CANDIDATES, seed=self.config.seed)
        return self.checkpoint

    def restore(self):
        from repro.core.persistence import model_from_bytes
        model = model_from_bytes(self.checkpoint)
        model.eval()
        return model

    def prepare(self) -> None:
        self.model = self.restore()

    def op(self):
        result = self.evaluator.evaluate(self.model, workers=self.workers,
                                         on_event=self.events.append)
        summary = summary_floats(result.summary())
        self.summaries.append(summary)
        return summary

    def work(self) -> int:
        return len(self.dataset.test_triples) * len(FORMS)

    def check(self, references: Dict) -> List[str]:
        from gates import check_rank
        band = tuple(references["rank"]["mrr_band"]) if self.config.recorded else (0.0, 1.0)
        return check_rank(self.summaries, band)

    def named(self, op_seconds: List[float]) -> Dict:
        rates = [self.work() / seconds for seconds in op_seconds]
        summary = self.summaries[-1]
        return {"rank_items_per_s": (statistics.median(rates), "1/s"),
                "mrr": (summary["overall"]["MRR"], "1"),
                "bridging_mrr": (summary["bridging"]["MRR"], "1")}


class ChildMemory:
    """Largest peak RSS (``VmHWM``) of this process's children, from /proc.

    ``getrusage(RUSAGE_CHILDREN)`` cannot be used: Linux carries the
    pre-exec (forked) image's RSS into a spawned worker's ``ru_maxrss``.
    A thread samples the live children every ``interval`` seconds; the
    high-water mark only grows, so a late sample sees the peak.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="perfbench-rss", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        parent = str(os.getpid())
        while not self._stop.wait(self.interval):
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    with open(f"/proc/{entry}/status", encoding="utf-8") as handle:
                        fields = dict(line.split(":", 1) for line in handle if ":" in line)
                except OSError:  # the process ended while we looked
                    continue
                if fields.get("PPid", "").strip() == parent and "VmHWM" in fields:
                    self.peak_kb = max(self.peak_kb, int(fields["VmHWM"].split()[0]))


class ShardedRankWorkload(RankWorkload):
    """The rank op with ``workers=2``: spawned SupervisedPool + shm pages."""

    workers = SHARDED_WORKERS
    worker_peak_kb = 0

    def op(self):
        with ChildMemory() as memory:
            summary = super().op()
        self.worker_peak_kb = max(self.worker_peak_kb, memory.peak_kb)
        return summary

    def check(self, references: Dict) -> List[str]:
        from gates import check_sharded
        failures = super().check(references)
        # The in-process reference for the same checkpoint, after timing.
        reference = summary_floats(self.evaluator.evaluate(self.restore(), workers=1).summary())
        return failures + check_sharded(self.summaries, reference)

    def named(self, op_seconds: List[float]) -> Dict:
        named = super().named(op_seconds)
        named["worker_peak_rss_mb"] = (self.worker_peak_kb / 1024.0, "MB")
        return named


def set_up(workload, spawned_at: float, imported_at: float, tracer):
    """Run the workload's set-up ``SETUPS`` times.

    The first set-up is timed from interpreter start; each repeat is timed
    in-process and charged the measured interpreter start and import time.
    Returns the set-up times, the first set-up's probe statistics (traced
    runs) and a failure when the repeats trained different checkpoints.
    """
    setups: List[float] = []
    checkpoints = []
    setup_stats = None
    for index in range(SETUPS):
        started = time.perf_counter()
        checkpoints.append(workload.setup())
        elapsed = time.perf_counter() - started
        setups.append((imported_at - spawned_at) + elapsed if index else
                      time.time() - spawned_at)
        if index == 0 and tracer is not None:
            setup_stats = tracer.snapshot()
    if tracer is not None:
        tracer.reset()
    failures = []
    if any(checkpoint != checkpoints[0] for checkpoint in checkpoints):
        failures.append("repeated set-ups trained different checkpoints")
    return setups, setup_stats, failures


def run_batch(workload, config: Config, spawned_at: float, imported_at: float,
              tracer, references: Dict) -> Dict:
    """Set up ``SETUPS`` times, then run timed ops for ``config.seconds``."""
    setups, setup_stats, failures = set_up(workload, spawned_at, imported_at, tracer)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    op_seconds: List[float] = []
    traced_seconds: List[float] = []
    plain_seconds: List[float] = []
    attempted = failed = 0
    began = time.perf_counter()
    while failed < 3:
        traced = tracer is not None and attempted % 2 == 1
        if tracer is not None:
            # Alternate untraced and traced ops; the gap is the overhead.
            (tracer.install if traced else tracer.uninstall)()
        workload.prepare()
        attempted += 1
        started = time.perf_counter()
        try:
            workload.op()
        except Exception as error:  # a failed op counts; the run goes on
            failed += 1
            failures.append(f"op {attempted - 1} raised {error!r}")
            continue
        elapsed = time.perf_counter() - started
        op_seconds.append(elapsed)
        (traced_seconds if traced else plain_seconds).append(elapsed)
        spent = time.perf_counter() - began
        both = tracer is None or (traced_seconds and plain_seconds)
        if both and spent >= config.seconds - statistics.median(op_seconds) / 2:
            break
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall()
    failures += workload.check(references)

    result = {
        "setup_seconds": setups,
        "op_seconds": op_seconds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "named": workload.named(op_seconds) if op_seconds else {},
        # A run whose every op failed reports zero next to correct=false.
        "latency_ms": statistics.median(op_seconds) * 1000.0 if op_seconds else 0.0,
    }
    worker_cpu = ((children_after.ru_utime + children_after.ru_stime)
                  - (children_before.ru_utime + children_before.ru_stime))
    if tracer is not None:
        from layers import probe_metrics
        timed = tracer.snapshot()
        layer = probe_metrics(setup_stats, timed, len(traced_seconds), sum(traced_seconds))
        per = max(1, len(op_seconds))
        pool = layer["sharding.pool_s"]
        layer["sharding.worker_cpu_s"] = worker_cpu / per
        layer["sharding.parallelism"] = worker_cpu / per / pool if pool else 0.0
        events = getattr(workload, "events", [])
        layer["supervisor.retries"] = sum(e.kind == "retry" for e in events) / per
        layer["supervisor.fallbacks"] = sum(e.kind == "fallback" for e in events) / per
        if traced_seconds and plain_seconds:
            layer["trace.overhead_pct"] = 100.0 * (statistics.median(traced_seconds)
                                                   / statistics.median(plain_seconds) - 1.0)
        result["per_layer"] = complete(layer)
    return result


# --------------------------------------------------------------------- #
# serve: an open loop against an in-process ScoringService
# --------------------------------------------------------------------- #
class ServeWorkload:
    """Seeded Poisson arrivals of DEKG-ILP rank and TransE score requests."""

    def __init__(self, config: Config):
        self.config = config

    def setup(self) -> bytes:
        import numpy as np
        from repro.core.persistence import model_to_bytes
        from repro.eval.ranking import candidate_rng, filtered_candidates
        from repro.experiment import train_model
        from repro.serving import ScoringService

        dataset = build_dataset(self.config)
        self.dekg, _ = train_dekg(dataset, self.config, SETUP_EPOCHS)
        checkpoint = model_to_bytes(self.dekg)
        self.transe = train_model("TransE", dataset, epochs=TRANSE_EPOCHS,
                                  embedding_dim=EMBEDDING_DIM, seed=self.config.seed)
        graph = dataset.split.evaluation_graph()
        entities = graph.entities()
        relations = list(range(dataset.num_relations))
        known = ({t.astuple() for t in graph.triples}
                 | {t.astuple() for t in dataset.test_triples})
        # The rank work list: (true triple, its 30 counter-seeded candidates).
        self.rank_requests = []
        for triple_index, triple in enumerate(dataset.test_triples):
            for form_index, form in enumerate(FORMS):
                candidates = filtered_candidates(
                    triple, form, entity_candidates=entities,
                    relation_candidates=relations, known_facts=known,
                    max_candidates=MAX_CANDIDATES,
                    rng=candidate_rng(self.config.seed, triple_index, form_index))
                self.rank_requests.append([triple] + list(candidates))
        self.score_pool = [t for request in self.rank_requests for t in request]
        if getattr(self, "service", None) is not None:
            self.service.close()
        self.service = ScoringService({"DEKG-ILP": self.dekg, "TransE": self.transe},
                                      graph, max_batch=MAX_BATCH,
                                      max_wait_ms=MAX_WAIT_MS, replicas=0,
                                      max_pending=None)
        self._rng = np.random.default_rng(self.config.seed)
        return checkpoint

    def warm(self) -> float:
        """One full pass over the work list; returns its seconds."""
        started = time.perf_counter()
        warm = [self.service.submit("DEKG-ILP", request) for request in self.rank_requests]
        warm += [self.service.submit("TransE", [triple]) for triple in
                 self.score_pool[:SCORE_PER_RANK * len(self.rank_requests)]]
        for future in warm:
            future.result()
        return time.perf_counter() - started

    def _request(self, kind: int):
        if kind == 0:
            return "DEKG-ILP", self.rank_requests[self._rng.integers(len(self.rank_requests))]
        return "TransE", [self.score_pool[self._rng.integers(len(self.score_pool))]]

    def open_loop(self, seconds: float):
        """Submit the seeded schedule on time; latency from the due time."""
        import numpy as np
        rng = self._rng
        n_rank = max(1, round(RANK_RATE * seconds))
        kinds = rng.permutation(np.repeat([0, 1], [n_rank, SCORE_PER_RANK * n_rank]))
        due = np.sort(rng.uniform(0.0, n_rank / RANK_RATE, len(kinds)))
        requests = [self._request(int(kind)) for kind in kinds]
        done = [0.0] * len(kinds)
        lateness = [0.0] * len(kinds)
        futures = [None] * len(kinds)

        def mark(index, _future):
            done[index] = time.perf_counter()

        def generate(start):
            for index, (model, triples) in enumerate(requests):
                delay = start + due[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness[index] = time.perf_counter() - (start + due[index])
                future = self.service.submit(model, triples)
                future.add_done_callback(lambda f, i=index: mark(i, f))
                futures[index] = future

        start = time.perf_counter() + 0.05
        generator = threading.Thread(target=generate, args=(start,), name="perfbench-arrivals")
        generator.start()
        generator.join()
        concurrent.futures.wait(futures, timeout=120)
        window = time.perf_counter() - start
        outcomes = []
        for index, future in enumerate(futures):
            model, triples = requests[index]
            ok = future.done() and future.exception() is None
            outcomes.append({
                "model": model, "triples": triples, "ok": ok,
                "scores": future.result() if ok else None,
                "latency_ms": (done[index] - (start + due[index])) * 1000.0,
            })
        return outcomes, lateness, window

    def saturation(self) -> float:
        """Rank requests per second while one full pass of the mix drains.

        Every rank request of the work list is submitted once, each followed
        by two score requests, all at once: the queue never empties, so the
        drain rate is the rate the service sustains.  The fixed composition
        keeps the measured work equal from seed to seed.
        """
        burst = []
        for request in self.rank_requests:
            burst.append(("DEKG-ILP", request))
            burst += [self._request(1) for _ in range(SCORE_PER_RANK)]
        started = time.perf_counter()
        futures = [self.service.submit(model, triples) for model, triples in burst]
        for future in futures:
            future.result()
        return len(self.rank_requests) / (time.perf_counter() - started)


def run_serve(workload: ServeWorkload, config: Config, spawned_at: float,
              imported_at: float, tracer, references: Dict) -> Dict:
    setups, setup_stats, failures = set_up(workload, spawned_at, imported_at, tracer)
    # The warm pass runs once, after the last set-up; every set-up sample is
    # charged its time (the first timed arrival waits for it).
    warm_s = workload.warm()
    setups = [seconds + warm_s for seconds in setups]
    if tracer is not None:
        tracer.reset()
    service = workload.service
    before = service.coalescer_stats()
    outcomes, lateness, window = workload.open_loop(config.seconds)
    after = service.coalescer_stats()
    layer_window = tracer.snapshot() if tracer is not None else None
    if tracer is not None:
        tracer.uninstall()
    plain_rps = workload.saturation()
    traced_rps = None
    if tracer is not None:
        tracer.install()
        traced_rps = workload.saturation()
        tracer.uninstall()
    service.close()

    # Gate: a seeded sample of served requests, re-scored directly.
    import numpy as np
    from gates import check_served
    from layers import percentile
    served = [o for o in outcomes if o["ok"]]
    picks = np.random.default_rng(config.seed).choice(
        len(served), size=min(SERVE_SAMPLE, len(served)), replace=False)
    sample = [(served[i]["model"], served[i]["triples"], served[i]["scores"]) for i in picks]
    models = {"DEKG-ILP": workload.dekg, "TransE": workload.transe}
    direct = [[float(s) for s in models[model].score_many(triples)]
              for model, triples, _ in sample]
    failures += check_served(sample, direct)
    failed = sum(not o["ok"] for o in outcomes)
    failures += [f"{failed} served requests failed"] if failed else []

    rank = [o["latency_ms"] for o in outcomes if o["ok"] and o["model"] == "DEKG-ILP"]
    score = [o["latency_ms"] for o in outcomes if o["ok"] and o["model"] == "TransE"]
    named = {
        "rank_p50_ms": (percentile(rank, 50), "ms"),
        "rank_p95_ms": (percentile(rank, 95), "ms"),
        "score_p50_ms": (percentile(score, 50), "ms"),
        "score_p95_ms": (percentile(score, 95), "ms"),
        "saturation_rps": (plain_rps, "1/s"),
        "offered_rank_rps": (RANK_RATE, "1/s"),
        "offered_score_rps": (RANK_RATE * SCORE_PER_RANK, "1/s"),
        "rank_requests": (len(rank), "count"),
        "score_requests": (len(score), "count"),
        "gen_lag_p95_ms": (percentile(lateness, 95) * 1000.0, "ms"),
    }
    result = {
        "setup_seconds": setups,
        "op_seconds": [window],
        "attempted": len(outcomes),
        "failed": failed,
        "failures": failures,
        "named": named,
        "latency_ms": percentile(rank, 50),
    }
    if tracer is not None:
        from layers import probe_metrics
        layer = probe_metrics(setup_stats, layer_window, 1, window)
        flushes = after["flushes"] - before["flushes"]
        requests = after["requests"] - before["requests"]

        def total_triples(stats):
            return sum(int(size) * count for size, count in stats["triples_per_flush"].items())

        layer.update({
            "serving.fused_share": (after["fused_requests"] - before["fused_requests"])
            / requests if requests else 0.0,
            "serving.triples_per_flush": (total_triples(after) - total_triples(before))
            / flushes if flushes else 0.0,
            "serving.flushes": float(flushes),
            "serving.gen_lag_p95_ms": percentile(lateness, 95) * 1000.0,
            "trace.overhead_pct": 100.0 * (plain_rps / traced_rps - 1.0),
        })
        result["per_layer"] = complete(layer)
    return result


def complete(layer: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0.0 where this workload does no such work."""
    from layers import LAYER_METRICS
    return {name: float(layer.get(name, 0.0)) for name in LAYER_METRICS}


def child_environment() -> Dict:
    import numpy as np
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        pass
    return {"numpy": np.__version__, "blas": blas,
            "python": sys.version.split()[0]}


def stop_resource_tracker() -> None:
    """Wait for the resource tracker that shared-memory pages started.

    Multiprocessing starts it on first use and leaves it to exit after this
    process; stopping it here means no process outlives the workload.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scale", type=float, default=SCALE)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    import numpy  # noqa: F401  (part of every set-up's import cost)
    import repro.experiment  # noqa: F401
    from gates import load_references
    imported_at = time.time()

    config = Config(seed=args.seed, seconds=args.seconds, scale=args.scale)
    references = load_references()
    if args.workload == "serve":
        result = run_serve(ServeWorkload(config), config, args.spawned_at,
                           imported_at, tracer, references)
    else:
        workload = {"train": TrainWorkload, "rank": RankWorkload,
                    "rank_sharded": ShardedRankWorkload}[args.workload](config)
        result = run_batch(workload, config, args.spawned_at, imported_at,
                           tracer, references)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = child_environment()
    if tracer is not None:
        from layers import absent_metrics
        result["absent"] = absent_metrics(tracer)
        result["absent_paths"] = tracer.absent_paths
    stop_resource_tracker()
    print(RESULT_MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
