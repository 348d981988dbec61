"""Per-layer tracing for the benchmark's traced run, from outside ``repro``.

Nothing inside ``src/repro`` is instrumented.  Each probe names the public
entry point of one layer by dotted path (``repro.gnn.rgcn.RGCNLayer.forward``);
:class:`Tracer` resolves the path at install time and swaps in a timing
wrapper.  A path that no longer resolves -- a module or function deleted by
a later simplification -- marks the metrics that depend on it *absent*
instead of crashing, so code can move without editing the benchmark.

Module-level functions are also replaced in every loaded ``repro`` module
that imported them by name (``from x import f``), so the wrapper sees the
calls wherever the program makes them.  Times are inclusive (a span
includes its callees) and re-entrant calls inside the same probe group are
not double counted.  Only the calling process is visible: work done inside
spawned evaluation workers shows up only through the parent-side spans and
``getrusage`` numbers, never as estimates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_pairs(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 2, "pairs"))


def _count_targets(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "targets"))


def _count_one(args, kwargs, result) -> int:
    return 1


def _count_subgraphs(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "subgraphs"))


def _provider_misses(args, kwargs):
    return getattr(args[0], "lifetime_misses", None)


def _provider_miss_delta(args, kwargs, result, before):
    """Misses the provider itself counted during one ``get_many`` call."""
    if before is None:
        return None
    return args[0].lifetime_misses - before


def _queue_waits(args, kwargs):
    """Seconds each request of a coalescer flush spent queued."""
    now = time.monotonic()
    return [now - request.enqueued_at for request in _arg(args, kwargs, 1, "batch")]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: dotted path, probe group, optional hooks.

    ``count(args, kwargs, result)`` adds to the group's item count;
    ``before(args, kwargs)`` runs before the call and its value is kept as
    a sample next to the call (queue waits) and handed to
    ``extra(args, kwargs, result, before)``, which adds to the group's
    second counter (``None`` marks that counter unavailable).
    """

    path: str
    group: str
    count: Optional[Callable] = None
    before: Optional[Callable] = None
    extra: Optional[Callable] = None


#: Every probe, grouped by the layer it measures.
TARGETS: Tuple[Target, ...] = (
    Target("repro.datasets.benchmark.build_benchmark", "datasets.build"),
    Target("repro.kg.graph.KnowledgeGraph.adjacency", "kg.adjacency"),
    Target("repro.subgraph.provider.SubgraphProvider.get_many", "subgraph.get_many",
           count=_count_pairs, before=_provider_misses, extra=_provider_miss_delta),
    Target("repro.subgraph.provider.extract_batch", "subgraph.extract",
           count=_count_targets),
    Target("repro.subgraph.extraction.extract_enclosing_subgraph", "subgraph.extract",
           count=_count_one),
    Target("repro.core.gsm.GSM.score_batch", "gsm.forward", count=_count_subgraphs),
    Target("repro.gnn.rgcn.RGCNLayer.forward", "gnn.rgcn"),
    Target("repro.gnn.rgcn.RGCNLayer.edge_messages", "gnn.messages"),
    Target("repro.gnn.message_passing.aggregate_messages", "gnn.messages"),
    Target("repro.backend.numpy_backend.NumpyBackend.scatter_rows", "kernels.scatter"),
    Target("repro.backend.base.ArrayBackend.gather_rows", "kernels.gather"),
    Target("repro.autodiff.tensor.Tensor.backward", "autodiff.backward"),
    Target("repro.autodiff.optim.Adam.step", "optim.step"),
    Target("repro.autodiff.optim.clip_grad_norm", "optim.clip"),
    Target("repro.core.clrm.CLRM.fuse_batch", "clrm.score"),
    Target("repro.core.clrm.CLRM.score_batch", "clrm.score"),
    Target("repro.core.contrastive.batch_contrastive_loss", "clrm.contrastive"),
    Target("repro.core.trainer.Trainer.train_epoch", "trainer.epoch"),
    Target("repro.kg.sampling.NegativeSampler.sample_batch", "trainer.negatives"),
    Target("repro.eval.evaluator.ShardWorkload.rank_item", "eval.rank"),
    Target("repro.eval.ranking.filtered_candidates", "eval.candidates"),
    Target("repro.core.model.DEKGILP.score_many", "eval.score_many"),
    Target("repro.kg.graph.graph_to_shm", "sharding.export"),
    Target("repro.eval.sharding.make_shm_model_spec", "sharding.export"),
    Target("repro.resilience.supervisor.SupervisedPool.run", "sharding.pool"),
    Target("repro.serving.coalescer.RequestCoalescer._flush", "serving.flush",
           before=_queue_waits),
    Target("repro.serving.service.ScoringService._direct_score", "serving.compute"),
)


@dataclass
class GroupStats:
    """Accumulated spans of one probe group."""

    calls: int = 0
    seconds: float = 0.0
    items: int = 0
    extra: Optional[int] = 0
    #: (positional args, before-value, elapsed, result) per call, kept only
    #: for groups whose metrics need per-call detail.
    samples: List[Tuple[Any, Any, float, Any]] = field(default_factory=list)
    depth: int = 0


#: Groups whose metrics need per-call samples (the rest keep totals only).
_SAMPLED = {"trainer.epoch", "serving.flush", "serving.compute"}


def resolve(path: str):
    """``(owner, attribute, raw attribute)`` for a dotted path, or ``None``.

    The longest importable prefix is the module; the rest is walked with
    ``getattr`` (classes) and the final attribute is read statically, so
    static and class methods keep their descriptors.
    """
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            raw = inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1], raw
    return None


class Tracer:
    """Installs and removes the probe wrappers; owns their statistics."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.groups: Dict[str, GroupStats] = {t.group: GroupStats() for t in targets}
        self.resolved_groups = set()
        self.absent_paths: List[str] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._restore:  # already installed
            return
        self.absent_paths = []
        for target in self.targets:
            found = resolve(target.path)
            func = None
            if found is not None:
                owner, attr, raw = found
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not callable(func):
                self.absent_paths.append(target.path)
                continue
            self.resolved_groups.add(target.group)
            wrapper = self._wrap(func, target)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            elif isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                # Rebind copies imported by name into other repro modules.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is func:
                            self._patch(module, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        owned = not inspect.isclass(owner) or attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._restore):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore = []

    def reset(self) -> None:
        with self._lock:
            for stats in self.groups.values():
                stats.calls, stats.seconds, stats.items, stats.extra = 0, 0.0, 0, 0
                stats.samples = []

    def snapshot(self) -> Dict[str, GroupStats]:
        with self._lock:
            return {name: GroupStats(s.calls, s.seconds, s.items, s.extra,
                                     list(s.samples))
                    for name, s in self.groups.items()}

    # ------------------------------------------------------------------ #
    def _wrap(self, func, target: Target):
        stats = self.groups[target.group]
        lock = self._lock
        sampled = target.group in _SAMPLED
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stats.depth:  # nested inside this group's own span
                return func(*args, **kwargs)
            before = target.before(args, kwargs) if target.before else None
            stats.depth += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.depth -= 1
            with lock:
                stats.calls += 1
                stats.seconds += elapsed
                if target.count is not None:
                    stats.items += target.count(args, kwargs, result)
                if target.extra is not None:
                    delta = target.extra(args, kwargs, result, before)
                    stats.extra = (None if delta is None or stats.extra is None
                                   else stats.extra + delta)
                if sampled:
                    stats.samples.append((args, before, elapsed, result))
            return result

        return wrapper


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #
#: name -> (unit, probe group it needs, or None when it needs no probe).
#: Which end-to-end metric each layer should move, written down before
#: measuring (``latency_ms`` is the op time, or serve's rank p50):
#:
#: * datasets, kg -> ``setup_s`` everywhere;
#: * subgraph -> rank ``latency_ms`` most, serve latency; near zero on train
#:   after the first epoch;
#: * gsm, gnn, kernels -> every ``latency_ms`` (forward, and backward on train);
#: * autodiff, optim, clrm, trainer -> train only (no backward elsewhere);
#: * eval -> rank and rank_sharded;
#: * sharding, supervisor -> rank_sharded ``latency_ms`` and
#:   ``worker_peak_rss_mb`` only; rank unchanged;
#: * serving -> serve: queue wait and fusion move the score latencies,
#:   compute moves rank latency, busy share moves ``saturation_rps``.
LAYER_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "datasets.build_s": ("s", "datasets.build"),
    "kg.adjacency_s": ("s", "kg.adjacency"),
    "subgraph.lookups": ("count", "subgraph.get_many"),
    "subgraph.misses": ("count", "subgraph.get_many"),
    "subgraph.hit_rate": ("ratio", "subgraph.get_many"),
    "subgraph.get_many_s": ("s", "subgraph.get_many"),
    "subgraph.extract_s": ("s", "subgraph.extract"),
    "subgraph.extracted_pairs": ("count", "subgraph.extract"),
    "gsm.forward_s": ("s", "gsm.forward"),
    "gsm.calls": ("count", "gsm.forward"),
    "gsm.subgraphs": ("count", "gsm.forward"),
    "gnn.rgcn_s": ("s", "gnn.rgcn"),
    "gnn.messages_s": ("s", "gnn.messages"),
    "kernels.scatter_calls": ("count", "kernels.scatter"),
    "kernels.scatter_s": ("s", "kernels.scatter"),
    "kernels.gather_s": ("s", "kernels.gather"),
    "autodiff.backward_s": ("s", "autodiff.backward"),
    "autodiff.backward_calls": ("count", "autodiff.backward"),
    "optim.step_s": ("s", "optim.step"),
    "optim.clip_s": ("s", "optim.clip"),
    "clrm.score_s": ("s", "clrm.score"),
    "clrm.contrastive_s": ("s", "clrm.contrastive"),
    "trainer.first_epoch_s": ("s", "trainer.epoch"),
    "trainer.warm_epoch_s": ("s", "trainer.epoch"),
    "trainer.negatives_s": ("s", "trainer.negatives"),
    "trainer.skipped_batches": ("count", "trainer.epoch"),
    "eval.items": ("count", "eval.rank"),
    "eval.candidates_s": ("s", "eval.candidates"),
    "eval.score_many_s": ("s", "eval.score_many"),
    "eval.rank_s": ("s", "eval.rank"),
    "sharding.export_s": ("s", "sharding.export"),
    "sharding.pool_s": ("s", "sharding.pool"),
    "sharding.worker_cpu_s": ("s", None),
    "sharding.parallelism": ("ratio", "sharding.pool"),
    "supervisor.retries": ("count", None),
    "supervisor.fallbacks": ("count", None),
    "serving.queue_wait_p95_ms": ("ms", "serving.flush"),
    "serving.compute_busy_share": ("ratio", "serving.compute"),
    "serving.rank_compute_ms": ("ms", "serving.compute"),
    "serving.score_compute_ms": ("ms", "serving.compute"),
    "serving.fused_share": ("ratio", None),
    "serving.triples_per_flush": ("count", None),
    "serving.flushes": ("count", None),
    "serving.gen_lag_p95_ms": ("ms", None),
    "trace.overhead_pct": ("%", None),
}

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def probe_metrics(setup: Dict[str, GroupStats], timed: Dict[str, GroupStats],
                  ops: int, window_s: float) -> Dict[str, float]:
    """Probe-derived per-layer values: per timed op (serve: per window).

    ``ops`` divides totals so runs with a different number of operations
    stay comparable.  ``datasets.build_s`` covers the first set-up, and
    ``kg.adjacency_s`` the first set-up plus the traced ops, undivided.
    """
    per = max(1, ops)
    g = timed
    metrics: Dict[str, float] = {
        "datasets.build_s": setup["datasets.build"].seconds,
        # CSR snapshots are built once per graph, wherever first needed.
        "kg.adjacency_s": setup["kg.adjacency"].seconds + timed["kg.adjacency"].seconds,
    }
    lookups = g["subgraph.get_many"].items
    extracted = g["subgraph.extract"].items
    # The provider's own miss counter when it has one, else the extractor's
    # pair count (equal by construction today).
    misses = g["subgraph.get_many"].extra
    if misses is None:
        misses = extracted
    metrics.update({
        "subgraph.lookups": lookups / per,
        "subgraph.misses": misses / per,
        "subgraph.hit_rate": _ratio(lookups - misses, lookups),
        "subgraph.get_many_s": g["subgraph.get_many"].seconds / per,
        "subgraph.extract_s": g["subgraph.extract"].seconds / per,
        "subgraph.extracted_pairs": extracted / per,
        "gsm.forward_s": g["gsm.forward"].seconds / per,
        "gsm.calls": g["gsm.forward"].calls / per,
        "gsm.subgraphs": g["gsm.forward"].items / per,
        "gnn.rgcn_s": g["gnn.rgcn"].seconds / per,
        "gnn.messages_s": g["gnn.messages"].seconds / per,
        "kernels.scatter_calls": g["kernels.scatter"].calls / per,
        "kernels.scatter_s": g["kernels.scatter"].seconds / per,
        "kernels.gather_s": g["kernels.gather"].seconds / per,
        "autodiff.backward_s": g["autodiff.backward"].seconds / per,
        "autodiff.backward_calls": g["autodiff.backward"].calls / per,
        "optim.step_s": g["optim.step"].seconds / per,
        "optim.clip_s": g["optim.clip"].seconds / per,
        "clrm.score_s": g["clrm.score"].seconds / per,
        "clrm.contrastive_s": g["clrm.contrastive"].seconds / per,
        "trainer.negatives_s": g["trainer.negatives"].seconds / per,
        "eval.items": g["eval.rank"].calls / per,
        "eval.candidates_s": g["eval.candidates"].seconds / per,
        "eval.score_many_s": g["eval.score_many"].seconds / per,
        "eval.rank_s": g["eval.rank"].seconds / per,
        "sharding.export_s": g["sharding.export"].seconds / per,
        "sharding.pool_s": g["sharding.pool"].seconds / per,
    })
    epochs = g["trainer.epoch"].samples
    first = [elapsed for args, _, elapsed, _ in epochs if _epoch_index(args) == 0]
    warm = [elapsed for args, _, elapsed, _ in epochs if _epoch_index(args) != 0]
    metrics["trainer.first_epoch_s"] = statistics.median(first) if first else 0.0
    metrics["trainer.warm_epoch_s"] = statistics.median(warm) if warm else 0.0
    metrics["trainer.skipped_batches"] = sum(
        getattr(result, "skipped_batches", 0) for _, _, _, result in epochs) / per
    waits = [wait for _, before, _, _ in g["serving.flush"].samples for wait in before]
    metrics["serving.queue_wait_p95_ms"] = percentile(waits, 95) * 1000.0
    compute = g["serving.compute"]
    metrics["serving.compute_busy_share"] = _ratio(compute.seconds, window_s)
    by_model: Dict[str, List[float]] = {}
    for args, _, elapsed, _ in compute.samples:
        by_model.setdefault(str(args[1]), []).append(elapsed)
    for key, model in (("serving.rank_compute_ms", "DEKG-ILP"),
                       ("serving.score_compute_ms", "TransE")):
        times = by_model.get(model, [])
        metrics[key] = statistics.median(times) * 1000.0 if times else 0.0
    return metrics


def _epoch_index(args) -> int:
    return int(args[1]) if len(args) > 1 else 0


def absent_metrics(tracer: Tracer) -> List[str]:
    """Metrics whose every probe path failed to resolve."""
    return [name for name, (_, group) in LAYER_METRICS.items()
            if group is not None and group not in tracer.resolved_groups]
