"""Multiprocess evaluation sharding.

The filtered-ranking work list — every (test triple, prediction form) pair —
is embarrassingly parallel: items share no state beyond the read-only context
graph and candidate pools, and per-model subgraph caches shard cleanly
because each worker holds its own model replica.  This module fans contiguous
slices of the work list out across ``multiprocessing`` workers and reduces
the per-shard :class:`~repro.eval.evaluator.EvaluationResult` partials back
into one result.

Three properties make the fan-out deterministic and spawn-safe:

* **Counter-seeded candidate draws.**  Corruptions are a pure function of
  ``(seed, triple_index, form_index)`` (see
  :func:`repro.eval.ranking.candidate_rng`), so a shard ranks the same
  candidates no matter which worker runs it, or whether it runs in-process.
* **Contiguous shards, ordered reduce.**  Shards are contiguous slices of
  the triple-major work list and are merged left-to-right, so the reduced
  rank lists — and therefore every metric, bit for bit — equal the
  sequential run's.
* **Replicas travel as shared pages (or bytes), never live objects.**  When
  shared memory is enabled (:func:`repro.shm.shm_enabled`, the default on
  Linux), the parent lays the model's parameter arrays and the context
  graph's frozen CSR snapshot into read-only shared pages once; workers
  **attach** — zero-copy ``np.ndarray`` views over the segment, adopted
  via :func:`repro.autodiff.module.shared_parameter_load` and
  :class:`repro.kg.graph.SharedGraphView` — so per-worker startup cost
  drops from O(model + graph) deserialization to a few page mappings.
  With shm disabled/unavailable (``REPRO_SHM=off``, non-Linux), or for
  models whose state is not arrays (RuleN's rule list), the byte path
  remains: Checkpointable models round-trip through the npz checkpoint
  format, anything else pickles.  Both paths restore bit-identical
  replicas, so they are freely interchangeable.  Workers rebuild the
  replica lazily on their first shard and re-bind the context graph with
  ``set_context``.  Subgraph-provider state never travels either: a
  replica's constructor builds a fresh, empty
  :class:`repro.subgraph.provider.SubgraphProvider` from the checkpointed
  config (its capacity), so each worker's cache warms on its own shards —
  per-model caches shard cleanly because caches only change wall clock,
  never scores.

Shared-page lifecycle is owned by the :class:`SupervisedPool`: pages are
created before fan-out and released (unlinked) after the entire run —
clean completion, Ctrl-C, dead-worker retries, and the in-process fallback
sweep alike — so no named segment ever outlives an evaluation.  The
``shm_attach`` fault site (:data:`repro.shm.ATTACH_FAULT_SITE`) fires in
workers right before they attach, so chaos plans can drill exactly these
teardown paths.

Execution is **supervised**, not a bare ``pool.map``: shards dispatch
asynchronously through :class:`repro.resilience.supervisor.SupervisedPool`
under per-shard deadlines, dead-worker detection and bounded backoff retry.
A shard whose worker is killed is reassigned; a shard that exhausts its pool
attempts — or every shard left once all workers are written off as hung —
runs in-process on a parent-side replica.  Because shard results are
deterministic, every recovery path yields metrics bit-identical to the
failure-free run; the ordered reduce is untouched.  ``KeyboardInterrupt``
terminates the pool (no leaked workers) and reports partial progress
before re-raising.

Workers are forked from a ``forkserver`` on Linux, and spawned elsewhere
(:data:`repro.resilience.supervisor.START_METHOD`).  The server is a fresh
interpreter that imports :data:`WORKER_PRELOAD` once per process, so each
evaluation's workers start with numpy, ``scipy.sparse`` and the model code
already loaded instead of importing them again; of the parent's state they
get only its environment.  Each evaluation still creates its own pool and
terminates it before returning.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.eval.evaluator import EvaluationResult, ShardWorkload
from repro.kg.graph import GraphPageSpec, KnowledgeGraph, graph_from_shm, graph_to_shm
from repro.resilience import RetryPolicy, SupervisedPool, TaskEvent, fire
from repro.shm import ATTACH_FAULT_SITE, PageHandle, shm_enabled

#: Shards per worker.  Item costs vary (subgraph sizes differ wildly between
#: hub and leaf entities), so handing each worker several smaller shards lets
#: the pool rebalance; contiguity per shard keeps the ordered reduce exact.
#: Smaller shards also bound the blast radius of a failure: a killed worker
#: or hung shard forfeits 1/(4·workers) of the run, not 1/workers.
SHARDS_PER_WORKER = 4

#: Fault-injection site fired at the start of every shard attempt
#: (worker-side); see :mod:`repro.resilience.faults`.
FAULT_SITE = "shard"


@dataclass(frozen=True)
class ReplicaSpec:
    """A picklable recipe for rebuilding one model replica in a worker."""

    kind: str
    """``"shm-params"`` (payload is a :class:`~repro.shm.PageSpec` naming a
    shared parameter page), ``"checkpoint"`` (payload is Checkpointable npz
    bytes) or ``"pickle"`` (payload is a pickled live object)."""

    payload: Any


def __getattr__(name: str):
    # Pre-registry name of ReplicaSpec; kept as a deprecated alias so it
    # cannot be confused with the unrelated repro.registry.ModelSpec.
    if name == "ModelSpec":
        warnings.warn(
            "repro.eval.sharding.ModelSpec was renamed to ReplicaSpec "
            "(repro.registry.ModelSpec is the registry entry, a different type)",
            DeprecationWarning, stacklevel=2)
        return ReplicaSpec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_model_spec(model) -> ReplicaSpec:
    """Serialize ``model`` into a spec a worker process can rebuild from.

    Checkpointable models go through the persistence checkpoint (exact
    parameter round-trip, no autodiff closures); everything else must
    pickle.  A registered-checkpointable model whose checkpoint serialization
    *fails* degrades to pickling with a warning naming the checkpoint error —
    and if pickling then fails too, the raised ``TypeError`` chains the
    original checkpoint failure instead of discarding it.  The caller
    (:meth:`Evaluator.evaluate`) guarantees the model is in eval mode: a
    training-mode model draws dropout from a mid-stream RNG that a freshly
    rebuilt replica cannot reproduce, which would silently break the
    bit-identity guarantee, so sharded evaluation refuses it up front.
    """
    from repro.core.persistence import Checkpointable, model_to_bytes
    from repro.registry import spec_for_class

    registered_spec = spec_for_class(type(model))
    if registered_spec is not None and not registered_spec.supports_sharded_eval:
        raise TypeError(
            f"model {registered_spec.name!r} is registered with "
            "supports_sharded_eval=False; evaluate with workers=1 instead")
    checkpoint_error: Optional[Exception] = None
    if isinstance(model, Checkpointable):
        # The worker rebuilds the replica by class name through the registry,
        # so the checkpoint path is only valid for classes the registry can
        # resolve back to exactly this type; an unregistered Checkpointable
        # subclass falls through to pickling.
        if registered_spec is not None and registered_spec.checkpointable:
            try:
                return ReplicaSpec(kind="checkpoint", payload=model_to_bytes(model))
            except Exception as exc:
                checkpoint_error = exc
                warnings.warn(
                    f"checkpoint serialization of {type(model).__name__} failed "
                    f"({exc!r}); falling back to pickling the live object",
                    RuntimeWarning, stacklevel=2)
    try:
        return ReplicaSpec(kind="pickle", payload=pickle.dumps(model))
    except Exception as exc:
        if checkpoint_error is not None:
            raise TypeError(
                f"cannot ship {type(model).__name__} to evaluation workers: "
                f"checkpoint serialization failed ({checkpoint_error!r}) and so "
                f"did the pickle fallback ({exc!r}); "
                f"evaluate with workers=1 instead") from checkpoint_error
        raise TypeError(
            f"cannot ship {type(model).__name__} to evaluation workers: it is "
            f"neither Checkpointable nor picklable ({exc}); "
            f"evaluate with workers=1 instead") from exc


def make_shm_model_spec(model) -> Tuple[ReplicaSpec, Optional[PageHandle]]:
    """Like :func:`make_model_spec`, preferring a shared parameter page.

    When shared memory is enabled and the model's state is parameter arrays,
    the arrays are laid into one read-only page and the returned spec
    carries only the (tiny) :class:`~repro.shm.PageSpec`; the accompanying
    :class:`~repro.shm.PageHandle` owns the segment and **must** be released
    by the caller after the last consumer detaches (hand it to
    :class:`~repro.resilience.SupervisedPool` via ``resources=``).

    Returns ``(spec, None)`` — the plain byte spec — when shm is disabled or
    unavailable, when the model's checkpoint state holds no arrays (RuleN's
    rules are header JSON, so a page would share nothing), or when page
    creation fails (degrades with a warning, never errors).
    """
    if shm_enabled():
        from repro.core.persistence import Checkpointable, params_to_shm
        from repro.registry import spec_for_class

        registered_spec = spec_for_class(type(model))
        if (isinstance(model, Checkpointable)
                and registered_spec is not None
                and registered_spec.checkpointable
                and registered_spec.supports_sharded_eval):
            try:
                if model.checkpoint_arrays():
                    handle = params_to_shm(model)
                    return ReplicaSpec(kind="shm-params", payload=handle.spec), handle
            except Exception as exc:
                warnings.warn(
                    f"shared-memory parameter page for {type(model).__name__} "
                    f"failed ({exc!r}); falling back to checkpoint bytes",
                    RuntimeWarning, stacklevel=2)
    return make_model_spec(model), None


def restore_model(spec: ReplicaSpec):
    """Rebuild the replica described by ``spec`` (worker-side, eval mode)."""
    if spec.kind == "shm-params":
        from repro.core.persistence import params_from_shm

        model = params_from_shm(spec.payload)
    elif spec.kind == "checkpoint":
        from repro.core.persistence import model_from_bytes

        model = model_from_bytes(spec.payload)
    else:
        model = pickle.loads(spec.payload)
    if hasattr(model, "eval"):
        model.eval()
    return model


def contiguous_shards(num_items: int, num_shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_items)`` into at most ``num_shards`` contiguous ranges.

    Sizes differ by at most one and order is preserved, so concatenating the
    shard results reproduces the unsharded item order exactly.
    """
    num_shards = max(1, min(num_shards, num_items))
    base, extra = divmod(num_items, num_shards)
    bounds = []
    start = 0
    for index in range(num_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
#: (spec, workload, graph_ref) stashed by the pool initializer, and the
#: (model, workload) pair built from it lazily on the worker's first shard.
#: One per worker process, never shared.  A respawned worker (after a crash)
#: reruns the initializer, so replicas self-heal.  Replica construction is
#: *lazy* — in the first task, not the initializer — so an attach failure
#: (the ``shm_attach`` fault site, a vanished segment) surfaces as a task
#: error that flows through the supervisor's retry/fallback machinery,
#: instead of crash-looping the pool's worker respawn.
_WORKER_ARGS = None
_WORKER_STATE = None


def _init_worker(spec: ReplicaSpec,
                 workload: ShardWorkload,
                 graph_ref: Union[KnowledgeGraph, GraphPageSpec]) -> None:
    global _WORKER_ARGS, _WORKER_STATE
    _WORKER_ARGS = (spec, workload, graph_ref)
    _WORKER_STATE = None


def _ensure_worker_state(index: int, attempt: int):
    """Build (model, workload) on first use; attach to shared pages if named."""
    global _WORKER_STATE
    if _WORKER_STATE is None:
        spec, workload, graph_ref = _WORKER_ARGS
        if spec.kind == "shm-params" or isinstance(graph_ref, GraphPageSpec):
            fire(ATTACH_FAULT_SITE, index, attempt)
        model = restore_model(spec)
        if isinstance(graph_ref, GraphPageSpec):
            graph_ref = graph_from_shm(graph_ref)
        model.set_context(graph_ref)
        _WORKER_STATE = (model, workload)
    return _WORKER_STATE


#: Modules the fork server of :mod:`repro.resilience.supervisor` imports
#: once per process, for every ``SupervisedPool``, so that shard workers
#: start with them loaded: numpy, ``scipy.sparse`` (imported by the first
#: message-passing kernel call) and the repro modules a worker unpickles and
#: runs.  Never ``__main__``: the server would run the caller's script.
WORKER_PRELOAD = ("numpy", "scipy.sparse", "repro.eval.sharding",
                  "repro.core.model", "repro.baselines")


def _run_shard(index: int, bounds: Tuple[int, int], attempt: int) -> EvaluationResult:
    """Rank one shard.  ``REPRO_FAULTS`` specs at site ``shard`` fire here."""
    model, workload = _ensure_worker_state(index, attempt)
    fire(FAULT_SITE, index, attempt)
    return workload.run(model, bounds[0], bounds[1])


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def evaluate_sharded(model, workload: ShardWorkload, context_graph: KnowledgeGraph,
                     workers: int, policy: Optional[RetryPolicy] = None,
                     on_event: Optional[Callable[[TaskEvent], None]] = None,
                     on_interrupt: Optional[Callable[[int, int], None]] = None,
                     ) -> EvaluationResult:
    """Rank ``workload`` across ``workers`` processes and reduce the partials.

    The caller guarantees ``workers >= 2`` and a non-empty workload.  The
    model is serialized once; each worker rebuilds its replica in the pool
    initializer and then ranks several contiguous shards.  Dispatch runs
    under ``policy`` (default :class:`RetryPolicy`): failed/timed-out shards
    are retried with backoff, shards stranded by a dying pool run in-process
    on a parent-side replica, and results land in submission order, so the
    left-to-right merge yields rank lists identical to a sequential run even
    when shards were recovered.  ``on_interrupt(completed, total)`` observes
    partial progress when the run is interrupted (the pool is always torn
    down; workers never leak).
    """
    workers = min(workers, workload.num_items)

    # Shared pages (when enabled) are created here, before fan-out, and
    # owned by the SupervisedPool: released after the entire run, fallback
    # sweep included, on every exit path.  Page-creation failures degrade
    # to the byte/pickle path — the two are bit-identical by construction.
    resources: List[PageHandle] = []
    graph_ref: Union[KnowledgeGraph, GraphPageSpec] = context_graph
    if shm_enabled():
        try:
            graph_spec, graph_handle = graph_to_shm(context_graph)
        except Exception as exc:
            warnings.warn(
                f"shared-memory graph export failed ({exc!r}); shipping the "
                "pickled graph instead", RuntimeWarning, stacklevel=2)
        else:
            resources.append(graph_handle)
            graph_ref = graph_spec
    try:
        spec, params_handle = make_shm_model_spec(model)
    except BaseException:
        for handle in resources:
            handle.release()
        raise
    if params_handle is not None:
        resources.append(params_handle)

    bounds = contiguous_shards(workload.num_items, workers * SHARDS_PER_WORKER)

    # Parent-side replica for degraded (in-process) shard execution, built
    # lazily on first use from the same spec the workers got — the caller's
    # model object stays unmutated either way.  The parent already holds the
    # live context graph, so the fallback binds that, not a second mapping.
    replica_cell: List[object] = []

    def run_in_process(index: int, shard_bounds: Tuple[int, int]) -> EvaluationResult:
        if not replica_cell:
            replica = restore_model(spec)
            replica.set_context(context_graph)
            replica_cell.append(replica)
        return workload.run(replica_cell[0], shard_bounds[0], shard_bounds[1])

    supervisor = SupervisedPool(processes=workers, initializer=_init_worker,
                                initargs=(spec, workload, graph_ref),
                                policy=policy, resources=resources)
    partials = supervisor.run(_run_shard, bounds, run_in_process,
                              on_event=on_event, on_interrupt=on_interrupt)
    return reduce(lambda left, right: left.merge(right), partials)
