"""Multi-process serving replicas over shared-memory pages.

The PR 9 serving daemon batches concurrent connections onto one coalescer
flush thread, but all compute still runs in the daemon process.  A
:class:`ReplicaPool` moves the scoring itself into ``replicas`` spawned
worker processes behind that same coalescer: each flushed batch dispatches
to a replica, and the replicas share **one** CSR graph page plus one
read-only parameter page per model (see :mod:`repro.shm`), so adding a
replica costs a few page mappings — not another copy of the model and
graph.

Bit-identity is inherited, not re-proven: a replica restores its model
through the same :class:`~repro.eval.sharding.ReplicaSpec` machinery the
evaluation shards use (checkpoint round-trip or zero-copy page adoption,
both exact), binds the same frozen CSR snapshot, and executes exactly the
``score_many`` composition the coalescer hands it — so replica responses
equal the in-process path bit for bit, and the serving equivalence gates
stay hard.

Lifecycle mirrors :class:`~repro.resilience.SupervisedPool`: the pool owns
its pages — created before the replicas spawn, released on ``close()``
(idempotent, runs on daemon shutdown, Ctrl-C, and ``with`` exit alike) —
so no named segment survives the daemon.

A replica that dies mid-request fails only that request: ``score`` waits
in short polls, learns which replica took the request from a start
channel, and raises :class:`ReplicaDied` once that pid leaves the pool
(``multiprocessing.Pool`` itself never completes a task whose worker was
killed).  The pool respawns the replica, which rebuilds its models from
the still-live pages on its next request.  Fault site ``replica`` fires in
the replica at the start of dispatch *N*, after the announcement.

Models that cannot be shipped to a worker (unregistered and unpicklable,
registered with ``supports_sharded_eval=False``, or still in training
mode — a replica cannot reproduce mid-stream dropout draws) simply stay
in-process: :meth:`ReplicaPool.serves` tells the service which names route
to replicas, and the rest score on the flush thread as before.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.eval.sharding import ReplicaSpec, make_shm_model_spec, restore_model
from repro.kg.graph import GraphPageSpec, KnowledgeGraph, graph_from_shm, graph_to_shm
from repro.kg.triple import Triple
from repro.resilience import fire
from repro.resilience.supervisor import worker_pids
from repro.shm import PageHandle, shm_enabled

#: Telemetry key space kept intentionally small; see :meth:`ReplicaPool.stats`.
_GraphRef = Union[KnowledgeGraph, GraphPageSpec]

#: Fault site fired in the replica once per dispatch, indexed by dispatch.
REPLICA_FAULT_SITE = "replica"
#: Seconds between liveness checks while a request is in flight.
_POLL_SECONDS = 0.05


class ReplicaDied(RuntimeError):
    """The replica scoring a request died before answering it.

    Only that request fails; the pool respawns the replica and later
    requests are served as usual.
    """


# --------------------------------------------------------------------- #
# replica (worker) side
# --------------------------------------------------------------------- #
#: (specs, graph_ref) stashed by the initializer, and the live
#: {name: model} map built from it lazily on the replica's first request —
#: lazy for the same reason the eval shards attach lazily: an attach
#: failure must surface as a request error, not an initializer crash loop.
_REPLICA_ARGS = None
_REPLICA_MODELS = None
#: Start channel on which a replica announces ``(dispatch, pid)``.
_REPLICA_CHANNEL = None


def _init_replica(specs: Dict[str, ReplicaSpec], graph_ref: _GraphRef,
                  channel) -> None:
    global _REPLICA_ARGS, _REPLICA_MODELS, _REPLICA_CHANNEL
    _REPLICA_ARGS = (specs, graph_ref)
    _REPLICA_MODELS = None
    _REPLICA_CHANNEL = channel


def _ensure_replica_models() -> Dict[str, Any]:
    global _REPLICA_MODELS
    if _REPLICA_MODELS is None:
        specs, graph_ref = _REPLICA_ARGS
        if isinstance(graph_ref, GraphPageSpec):
            graph_ref = graph_from_shm(graph_ref)
        models: Dict[str, Any] = {}
        for name, spec in specs.items():
            model = restore_model(spec)
            model.set_context(graph_ref)
            models[name] = model
        _REPLICA_MODELS = models
    return _REPLICA_MODELS


def _replica_score(index: int, name: str,
                   triples: List[Tuple[int, int, int]]) -> List[float]:
    """Score dispatch ``index`` in the replica (exact submitted composition)."""
    _REPLICA_CHANNEL.put((index, os.getpid()))
    fire(REPLICA_FAULT_SITE, index)
    models = _ensure_replica_models()
    scores = models[name].score_many([Triple(*t) for t in triples])
    return [float(score) for score in scores]


# --------------------------------------------------------------------- #
# daemon (parent) side
# --------------------------------------------------------------------- #
class ReplicaPool:
    """Spawned scoring replicas sharing one graph page + parameter pages.

    ``score(name, triples)`` blocks until a replica returns, or raises
    :class:`ReplicaDied` if that replica dies first — it is called from the
    coalescer's flush thread, which is the serialization point, so the pool
    adds process isolation and shared-page memory behaviour without
    changing request ordering or scores.
    """

    def __init__(self, models: Mapping[str, Any], graph: KnowledgeGraph,
                 replicas: int):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._handles: List[PageHandle] = []
        self._specs: Dict[str, ReplicaSpec] = {}
        self._dispatched = 0
        self._lost = 0
        self._pool = None
        self._channel = None

        graph_ref: _GraphRef = graph
        try:
            if shm_enabled():
                try:
                    graph_spec, graph_handle = graph_to_shm(graph)
                except Exception as exc:
                    warnings.warn(
                        f"shared-memory graph export failed ({exc!r}); "
                        "replicas will deserialize the pickled graph",
                        RuntimeWarning, stacklevel=2)
                else:
                    self._handles.append(graph_handle)
                    graph_ref = graph_spec
            for name, model in models.items():
                if getattr(model, "training", False):
                    # Same rule as sharded evaluation: training-mode dropout
                    # draws come from a mid-stream RNG no replica can
                    # reproduce, so shipping would silently break the
                    # bit-identity guarantee.  The model keeps scoring on
                    # the flush thread instead.
                    warnings.warn(
                        f"model {name!r} is in training mode and stays "
                        "in-process (call model.eval() to serve it from "
                        "replicas)", RuntimeWarning, stacklevel=2)
                    continue
                try:
                    spec, handle = make_shm_model_spec(model)
                except Exception as exc:
                    warnings.warn(
                        f"model {name!r} cannot be shipped to serving replicas "
                        f"({exc!r}); it stays in-process", RuntimeWarning,
                        stacklevel=2)
                    continue
                if handle is not None:
                    self._handles.append(handle)
                self._specs[name] = spec
            if not self._specs:
                raise ValueError(
                    "no served model can be shipped to replicas; "
                    "run without --replicas")
            from multiprocessing import get_context

            context = get_context("spawn")
            self._channel = context.SimpleQueue()
            # No BLAS thread budget (unlike SupervisedPool): the coalescer's
            # single flush thread dispatches one request at a time, so
            # replicas never compute concurrently and each may use every core.
            self._pool = context.Pool(processes=self.replicas,
                                      initializer=_init_replica,
                                      initargs=(self._specs, graph_ref,
                                                self._channel))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    def serves(self, name: str) -> bool:
        """Whether requests for model ``name`` route to the replicas."""
        return self._pool is not None and name in self._specs

    def score(self, name: str, triples: Sequence[Triple]) -> List[float]:
        """Dispatch one coalesced group to a replica and return its scores."""
        if self._pool is None:
            raise RuntimeError("replica pool is closed")
        encoded = [triple.astuple() for triple in triples]
        index = self._dispatched
        self._dispatched += 1
        handle = self._pool.apply_async(_replica_score, (index, name, encoded))
        pid = None
        while True:
            handle.wait(_POLL_SECONDS)
            # Drained on every call: an announcement left in the pipe would
            # eventually fill it and block the replicas.
            while not self._channel.empty():
                announced, announcer = self._channel.get()
                if announced == index:
                    pid = announcer
            if handle.ready():
                return handle.get()
            if pid is not None and pid not in worker_pids(self._pool):
                # A result sent just before the death may still be in
                # transit: give it one more poll before declaring it lost.
                handle.wait(_POLL_SECONDS)
                if not handle.ready():
                    self._lost += 1
                    raise ReplicaDied(
                        f"replica pid {pid} died while scoring dispatch "
                        f"{index} ({len(encoded)} triples)")

    def stats(self) -> Dict[str, Any]:
        return {
            "replicas": self.replicas,
            "models": sorted(self._specs),
            "dispatched_batches": self._dispatched,
            "lost_batches": self._lost,
            "shared_pages": len(self._handles),
        }

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Terminate the replicas and release every shared page (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        handles, self._handles = self._handles, []
        for handle in handles:
            try:
                handle.release()
            except Exception:  # teardown must not mask the daemon's exit
                pass

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # belt and braces; close() is the contract
        try:
            self.close()
        except Exception:
            pass
