"""Request coalescing under a latency budget, with bit-identity guarantees.

Concurrent clients of the scoring daemon submit independent requests; each
request is a list of triples for one model and resolves through a
:class:`concurrent.futures.Future`.  The coalescer accumulates submissions
in a queue and flushes them on a single worker thread when either side of
the latency budget trips: the oldest request has waited ``max_wait_ms``, or
``max_batch`` triples are pending.  Serializing all model compute onto the
flush thread is also what makes the daemon safe for thread-per-connection
transports — the models themselves are never entered concurrently.

**The unit of compute is the request.**  Subgraph/convolution models
(DEKG-ILP family, Grail, TACT, ConvE) are *not* bitwise invariant to batch
composition — BLAS selects different GEMM kernels for different union-graph
row counts, shifting scores by an ulp — so fusing two of their requests
into one ``score_many`` call would break the daemon's bit-identity-to-
sequential guarantee.  Requests for such models execute as exactly the
``score_many`` composition the client submitted.  Models whose registry
spec declares ``batch_invariant_scoring`` (elementwise scorers: TransE,
RotatE, DistMult, ComplEx, HolE, ProjE, SimplE, GEN, RuleN) may be fused:
adjacent same-model requests concatenate into one call, capped at
``max_batch`` triples, and the result is sliced back per request —
bit-identical either way, but one model entry instead of N.  If a fused
call raises, each of its requests re-runs alone (counted as
``split_groups``), so one bad request fails only itself.

**Backpressure.**  With ``max_pending`` set, ``submit`` rejects new
requests with :class:`ServiceOverloaded` once that many are already
queued, instead of buffering without bound when arrivals outrun the
latency budget.  The daemon surfaces the rejection as a structured
``overloaded`` error response and counts it in telemetry
(``rejected_requests``); already-queued requests are unaffected.

Fault sites (see :mod:`repro.resilience.faults`): ``serve_flush`` fires at
the start of flush *N* (attempt 0).  A ``raise`` degrades that flush to
per-request execution — every future still resolves, scores unchanged; a
``hang`` delays the flush without changing any result.  The retry path
re-fires with attempt 1, so single-attempt specs degrade exactly one flush.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.kg.triple import Triple
from repro.resilience import FaultInjected, fire

#: Fault site fired once per flush, indexed by flush ordinal.
FLUSH_FAULT_SITE = "serve_flush"


@dataclass
class _Pending:
    """One submitted request waiting in the queue."""

    model: str
    triples: List[Triple]
    future: Future
    enqueued_at: float


class CoalescerClosed(RuntimeError):
    """Raised by ``submit`` after ``close()``; no future is ever created."""


class ServiceOverloaded(RuntimeError):
    """Raised by ``submit`` when the bounded pending queue is full.

    Connection-level backpressure: when arrivals outrun the latency budget,
    the queue stops growing at ``max_pending`` requests and the daemon
    answers a structured ``overloaded`` error instead of buffering without
    bound.  No future is created for a rejected request, so nothing leaks
    and nothing resolves late — the client retries or backs off.
    """


class RequestCoalescer:
    """Queue + flush thread turning concurrent requests into batched compute.

    ``score_fn(model, triples)`` performs the actual scoring (the service
    binds it to the loaded models) and must return one score per triple;
    ``fusable(model)`` says whether cross-request fusion preserves bitwise
    results for that model (the service answers from the registry's
    ``batch_invariant_scoring`` flag).
    """

    def __init__(self, score_fn: Callable[[str, List[Triple]], Sequence[float]],
                 *, max_batch: int = 64, max_wait_ms: float = 2.0,
                 fusable: Optional[Callable[[str], bool]] = None,
                 max_pending: Optional[int] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self._score_fn = score_fn
        self._fusable = fusable if fusable is not None else (lambda model: False)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: List[_Pending] = []
        self._queued_triples = 0
        self._flushing = False
        self._closed = False
        # telemetry (guarded by _lock)
        self._flushes = 0
        self._degraded_flushes = 0
        self._split_groups = 0
        self._requests = 0
        self._rejected_requests = 0
        self._fused_requests = 0
        self._request_histogram: Dict[int, int] = {}
        self._triple_histogram: Dict[int, int] = {}
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serving-flush", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ #
    def submit(self, model: str, triples: Sequence[Triple]) -> Future:
        """Enqueue one request; the future resolves to its list of scores."""
        request = _Pending(model=str(model), triples=list(triples),
                          future=Future(), enqueued_at=time.monotonic())
        with self._wake:
            if self._closed:
                raise CoalescerClosed("coalescer is closed; request rejected")
            if (self.max_pending is not None
                    and len(self._queue) >= self.max_pending):
                self._rejected_requests += 1
                raise ServiceOverloaded(
                    f"{len(self._queue)} requests pending (max_pending="
                    f"{self.max_pending}); retry with backoff")
            self._queue.append(request)
            self._queued_triples += len(request.triples)
            self._requests += 1
            self._wake.notify_all()
        return request.future

    def drain(self) -> None:
        """Block until every submitted request has resolved."""
        with self._wake:
            self._wake.wait_for(lambda: not self._queue and not self._flushing)

    def close(self) -> None:
        """Reject new submissions, flush what is queued, stop the thread.

        Every request submitted before ``close`` resolves (drain-on-shutdown
        leaves no dropped futures); a submission racing past it raises
        :class:`CoalescerClosed` before any future exists.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._thread.join()

    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if not self._queue:  # closed and empty: done
                    return
                if not self._closed:
                    # Latency budget: flush when the oldest request has
                    # waited max_wait_ms or max_batch triples are pending.
                    deadline = self._queue[0].enqueued_at + self.max_wait_ms / 1000.0
                    while (not self._closed
                           and self._queued_triples < self.max_batch):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._wake.wait(timeout=remaining)
                batch = list(self._queue)
                self._queue.clear()
                self._queued_triples = 0
                self._flushing = True
            try:
                self._flush(batch)
            finally:
                with self._wake:
                    self._flushing = False
                    self._wake.notify_all()

    def _flush(self, batch: List[_Pending]) -> None:
        with self._lock:
            index = self._flushes
            self._flushes += 1
            self._request_histogram[len(batch)] = (
                self._request_histogram.get(len(batch), 0) + 1)
            total = sum(len(request.triples) for request in batch)
            self._triple_histogram[total] = self._triple_histogram.get(total, 0) + 1
        try:
            try:
                fire(FLUSH_FAULT_SITE, index)
            except FaultInjected:
                # Degraded mode: no fusion, one score_fn call per request.
                # The per-request composition is exactly what the client
                # submitted, so every score stays bitwise correct — only
                # batching is lost.
                with self._lock:
                    self._degraded_flushes += 1
                fire(FLUSH_FAULT_SITE, index, attempt=1)
                for request in batch:
                    self._execute([request])
                return
            for group in self._group(batch):
                self._execute(group)
        except BaseException as error:  # noqa: BLE001
            # Safety net: a fault firing on the degraded path (attempt 1) or
            # an injected interrupt must not kill the flush thread — every
            # unresolved future gets the error instead of being dropped.
            for request in batch:
                if request.future.done():
                    continue
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(error)

    def _group(self, batch: List[_Pending]) -> List[List[_Pending]]:
        """FIFO grouping: fuse runs of same-model batch-invariant requests.

        Fusion never exceeds ``max_batch`` triples per call and never
        crosses a non-fusable request — those form singleton groups whose
        call composition is the request itself.
        """
        groups: List[List[_Pending]] = []
        group_triples = 0
        for request in batch:
            if (groups and self._fusable(request.model)
                    and groups[-1][0].model == request.model
                    and self._fusable(groups[-1][0].model)
                    and group_triples + len(request.triples) <= self.max_batch):
                groups[-1].append(request)
                group_triples += len(request.triples)
            else:
                groups.append([request])
                group_triples = len(request.triples)
        return groups

    def _execute(self, group: List[_Pending]) -> None:
        triples: List[Triple] = []
        for request in group:
            triples.extend(request.triples)
        try:
            scores = self._score_fn(group[0].model, triples)
        except BaseException as error:  # noqa: BLE001 — futures carry it
            if len(group) > 1 and isinstance(error, Exception):
                # One request's bad input must fail only that request: re-run
                # each request of the group alone, as a degraded flush does.
                with self._lock:
                    self._split_groups += 1
                for request in group:
                    self._execute([request])
                return
            for request in group:
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(error)
            return
        if len(group) > 1:
            with self._lock:
                self._fused_requests += len(group)
        offset = 0
        for request in group:
            take = len(request.triples)
            if not request.future.set_running_or_notify_cancel():
                offset += take
                continue
            request.future.set_result([float(score)
                                       for score in scores[offset:offset + take]])
            offset += take

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Telemetry snapshot: flush counts and coalesced-batch histograms."""
        with self._lock:
            return {
                "requests": self._requests,
                "rejected_requests": self._rejected_requests,
                "flushes": self._flushes,
                "degraded_flushes": self._degraded_flushes,
                "split_groups": self._split_groups,
                "fused_requests": self._fused_requests,
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait_ms,
                "max_pending": self.max_pending,
                "requests_per_flush": {str(size): count for size, count
                                       in sorted(self._request_histogram.items())},
                "triples_per_flush": {str(size): count for size, count
                                      in sorted(self._triple_histogram.items())},
            }
