"""Supervised multiprocess task execution.

``multiprocessing.Pool.map`` has exactly the failure modes a long-running
system cannot afford: a killed worker leaves its task lost and the map hung
forever, a hung task blocks the barrier indefinitely, and an exception
tears down the whole run.  :class:`SupervisedPool` replaces the barrier with
an async dispatch loop that supervises every task individually:

* **per-task deadlines** — a task that does not finish inside
  ``RetryPolicy.timeout`` is declared failed and retried elsewhere (the
  result of a late straggler is discarded; tasks must be deterministic, so a
  duplicate result is by construction identical);
* **dead-worker detection** — workers announce ``(task, pid)`` on a start
  channel, and the supervisor polls the pool's worker liveness, so a
  ``SIGKILL``-ed worker fails *its* task immediately instead of waiting for
  the deadline (``multiprocessing.Pool`` respawns the worker, restoring
  capacity);
* **bounded retry with exponential backoff** — each failed task is
  resubmitted up to ``RetryPolicy.max_attempts`` total attempts, waiting
  ``backoff_base * 2**(attempt-1)`` (capped at ``backoff_max``) between
  attempts, with the attempt number threaded into the task so deterministic
  fault plans can target first attempts only;
* **graceful degradation** — a task that exhausts its pool attempts, and
  every task still unfinished once all pool slots are lost to hung workers,
  runs in-process through the caller's ``fallback`` — the run completes
  (slower) instead of hanging;
* **clean interruption** — ``KeyboardInterrupt`` terminates the pool (hung
  and healthy workers alike; nothing leaks), reports partial progress
  through ``on_interrupt``, and re-raises;
* **a BLAS thread budget** — workers compute at the same time, so each one
  starts with ``max(1, usable_cores() // processes)`` BLAS/OpenMP threads
  instead of one per core (see :func:`_worker_thread_budget`).

Results are collected into a list indexed by task order, so callers reduce
them exactly as they would a ``pool.map`` return — recovered runs are
bit-identical to failure-free ones as long as tasks are deterministic.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import fire

#: Sentinel distinguishing "no result yet" from a legitimate None result.
_PENDING = object()

#: Thread-count variables read by the BLAS/OpenMP runtimes numpy may load.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def worker_pids(pool) -> set:
    """Current worker pids of a ``multiprocessing.Pool``.

    Reads ``Pool`` internals (stable across CPython).  The pool's
    worker-handler thread reaps a dead worker and starts its replacement,
    so a killed worker's pid drops out of this set shortly after it dies.
    """
    try:
        return {process.pid for process in pool._pool}
    except AttributeError:  # pragma: no cover - future-proofing
        return set()


@contextmanager
def _worker_thread_budget(processes: int):
    """Give spawn workers started inside this block a BLAS thread budget.

    Every worker would otherwise start one BLAS thread per core, so
    ``processes`` concurrent workers oversubscribe the machine by that
    factor.  The budget ``max(1, usable_cores() // processes)`` goes into
    :data:`THREAD_VARIABLES` of the parent's environment for the duration
    of the block, because a spawn child inherits the environment at exec
    and loads OpenBLAS while it unpickles its initializer arguments, before
    any initializer code runs; workers the pool respawns inside the block
    inherit it too.  The parent loaded its BLAS long ago, so its own thread
    count is unaffected.  If the user set any of the variables, none is
    touched.
    """
    if any(name in os.environ for name in THREAD_VARIABLES):
        yield
        return
    budget = str(max(1, usable_cores() // processes))
    for name in THREAD_VARIABLES:
        os.environ[name] = budget
    try:
        yield
    finally:
        for name in THREAD_VARIABLES:
            os.environ.pop(name, None)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for one :class:`SupervisedPool` run."""

    timeout: Optional[float] = 300.0
    """Seconds one task attempt may run before being declared failed and
    reassigned (``None`` disables deadlines; dead-worker detection and
    error retry still apply)."""

    max_attempts: int = 3
    """Total pool attempts per task (first run + retries) before the task
    degrades to in-process execution."""

    backoff_base: float = 0.1
    """Delay before the first retry; doubles per subsequent attempt."""

    backoff_max: float = 5.0
    """Upper bound on the retry delay."""

    poll_interval: float = 0.02
    """Supervision loop sleep when nothing is ready."""

    def __post_init__(self):
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff(self, attempt: int) -> float:
        """Delay before submitting ``attempt`` (1-based retry counter)."""
        return min(self.backoff_max, self.backoff_base * (2.0 ** (attempt - 1)))


@dataclass
class TaskEvent:
    """One supervision event (failure, recovery, degradation) for reporting."""

    kind: str       #: "error" | "timeout" | "worker-died" | "fallback" | "retry"
    index: int
    attempt: int
    detail: str = ""


@dataclass
class _InFlight:
    handle: Any                      #: the AsyncResult
    attempt: int
    deadline: Optional[float]
    pid: Optional[int] = None


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
_CHANNEL = None


def _supervised_init(channel, initializer, initargs) -> None:
    """Pool initializer wrapper: stash the start channel, run the user's."""
    global _CHANNEL
    _CHANNEL = channel
    if initializer is not None:
        initializer(*initargs)


def _supervised_call(func, index: int, payload, attempt: int):
    """Announce (task, pid) on the start channel, then run the task."""
    if _CHANNEL is not None:
        _CHANNEL.put((index, attempt, os.getpid()))
    return func(index, payload, attempt)


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class SupervisedPool:
    """Run tasks across a spawn pool under a :class:`RetryPolicy`.

    ``initializer``/``initargs`` build per-worker state exactly as with a
    plain ``multiprocessing.Pool`` (they rerun when a dead worker is
    respawned, so replicas self-heal).  ``func(index, payload, attempt)``
    must be a picklable module-level callable returning a deterministic
    result for a given ``(index, payload)``.
    """

    def __init__(self, processes: int,
                 initializer: Optional[Callable] = None,
                 initargs: Tuple = (),
                 policy: Optional[RetryPolicy] = None,
                 resources: Sequence[Any] = ()):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy or RetryPolicy()
        self.events: List[TaskEvent] = []
        #: Shared resources (objects with ``release()``, e.g. shm
        #: :class:`~repro.shm.PageHandle` pages) whose lifecycle this pool
        #: owns: created by the caller before fan-out, released by
        #: :meth:`run` after the *entire* run — including the in-process
        #: fallback sweep, which may still attach to them — on every exit
        #: path: clean completion, Ctrl-C, dead-worker retries, errors.
        self._resources: List[Any] = list(resources)

    def release_resources(self) -> None:
        """Release owned shared resources (idempotent, best-effort)."""
        resources, self._resources = self._resources, []
        for resource in resources:
            try:
                resource.release()
            except Exception:  # teardown must not mask the run's outcome
                pass

    # ------------------------------------------------------------------ #
    def run(self, func: Callable, payloads: Sequence[Any],
            fallback: Callable[[int, Any], Any],
            on_event: Optional[Callable[[TaskEvent], None]] = None,
            on_interrupt: Optional[Callable[[int, int], None]] = None) -> List[Any]:
        """Execute every payload and return results in payload order.

        ``fallback(index, payload)`` runs a task in the parent process when
        the pool cannot be trusted with it any longer (attempts exhausted, or
        every slot lost to hung workers).  ``on_event`` observes supervision
        events as they happen; ``on_interrupt(completed, total)`` runs after
        pool teardown when the caller hits Ctrl-C.
        """
        try:
            total = len(payloads)
            results: List[Any] = [_PENDING] * total
            if total == 0:
                return []
            context = get_context("spawn")
            channel = context.SimpleQueue()

            def record(kind: str, index: int, attempt: int, detail: str = "") -> TaskEvent:
                event = TaskEvent(kind=kind, index=index, attempt=attempt, detail=detail)
                self.events.append(event)
                if on_event is not None:
                    on_event(event)
                return event

            try:
                with _worker_thread_budget(self.processes):
                    pool = context.Pool(processes=self.processes,
                                        initializer=_supervised_init,
                                        initargs=(channel, self.initializer,
                                                  self.initargs))
                    try:
                        self._supervise(pool, channel, func, payloads,
                                        results, fallback, record)
                    finally:
                        # terminate(), not close(): hung workers never drain
                        # a task queue, and a killed run must not leak spawn
                        # children.  join() also stops the pool's respawns.
                        pool.terminate()
                        pool.join()
            except KeyboardInterrupt:
                if on_interrupt is not None:
                    completed = sum(1 for r in results if r is not _PENDING)
                    on_interrupt(completed, total)
                raise
            # Anything the supervision loop gave up on runs in-process, in task
            # order, so the result list is always complete and ordered.  This
            # sweep may still attach to owned resources (an shm-backed
            # fallback replica), which is why release happens after it.
            for index in range(total):
                if results[index] is _PENDING:
                    record("fallback", index, 0, "pool unavailable; ran in-process")
                    results[index] = fallback(index, payloads[index])
            return results
        finally:
            self.release_resources()

    # ------------------------------------------------------------------ #
    def _supervise(self, pool, channel, func, payloads, results,
                   fallback, record) -> int:
        """The dispatch loop; returns the number of completed tasks."""
        policy = self.policy
        total = len(payloads)
        pending: List[int] = list(range(total))      # awaiting first submission
        waiting: List[Tuple[float, int, int]] = []   # (not_before, index, attempt)
        inflight: Dict[int, _InFlight] = {}
        #: Worker pids believed hung (their slot is unusable until proven
        #: alive again by a fresh task announcement).
        lost_pids: set = set()
        #: Timed-out attempts whose worker pid was never learned; each costs
        #: one slot of assumed capacity.
        anonymous_losses = 0
        completed = 0
        tick = 0
        known_pids = worker_pids(pool)

        def live_slots() -> int:
            return self.processes - len(lost_pids) - anonymous_losses

        def handle_failure(index: int, attempt: int, kind: str, detail: str) -> None:
            record(kind, index, attempt, detail)
            next_attempt = attempt + 1
            if next_attempt < policy.max_attempts and live_slots() > 0:
                delay = policy.backoff(next_attempt)
                record("retry", index, next_attempt,
                       f"resubmitting in {delay:.2f}s")
                waiting.append((time.monotonic() + delay, index, next_attempt))
            else:
                record("fallback", index, attempt,
                       "pool attempts exhausted; running in-process")
                results[index] = fallback(index, payloads[index])

        while completed < total:
            fire("supervisor", tick)
            tick += 1
            progressed = False
            now = time.monotonic()

            # Promote backed-off retries whose delay has elapsed.
            due = [entry for entry in waiting if entry[0] <= now]
            if due:
                waiting[:] = [entry for entry in waiting if entry[0] > now]
                for _, index, attempt in due:
                    self._submit(pool, inflight, func, payloads, index, attempt)
                    progressed = True

            # First submissions, capped at the believed-live slot count so
            # deadlines measure running time, not queue time.
            while pending and live_slots() > 0 and len(inflight) < live_slots():
                index = pending.pop(0)
                self._submit(pool, inflight, func, payloads, index, 0)
                progressed = True

            # Drain start announcements: map in-flight tasks to worker pids,
            # and un-lose any pid that proves itself alive again.
            while not channel.empty():
                index, attempt, pid = channel.get()
                lost_pids.discard(pid)
                entry = inflight.get(index)
                if entry is not None and entry.attempt == attempt:
                    entry.pid = pid
                progressed = True

            # Dead-worker detection: a pid that vanished from the pool took
            # its in-flight task with it.  The pool respawns the worker, so
            # capacity is not decremented.
            current_pids = worker_pids(pool)
            dead = known_pids - current_pids
            known_pids = current_pids
            if dead:
                lost_pids -= dead
                for index in [i for i, entry in inflight.items()
                              if entry.pid in dead]:
                    entry = inflight.pop(index)
                    handle_failure(index, entry.attempt, "worker-died",
                                   f"worker pid {entry.pid} died")
                    progressed = True

            # Completions and worker-raised errors.
            for index in [i for i, entry in inflight.items()
                          if entry.handle.ready()]:
                entry = inflight.pop(index)
                progressed = True
                try:
                    value = entry.handle.get(0)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    handle_failure(index, entry.attempt, "error", repr(exc))
                    continue
                if results[index] is _PENDING:
                    results[index] = value

            # Deadlines: a silent task past its deadline is presumed hung;
            # its worker (when known) is written off as a lost slot.
            if policy.timeout is not None:
                now = time.monotonic()
                for index in [i for i, entry in inflight.items()
                              if entry.deadline is not None and now > entry.deadline]:
                    entry = inflight.pop(index)
                    if entry.pid is not None:
                        lost_pids.add(entry.pid)
                    else:
                        anonymous_losses += 1
                    handle_failure(index, entry.attempt, "timeout",
                                   f"no result within {policy.timeout:.1f}s")
                    progressed = True

            completed = sum(1 for value in results if value is not _PENDING)
            if completed >= total:
                break

            if live_slots() <= 0:
                # Every pool slot is written off as hung: nothing submitted
                # from here on would ever start.  Degrade the rest of the
                # run to in-process execution (run() sweeps up everything
                # still _PENDING, including tasks stuck in flight).
                break

            if not progressed:
                time.sleep(policy.poll_interval)
        return sum(1 for value in results if value is not _PENDING)

    # ------------------------------------------------------------------ #
    def _submit(self, pool, inflight, func, payloads, index: int, attempt: int) -> None:
        deadline = (time.monotonic() + self.policy.timeout
                    if self.policy.timeout is not None else None)
        handle = pool.apply_async(_supervised_call,
                                  (func, index, payloads[index], attempt))
        inflight[index] = _InFlight(handle=handle, attempt=attempt, deadline=deadline)
