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
* **an unstartable pool degrades too** — workers that die before starting
  any task (a caller script without an ``if __name__ == "__main__":``
  guard re-runs itself in every worker, which then dies while
  bootstrapping, and the pool respawns it forever) are counted; after
  ``processes`` such deaths with no task started the pool is torn down and
  the run completes in-process with a ``RuntimeWarning``;
* **preloaded workers** — on Linux, workers are forked from a server that
  imported :data:`repro.eval.sharding.WORKER_PRELOAD` once per process,
  instead of each booting an interpreter and importing it again (``spawn``
  remains elsewhere); every worker runs with the caller's environment as it
  was when the pool started;
* **a BLAS thread budget** — workers compute at the same time, so each one
  runs one BLAS/OpenMP thread instead of one per core (see
  :func:`_worker_thread_budget`).

Results are collected into a list indexed by task order, so callers reduce
them exactly as they would a ``pool.map`` return — recovered runs are
bit-identical to failure-free ones as long as tasks are deterministic.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import fire

#: Sentinel distinguishing "no result yet" from a legitimate None result.
_PENDING = object()

#: How pools start their workers: forked from a preloaded server on Linux,
#: else a fresh interpreter each.  macOS has a fork server too, but CPython
#: defaults it to spawn because forking after system frameworks have loaded
#: is unsafe, and the server loads numpy (perhaps on Accelerate) and scipy;
#: it stays on spawn until that has been tested.
START_METHOD = "forkserver" if sys.platform.startswith("linux") else "spawn"

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
def _worker_thread_budget():
    """Give workers started inside this block one BLAS thread each.

    Concurrent workers would otherwise each start one BLAS thread per core.
    The budget goes into :data:`THREAD_VARIABLES` of the parent's
    environment for the duration of the block.  BLAS reads them once, when
    numpy loads it: under ``forkserver`` in the server, which the process's
    first pool starts and whose thread count every later worker inherits,
    whatever its pool's size (hence one thread, not a share of the cores);
    under ``spawn`` in each worker, respawned ones included.  The parent's
    own BLAS, loaded long ago, keeps its thread count.  If the user set any
    of the variables, none is touched; under ``forkserver`` their values,
    too, count as they were when the server started.
    """
    if any(name in os.environ for name in THREAD_VARIABLES):
        yield
        return
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    try:
        yield
    finally:
        for name in THREAD_VARIABLES:
            os.environ.pop(name, None)


@contextmanager
def _server_import_path():
    """Give a fork server started inside this block the parent's ``sys.path``.

    CPython 3.10 and 3.11's ``forkserver.main`` never applies the
    ``sys_path`` it is handed and swallows each preload's ``ImportError``,
    so a package found only through an entry added to ``sys.path`` at run
    time (an uninstalled checkout, perfbench) would silently not be
    preloaded.  The server's interpreter reads ``PYTHONPATH`` when it
    starts instead.
    """
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(str(entry) for entry in sys.path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = previous


def _worker_context():
    """The context a pool starts its workers from, its fork server running.

    The server is started at most once per process (again only if it died),
    with the environment of the caller's first pool, and then imports
    :data:`repro.eval.sharding.WORKER_PRELOAD`.
    """
    context = get_context(START_METHOD)
    if START_METHOD == "forkserver":
        from multiprocessing import forkserver  # not paid by `import repro`

        from repro.eval.sharding import WORKER_PRELOAD  # it imports this module

        context.set_forkserver_preload(list(WORKER_PRELOAD))
        with _server_import_path():
            forkserver.ensure_running()
    return context


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

    #: "error" | "timeout" | "worker-died" | "fallback" | "retry" |
    #: "pool-unstartable" (index -1: the pool as a whole)
    kind: str
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


def _supervised_init(channel, environment, initializer, initargs) -> None:
    """Pool initializer wrapper: install the caller's environment, stash the
    start channel, run the user's.

    A forked worker inherits the fork server's environment, fixed when the
    server started; ``environment`` is the caller's at this pool's start,
    so a ``REPRO_FAULTS`` plan armed since then still fires.
    """
    global _CHANNEL
    _CHANNEL = channel
    os.environ.clear()
    os.environ.update(environment)
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
    """Run tasks across a worker pool under a :class:`RetryPolicy`.

    ``initializer``/``initargs`` build per-worker state exactly as with a
    plain ``multiprocessing.Pool`` (they rerun when a dead worker is
    respawned, so replicas self-heal).  ``func(index, payload, attempt)``
    must be a picklable module-level callable returning a deterministic
    result for a given ``(index, payload)``.

    Each :meth:`run` creates its pool and terminates it before returning,
    so no worker outlives a run.  Workers start by :data:`START_METHOD`.
    Under ``forkserver`` the process's first run starts the server, which
    imports :data:`repro.eval.sharding.WORKER_PRELOAD` and stays up, idle,
    until this process exits; later runs fork their workers from it.  Each
    worker runs with the caller's ``os.environ`` as it was when its pool
    started, plus the thread budget, but numpy's BLAS thread count and
    anything else a preloaded module read at import are fixed by the
    environment the server started with.
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

            def record(kind: str, index: int, attempt: int, detail: str = "") -> TaskEvent:
                event = TaskEvent(kind=kind, index=index, attempt=attempt, detail=detail)
                self.events.append(event)
                if on_event is not None:
                    on_event(event)
                return event

            try:
                with _worker_thread_budget():
                    environment = dict(os.environ)
                    context = _worker_context()
                    channel = context.SimpleQueue()
                    pool = context.Pool(processes=self.processes,
                                        initializer=_supervised_init,
                                        initargs=(channel, environment,
                                                  self.initializer, self.initargs))
                    try:
                        self._supervise(pool, channel, func, payloads,
                                        results, fallback, record)
                    finally:
                        # terminate(), not close(): hung workers never drain
                        # a task queue, and a killed run must not leak
                        # workers.  join() also stops the pool's respawns.
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
        #: Whether any worker announced a task this run, and how many
        #: workers died before one did (startup failures).
        announced = False
        startup_deaths = 0
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

            # Poll worker liveness before draining announcements: a worker
            # announces before it runs a task, so every announcement of a
            # worker found dead here is already in the channel.
            current_pids = worker_pids(pool)
            dead = known_pids - current_pids
            known_pids = current_pids

            # Drain start announcements: map in-flight tasks to worker pids,
            # and un-lose any pid that proves itself alive again.
            while not channel.empty():
                index, attempt, pid = channel.get()
                announced = True
                lost_pids.discard(pid)
                entry = inflight.get(index)
                if entry is not None and entry.attempt == attempt:
                    entry.pid = pid
                progressed = True

            # Dead-worker detection: a pid that vanished from the pool took
            # its in-flight task with it.  The pool respawns the worker, so
            # capacity is not decremented.
            if dead:
                lost_pids -= dead
                for index in [i for i, entry in inflight.items()
                              if entry.pid in dead]:
                    entry = inflight.pop(index)
                    handle_failure(index, entry.attempt, "worker-died",
                                   f"worker pid {entry.pid} died")
                    progressed = True
                if not announced:
                    startup_deaths += len(dead)
                    if startup_deaths >= self.processes:
                        # Each respawn dies the same way, so the pool would
                        # never start a task.  run() tears it down and
                        # sweeps every unfinished task in-process.
                        record("pool-unstartable", -1, 0,
                               f"{startup_deaths} workers died before starting a task")
                        warnings.warn(
                            f"{startup_deaths} pool workers died before starting "
                            "a task, so the rest of this run executes in-process. "
                            "A script that starts worker processes must do so "
                            "under an `if __name__ == \"__main__\":` guard: workers "
                            "import the main module, and without the guard each "
                            "one re-runs the script and dies.",
                            RuntimeWarning, stacklevel=3)
                        break

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
