"""Fault-tolerant execution substrate.

Three building blocks the rest of the repo composes:

* :mod:`repro.resilience.atomic` — torn-write-proof artifact persistence
  (``tmp + fsync + os.replace``), used by checkpoints, training journals,
  ``metrics.json``/``config.json`` and the benchmark histories;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS``) that makes specific shards raise/hang/die and
  corrupts checkpoint bytes on demand, so every recovery path in this
  package is exercised reproducibly in CI;
* :mod:`repro.resilience.supervisor` — supervised async pool execution
  with per-task deadlines, dead-worker detection, bounded backoff retry,
  in-process degradation and a per-worker BLAS thread budget, which
  :mod:`repro.eval.sharding` runs on.

``python -m repro.resilience.chaos`` is the CI chaos drill: sharded
evaluation under an injected worker kill and shard hang must produce
metrics bit-identical to the fault-free sequential run.
"""

from repro.resilience.atomic import (atomic_write_bytes, atomic_write_json,
                                     atomic_write_text)
from repro.resilience.faults import (FaultInjected, FaultPlan, FaultSpec,
                                     active_plan, fire, install_fault_plan,
                                     mangle, reset_fault_state)
from repro.resilience.supervisor import (RetryPolicy, SupervisedPool, TaskEvent,
                                         usable_cores)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "fire",
    "install_fault_plan",
    "mangle",
    "reset_fault_state",
    "RetryPolicy",
    "SupervisedPool",
    "TaskEvent",
    "usable_cores",
]
