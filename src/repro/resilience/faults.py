"""Deterministic fault injection for chaos testing.

The execution layer is only fault-*tolerant* if its failure paths can be
exercised on demand, deterministically, in CI.  This module provides a
process-global :class:`FaultPlan` — parsed from the ``REPRO_FAULTS``
environment variable or installed programmatically — that makes a *specific*
unit of work misbehave in a *specific* way:

* ``shard:2:kill`` — the worker running shard 2 dies (``SIGKILL``) on its
  first attempt;
* ``shard:0:hang:30`` — shard 0 sleeps 30 s (past any per-shard deadline);
* ``shard:1:raise`` — shard 1 raises :class:`FaultInjected`;
* ``shard:*:hang:30`` — *every* shard hangs on its first attempt (pool
  exhaustion / in-process degradation drills);
* ``shard:1@1:raise`` — shard 1 raises on its first *retry* (attempt 1);
* ``epoch:3:raise`` — training crashes at the start of epoch 3;
* ``epoch:1:interrupt`` — simulates Ctrl-C at the start of epoch 1;
* ``supervisor:3:interrupt`` — simulates Ctrl-C in the parent's shard
  supervision loop, on its fourth poll tick;
* ``replica:0:kill`` — the serving replica scoring dispatch 0 dies;
* ``checkpoint:0:corrupt:512`` — flips the byte at offset 512 of the first
  checkpoint payload written to disk this process;
* ``checkpoint:0:truncate:100`` — truncates that payload to 100 bytes.

Faults are keyed by *identity* (site name + unit index + attempt number),
never by wall clock or execution interleaving, so a chaos run is exactly
reproducible: the same plan injects the same failures no matter how the pool
schedules work.  Retries carry an incremented attempt number, which is how a
faulted unit recovers — a spec fires on attempt 0 unless it names another
attempt explicitly.

``REPRO_FAULTS`` is inherited by spawned worker processes through the
environment, so a single variable arms the whole process tree.  The hooks
(:func:`fire`, :func:`mangle`) are no-ops costing one dict lookup when no
plan is active.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

ENV_VAR = "REPRO_FAULTS"

#: Actions a spec may name, with whether they take a numeric argument.
_ACTIONS = {
    "raise": False,      # raise FaultInjected in the faulted unit
    "hang": True,        # sleep `arg` seconds (default 3600)
    "kill": False,       # SIGKILL the current process (a worker, typically)
    "interrupt": False,  # raise KeyboardInterrupt (simulated Ctrl-C)
    "corrupt": True,     # XOR-flip the byte at offset `arg` of a payload
    "truncate": True,    # cut a payload to `arg` bytes
}
#: Actions applied to byte payloads via :func:`mangle` (the rest are
#: control-flow actions triggered by :func:`fire`).
_PAYLOAD_ACTIONS = ("corrupt", "truncate")


class FaultInjected(RuntimeError):
    """Raised by the ``raise`` action; names the faulted site and unit."""

    def __init__(self, site: str, index: int, attempt: int):
        super().__init__(f"injected fault at {site}:{index} (attempt {attempt})")
        self.site = site
        self.index = index
        self.attempt = attempt

    def __reduce__(self):
        # RuntimeError's default reduce replays ``args`` (the formatted
        # message) into ``__init__``, which takes (site, index, attempt) —
        # so a worker-raised fault would fail to unpickle in the parent.
        return (type(self), (self.site, self.index, self.attempt))


@dataclass(frozen=True)
class FaultSpec:
    """One ``site:index[@attempt]:action[:arg]`` clause of a plan."""

    site: str
    index: Optional[int]  #: None = any index (the ``*`` wildcard)
    attempt: int
    action: str
    arg: Optional[float]

    def matches(self, site: str, index: int, attempt: int) -> bool:
        return (self.site == site and attempt == self.attempt
                and (self.index is None or self.index == index))


def _parse_spec(text: str) -> FaultSpec:
    parts = text.strip().split(":")
    if len(parts) < 3:
        raise ValueError(
            f"malformed fault spec {text!r}: expected site:index[@attempt]:action[:arg]")
    site, index_text, action = parts[0], parts[1], parts[2]
    arg_text = parts[3] if len(parts) > 3 else None
    if len(parts) > 4:
        raise ValueError(f"malformed fault spec {text!r}: too many ':' fields")
    attempt = 0
    if "@" in index_text:
        index_text, attempt_text = index_text.split("@", 1)
        attempt = int(attempt_text)
    index = None if index_text == "*" else int(index_text)
    if action not in _ACTIONS:
        raise ValueError(
            f"unknown fault action {action!r} in {text!r}; "
            f"choose from {sorted(_ACTIONS)}")
    if arg_text is not None and not _ACTIONS[action]:
        raise ValueError(f"fault action {action!r} takes no argument ({text!r})")
    arg = float(arg_text) if arg_text is not None else None
    return FaultSpec(site=site, index=index, attempt=attempt, action=action, arg=arg)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of fault specs, matched by (site, index, attempt)."""

    specs: Tuple[FaultSpec, ...]

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the comma-separated ``REPRO_FAULTS`` syntax."""
        clauses = [clause for clause in text.split(",") if clause.strip()]
        return cls(specs=tuple(_parse_spec(clause) for clause in clauses))

    def match(self, site: str, index: int, attempt: int = 0) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.matches(site, index, attempt):
                return spec
        return None


# --------------------------------------------------------------------- #
# process-global plan state
# --------------------------------------------------------------------- #
_UNSET = object()
#: Programmatically installed plan; ``_UNSET`` defers to the environment.
_installed = _UNSET
#: Cache of the last environment parse, keyed by the raw variable text.
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)
#: Per-site call counters used by :func:`mangle` (the Nth payload written).
_site_counters: Dict[str, int] = {}


def install_fault_plan(plan) -> None:
    """Install ``plan`` (a :class:`FaultPlan`, spec text, or ``None``).

    ``None`` disables fault injection for this process even if
    ``REPRO_FAULTS`` is set; :func:`reset_fault_state` restores deference to
    the environment.  Installation is process-local: spawned workers read
    their own environment, so cross-process plans go through ``REPRO_FAULTS``.
    """
    global _installed
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _installed = plan


def reset_fault_state() -> None:
    """Forget any installed plan and zero the payload counters (test hook)."""
    global _installed
    _installed = _UNSET
    _site_counters.clear()


def active_plan() -> Optional[FaultPlan]:
    """The plan in force: the installed one, else ``REPRO_FAULTS``, else None."""
    global _env_cache
    if _installed is not _UNSET:
        return _installed
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    if _env_cache[0] != text:
        _env_cache = (text, FaultPlan.parse(text))
    return _env_cache[1]


# --------------------------------------------------------------------- #
# injection hooks
# --------------------------------------------------------------------- #
def fire(site: str, index: int, attempt: int = 0) -> None:
    """Trigger any control-flow fault planned for this (site, index, attempt).

    Called at instrumented execution points (shard start, epoch start,
    supervisor poll tick).  A no-op without an active plan or a matching
    spec; otherwise raises, hangs, interrupts or kills per the spec.
    """
    plan = active_plan()
    if plan is None:
        return
    spec = plan.match(site, index, attempt)
    if spec is None:
        return
    if spec.action == "raise":
        raise FaultInjected(site, index, attempt)
    if spec.action == "interrupt":
        raise KeyboardInterrupt(f"injected interrupt at {site}:{index}")
    if spec.action == "hang":
        time.sleep(spec.arg if spec.arg is not None else 3600.0)
        return
    if spec.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def mangle(site: str, data: bytes) -> bytes:
    """Apply any payload fault planned for the Nth ``site`` payload.

    Each call increments the process-local counter for ``site``; a matching
    ``corrupt`` spec XOR-flips the byte at the spec's offset (clamped into
    range), a ``truncate`` spec cuts the payload at the offset.  Without a
    matching spec the payload is returned untouched.
    """
    counter = _site_counters.get(site, 0)
    _site_counters[site] = counter + 1
    plan = active_plan()
    if plan is None:
        return data
    spec = plan.match(site, counter)
    if spec is None or spec.action not in _PAYLOAD_ACTIONS:
        return data
    offset = int(spec.arg) if spec.arg is not None else 0
    if spec.action == "truncate":
        return data[:max(0, min(offset, len(data)))]
    if not data:
        return data
    offset = max(0, min(offset, len(data) - 1))
    corrupted = bytearray(data)
    corrupted[offset] ^= 0xFF
    return bytes(corrupted)
