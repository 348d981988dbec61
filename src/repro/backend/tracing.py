"""A numpy-delegating, call-recording backend — the seam's test double.

``TracingBackend`` computes exactly what :class:`NumpyBackend` computes
(same arrays, same bits) but counts every array-module attribute call and
every kernel dispatch that flows through the backend seam.  It exists so
the seam is testable on machines without a GPU:

* the backend-parity suite runs every autodiff primitive under it and
  asserts results are bit-identical to the numpy reference — proving the
  engine really routes through the active backend, not through a stale
  module-level numpy binding;
* ``REPRO_BACKEND=tracing`` runs the whole tier-1 suite through the seam
  in CI, so a hot path that quietly re-grows a direct numpy dependency
  shows up as a behavioural difference, not just a lint miss.

Recording is aggregated into a ``Counter`` of dotted call paths
(``"add.at"``, ``"random.default_rng"``, ``"kernel.scatter_rows"``) so
memory stays bounded no matter how long the session runs.
"""

from __future__ import annotations

import types
from collections import Counter
from typing import Any

import numpy as np

from repro.backend.numpy_backend import NumpyBackend


class _RecordingNamespace:
    """Attribute-forwarding wrapper that counts calls into a namespace.

    Functions, ufuncs and bound methods are wrapped so calling them bumps
    ``counts[dotted_path]``; submodules are wrapped recursively; everything
    that must keep its identity — classes (``ndarray``, ``errstate``),
    dtypes, constants — passes through untouched so ``isinstance`` checks
    and dtype comparisons behave exactly as on raw numpy.
    """

    __slots__ = ("_target", "_path", "_counts")

    def __init__(self, target: Any, path: str, counts: Counter):
        self._target = target
        self._path = path
        self._counts = counts

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        path = f"{self._path}.{name}" if self._path else name
        if isinstance(attr, type):
            return attr  # classes/dtypes must keep identity
        if isinstance(attr, types.ModuleType):
            return _RecordingNamespace(attr, path, self._counts)
        if callable(attr):
            return _RecordingCallable(attr, path, self._counts)
        return attr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<recording {self._target!r}>"


class _RecordingCallable:
    """A callable proxy that counts invocations (and wraps ufunc methods)."""

    __slots__ = ("_target", "_path", "_counts")

    def __init__(self, target: Any, path: str, counts: Counter):
        self._target = target
        self._path = path
        self._counts = counts

    def __call__(self, *args, **kwargs):
        self._counts[self._path] += 1
        return self._target(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        # ufunc methods: np.add.at, np.add.reduceat, np.maximum.accumulate...
        attr = getattr(self._target, name)
        path = f"{self._path}.{name}"
        if callable(attr) and not isinstance(attr, type):
            return _RecordingCallable(attr, path, self._counts)
        return attr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<recording {self._target!r}>"


class TracingBackend(NumpyBackend):
    """Numpy results, with every seam crossing counted in :attr:`calls`."""

    name = "tracing"

    def __init__(self):
        self.calls: Counter = Counter()
        self.xp = _RecordingNamespace(np, "", self.calls)
        self.host_xp = _RecordingNamespace(np, "host", self.calls)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear the recorded call counts."""
        self.calls.clear()

    def kernel_calls(self) -> Counter:
        """Only the ``kernel.*`` dispatches (scatter/gather/segment set)."""
        return Counter({name: count for name, count in self.calls.items()
                        if name.startswith("kernel.")})

    # ------------------------------------------------------------------ #
    # kernel set: record the dispatch, then run the numpy reference kernel
    # ------------------------------------------------------------------ #
    def asarray(self, data):
        self.calls["kernel.asarray"] += 1
        return NumpyBackend.asarray(self, data)

    def asindex(self, data):
        self.calls["kernel.asindex"] += 1
        return np.asarray(data, dtype=self.int_dtype)

    def rng(self, seed=None):
        self.calls["kernel.rng"] += 1
        return np.random.default_rng(seed)

    def scatter_rows(self, indices, values, num_rows: int):
        self.calls["kernel.scatter_rows"] += 1
        return NumpyBackend.scatter_rows(self, indices, values, num_rows)

    def gather_rows(self, values, indices):
        self.calls["kernel.gather_rows"] += 1
        return values[indices]

    def gather_combine(self, values, indices, weights):
        self.calls["kernel.gather_combine"] += 1
        return NumpyBackend.gather_combine(self, values, indices, weights)

    def index_add(self, out, indices, values) -> None:
        self.calls["kernel.index_add"] += 1
        np.add.at(out, indices, values)

    def segment_counts(self, segment_ids, num_segments: int):
        self.calls["kernel.segment_counts"] += 1
        return NumpyBackend.segment_counts(self, segment_ids, num_segments)
