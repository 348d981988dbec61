"""The indexed kernels of the autodiff engine, and the counter RNG.

The engine calls numpy directly.  Its indexed kernels — the row gather and
scatter, the R-GCN ``gather_combine`` / ``scatter_combine`` pair, the
in-place index add and the segment counts — are methods of one object,
:data:`kernels`, a :class:`~repro.backend.numpy_backend.NumpyBackend`.

Call sites read a kernel off :data:`kernels` when they run
(``kernels.scatter_rows(...)``) and never keep a bound method from import
time, so a wrapper installed on the class later — perfbench's
``kernels.scatter`` and ``kernels.gather`` probes patch
``NumpyBackend.scatter_rows`` and ``ArrayBackend.gather_rows`` — sees every
call.  The two classes stay split for those probe paths only; see
``docs/ARCHITECTURE.md``, "Kernels".
"""

from __future__ import annotations

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend

#: The one kernel object every call site dispatches through.
kernels = NumpyBackend()

__all__ = ["ArrayBackend", "NumpyBackend", "kernels"]
