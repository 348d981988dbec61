"""The always-on numpy reference backend, with its CPU scatter kernel.

``NumpyBackend`` is the default and the correctness reference every other
backend is tested against.  Its one non-trivial piece is
:meth:`~NumpyBackend.scatter_rows` — the segmented row reduction behind
``scatter_add``'s forward and ``gather``'s backward, i.e. the single
hottest indexed operation in the GNN message-passing path.

It is one weighted ``np.bincount`` over flattened ``(row, column)``
indices, for every shape and size: value element ``values[j, c]`` lands in
flat slot ``indices[j] * W + c`` of a ``(num_rows * W,)`` output, where
``W`` is the product of the trailing dimensions, and the result is
reshaped back.  ``bincount`` accumulates in input order (sequential adds,
like ``np.add.at``), so the kernel is **bit-identical** to the ufunc
scatter at every size and density — gradient bits do not depend on batch
shape.  It costs ``O(E * W + num_rows * W)`` with a single pass over the
values; ``benchmarks/bench_backend.py`` times it against ``np.add.at``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.base import ArrayBackend


class NumpyBackend(ArrayBackend):
    """Reference backend: compute and host arrays are both numpy."""

    name = "numpy"
    xp = np
    host_xp = np

    # ------------------------------------------------------------------ #
    def scatter_rows(self, indices, values, num_rows: int):
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
            raise IndexError(
                f"scatter_rows index out of range [0, {num_rows}): "
                f"min={indices.min()}, max={indices.max()}")
        width = math.prod(values.shape[1:])
        if width != 1:
            indices = (indices[:, None] * width + np.arange(width)).ravel()
        out = np.bincount(indices, weights=values.reshape(-1),
                          minlength=num_rows * width)
        return out.reshape((num_rows,) + values.shape[1:])
