"""The always-on numpy reference backend, with its CPU indexed kernels.

``NumpyBackend`` is the default and the correctness reference every other
backend is tested against.  Its non-trivial pieces are the three indexed
kernels of the GNN message-passing path, and all three run as scipy
sparse–dense products, whose compiled loops fuse the indexing with the
arithmetic:

* :meth:`~NumpyBackend.scatter_rows` — the segmented row reduction behind
  ``scatter_add``'s forward and ``gather``'s backward.  Values wider than
  one column are multiplied by a ``(num_rows, E)`` CSC matrix with one unit
  entry per column, at row ``indices[j]`` of column ``j``.  scipy walks the
  columns in order and adds ``1.0 · values[j]`` into its row, so every
  output row sums its terms in input order, exactly as ``np.add.at`` and
  ``np.bincount`` do, and ``x · 1.0`` is exact.  One-column values take a
  weighted ``np.bincount``, which is faster there (11–13 µs against
  33–60 µs at 3,300 rows on a 2-core x86-64 box).
* :meth:`~NumpyBackend.gather_combine` — the R-GCN edge messages.  Row ``e``
  of an ``(E, N·B)`` CSR matrix holds ``weights[e, b]`` at column
  ``indices[e]·B + b``, and it multiplies the ``(N·B, W)`` view of the
  projected nodes.  scipy adds a row's terms in column order, so each
  message is ``Σ_b`` in ``b`` order: the order of ``einsum("ebo,eb->eo")``
  for ``W ≥ 2``.  At ``W = 1`` einsum sums the ``B`` products in another
  order, so the two can differ in the last bit there.
* :meth:`~NumpyBackend.scatter_combine` — its adjoint, the projection
  gradient of the R-GCN backward.  It is the transpose of the same matrix,
  an ``(num_rows·B, E)`` CSC matrix with ``weights[e, b]`` at row
  ``indices[e]·B + b`` of column ``e``, times the ``(E, W)`` values.  Each
  term is one product, and scipy adds each row's terms in column order,
  which is edge order, so the result equals the ``einsum("eo,eb->ebo")``
  outer product summed by ``scatter_rows``, bit for bit.

Each kernel is therefore bit-identical to the numpy chain it replaces
(gather → einsum, ``np.add.at``, einsum → scatter).  The message-passing
node built on them (:func:`repro.autodiff.tensor.basis_message_passing`)
equals the project-first chain ``gather(X @ W, src) → basis sum →
scatter_add`` bit for bit, forward and backward, and the gather-first chain
``gather(X, src) @ W → …`` up to rounding: BLAS blocks a GEMM by its row
count, so ``(X @ W)[src]`` and ``X[src] @ W`` can differ in the last bits.
scipy's constructors do not bounds-check indices, so each kernel checks its
index array first: a non-integer array raises ``TypeError`` and a row
outside ``[0, num_rows)``, negative ones included, ``IndexError``.
``scipy.sparse`` is imported on the first kernel call, not with
:mod:`repro`: the import takes 0.15–0.25 s on the same box, which
start-up paths that never run a kernel should not pay.
``benchmarks/bench_backend.py`` times the scatter against ``np.add.at``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.base import ArrayBackend


def _check_rows(indices: np.ndarray, num_rows: int, kernel: str) -> None:
    """Reject index arrays a sparse constructor would accept unchecked."""
    if indices.dtype.kind not in "iu":
        raise TypeError(f"{kernel} needs an integer index array, got dtype {indices.dtype}")
    if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
        raise IndexError(
            f"{kernel} index out of range [0, {num_rows}): "
            f"min={indices.min()}, max={indices.max()}")


class NumpyBackend(ArrayBackend):
    """Reference backend: compute and host arrays are both numpy."""

    name = "numpy"
    xp = np
    host_xp = np

    # ------------------------------------------------------------------ #
    def scatter_rows(self, indices, values, num_rows: int):
        indices = np.asarray(indices)
        _check_rows(indices, num_rows, "scatter_rows")
        width = math.prod(values.shape[1:])
        if width == 1:
            out = np.bincount(indices, weights=values.reshape(-1), minlength=num_rows)
        else:
            from scipy.sparse import csc_array

            count = indices.shape[0]
            selector = csc_array((np.ones(count), indices, np.arange(count + 1)),
                                 shape=(num_rows, count))
            out = selector @ values.reshape(count, width)
        return out.reshape((num_rows,) + values.shape[1:])

    def gather_combine(self, values, indices, weights):
        from scipy.sparse import csr_array

        indices = np.asarray(indices)
        num_rows = values.shape[0]
        _check_rows(indices, num_rows, "gather_combine")
        num_edges, num_blocks = weights.shape
        columns = (indices[:, None] * num_blocks + np.arange(num_blocks)).reshape(-1)
        selector = csr_array(
            (weights.reshape(-1), columns, np.arange(0, num_edges * num_blocks + 1, num_blocks)),
            shape=(num_edges, num_rows * num_blocks))
        return selector @ values.reshape(num_rows * num_blocks, values.shape[1] // num_blocks)

    def scatter_combine(self, values, indices, weights, num_rows: int):
        from scipy.sparse import csc_array

        indices = np.asarray(indices)
        _check_rows(indices, num_rows, "scatter_combine")
        num_edges, num_blocks = weights.shape
        rows = (indices[:, None] * num_blocks + np.arange(num_blocks)).reshape(-1)
        selector = csc_array(
            (weights.reshape(-1), rows, np.arange(0, num_edges * num_blocks + 1, num_blocks)),
            shape=(num_rows * num_blocks, num_edges))
        return (selector @ values).reshape(num_rows, num_blocks * values.shape[1])
