"""Reverse-mode autodiff tensor.

The :class:`Tensor` class wraps a float64 numpy array and builds a dynamic
computation graph as operations are applied.  Calling
:meth:`Tensor.backward` on a scalar tensor propagates gradients to every
tensor in the graph with ``requires_grad=True``.  The indexed primitives
dispatch to the kernel object :data:`repro.backend.kernels`, read at call
time.

The implementation intentionally supports only the operations needed by the
DEKG-ILP reproduction (dense linear algebra, elementwise math, reductions,
indexing/gather, concatenation and a handful of activations) but supports full
numpy-style broadcasting for the elementwise operations.

Sparse graph primitives
-----------------------
:func:`scatter_add` (alias :func:`segment_sum`) and :func:`gather` are the two
first-class indexed primitives used by the GNN message-passing hot path.  They
are exact adjoints of each other:

* ``scatter_add(src, index, n)`` sums rows of ``src`` into ``n`` output rows
  (forward is the ``scatter_rows`` kernel; backward is a row gather
  of the output gradient).
* ``gather(src, index)`` selects rows (forward fancy indexing; backward is a
  ``scatter_rows`` accumulation of the gradient).

Together they let message passing over ``E`` edges run in ``O(E * dim)``
instead of materializing a dense ``(num_nodes, num_edges)`` one-hot scatter
matrix per layer.  :func:`basis_message_passing` is the third: one R-GCN
message-passing round over the basis decomposition (project, gather, basis
contraction, scatter) as a single node, whose tape keeps the ``(N, ·)``
node projection instead of the unfused chain's four ``(E, ·)`` arrays.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import kernels

#: A numpy array, or anything ``np.asarray`` turns into one.
ArrayLike = Union[Any, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """Return whether graph construction is currently enabled."""
    return _GRAD_ENABLED


def _as_array(data: ArrayLike):
    """``data`` as a float64 array; a float64 array is returned as it is."""
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(grad, shape: Tuple[int, ...]):
    """Reduce ``grad`` so that it matches ``shape`` (reverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-dimensional array node in a dynamically built computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 1000  # ensure ndarray.__mul__(Tensor) defers to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[Any], None]] = None,
        name: Optional[str] = None,
    ):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self._backward = backward
        self._parents = parents if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self):
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    def _accumulate(self, grad) -> None:
        # Ownership invariant: nothing writes a stored gradient in place --
        # accumulation below is out-of-place and the optimizers and
        # ``clip_grad_norm`` replace ``param.grad`` rather than mutate it.  So
        # an intermediate tensor may keep its first incoming gradient as is,
        # even when that array is shared with (or a view of) another node's
        # gradient.  Leaves (parameters, user inputs) still copy: their
        # ``.grad`` outlives the backward pass and must be a writeable array
        # no other tensor shares.
        grad = _unbroadcast(_as_array(grad), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if self._backward is None else grad
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _make(
        data,
        parents: Iterable["Tensor"],
        backward: Callable[[Any], None],
    ) -> "Tensor":
        parents = tuple(parents)
        requires = grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data + other.data

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data * other.data

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data / other.data

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        data = self.data @ other.data

        def backward(grad) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    self._accumulate(np.outer(grad, b) if a.ndim > 1 else grad * b)
                else:
                    g = np.atleast_2d(grad) @ np.swapaxes(b, -1, -2)
                    self._accumulate(g.reshape(a.shape) if a.ndim == 1 else g)
            if other.requires_grad:
                if a.ndim == 1:
                    other._accumulate(np.outer(a, grad) if b.ndim > 1 else grad * a)
                else:
                    g = np.swapaxes(a, -1, -2) @ np.atleast_2d(grad)
                    other._accumulate(g.reshape(b.shape) if b.ndim == 1 else g)

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return self._make(data, (self,), backward)

    def sin(self) -> "Tensor":
        data = np.sin(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.cos(self.data))

        return self._make(data, (self,), backward)

    def cos(self) -> "Tensor":
        data = np.cos(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(-grad * np.sin(self.data))

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(data, (self,), backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        mask = self.data >= minimum
        data = np.maximum(self.data, minimum)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad) -> None:
            if not self.requires_grad:
                return
            g = _as_array(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for a in axes:
                count *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def norm(self) -> "Tensor":
        """L2 norm of the flattened tensor."""
        return (self * self).sum().clamp_min(1e-12) ** 0.5

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(_as_array(grad).reshape(original_shape))

        return self._make(data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes_tuple)
        inverse = tuple(sorted(range(len(axes_tuple)), key=axes_tuple.__getitem__))

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(_as_array(grad).transpose(inverse))

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                kernels.index_add(full, index, grad)
                self._accumulate(full)

        return self._make(data, (self,), backward)

    def gather_rows(self, indices) -> "Tensor":
        """Select rows (first-axis indexing) — the embedding-lookup primitive."""
        return gather(self, indices)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        offsets = [0]
        for tensor in tensors:
            offsets.append(offsets[-1] + tensor.data.shape[axis])

        def backward(grad) -> None:
            grad = _as_array(grad)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad) -> None:
            grad = _as_array(grad)
            parts = np.split(grad, len(tensors), axis=axis)
            for tensor, part in zip(tensors, parts):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(part, axis=axis))

        return Tensor._make(data, tensors, backward)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor through the graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None


# ---------------------------------------------------------------------- #
# indexed scatter/gather primitives
# ---------------------------------------------------------------------- #
def gather(source: Tensor, indices) -> Tensor:
    """Select rows ``source[indices]`` along the first axis.

    Unlike generic ``Tensor.__getitem__`` this is specialized to integer-array
    row selection, which keeps both directions allocation-lean: forward is a
    single fancy-indexing gather, backward scatters the incoming gradient back
    through the row-scatter kernel (duplicate indices accumulate; see
    :meth:`repro.backend.numpy_backend.NumpyBackend.scatter_rows`).
    """
    indices = np.asarray(indices, dtype=np.int64)
    # Normalize negative (wrap-around) indices up front so the scatter
    # kernel in backward sees the same rows fancy indexing selected.
    if indices.size and indices.min() < 0:
        indices = np.where(indices < 0, indices + source.data.shape[0], indices)
    data = kernels.gather_rows(source.data, indices)

    def backward(grad) -> None:
        if source.requires_grad:
            grad = _as_array(grad)
            source._accumulate(kernels.scatter_rows(indices, grad, source.data.shape[0]))

    return Tensor._make(data, (source,), backward)


def scatter_add(source: Tensor, indices, num_segments: int) -> Tensor:
    """Sum rows of ``source`` into ``num_segments`` output rows by ``indices``.

    ``out[i] = sum(source[j] for j where indices[j] == i)`` — the segmented
    reduction at the heart of graph message aggregation.  Forward is the
    ``scatter_rows`` kernel (duplicate destinations accumulate); backward is
    the adjoint gather ``grad[indices]``.

    ``indices`` must be 1-D with one entry per row of ``source`` and every
    entry in ``[0, num_segments)``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValueError(f"scatter_add expects a 1-D index array, got shape {indices.shape}")
    if indices.shape[0] != source.data.shape[0]:
        raise ValueError(
            f"scatter_add index length {indices.shape[0]} does not match "
            f"source rows {source.data.shape[0]}"
        )
    if num_segments < 0:
        raise ValueError("num_segments must be non-negative")
    if indices.size and (indices.min() < 0 or indices.max() >= num_segments):
        raise IndexError("scatter_add indices out of range")
    out = kernels.scatter_rows(indices, source.data, num_segments)

    def backward(grad) -> None:
        if source.requires_grad:
            source._accumulate(kernels.gather_rows(_as_array(grad), indices))

    return Tensor._make(out, (source,), backward)


def basis_message_passing(features: Tensor, basis_matrix: Tensor, coefficients: Tensor,
                          sources, destinations) -> Tensor:
    """One relational message-passing round over a basis decomposition, as one node.

    ``features`` is ``(N, in)``, ``basis_matrix`` the ``(in, B·out)`` side-by-side
    stack ``[V_0 | … | V_{B-1}]`` of the bases and ``coefficients`` ``(E, B)``;
    edge ``e`` runs from node ``sources[e]`` to node ``destinations[e]``.  The
    result is ``(N, out)``::

        out[v] = Σ_{e: destinations[e] = v} Σ_b coefficients[e, b] · (features[sources[e]] @ V_b)

    Forward projects the nodes once (``P = features @ basis_matrix``, an
    ``N``-row GEMM).  The ``gather_combine`` kernel takes each edge's
    coefficient-weighted sum over the basis blocks of ``P[sources]``, and
    ``scatter_rows`` sums the messages into their destinations.
    Backward is the adjoint of that forward: with ``g = grad[destinations]``,
    the ``scatter_combine`` kernel sums ``coefficients[e, b] · g[e]`` into
    row ``sources[e]`` to give the ``(N, B·out)`` projection gradient ``dP``,
    and the feature and basis gradients are the ``N``-row GEMMs
    ``dP @ basis_matrix.T`` and ``features.T @ dP``.  The coefficient
    gradient contracts ``P[sources]`` with ``g`` over the output axis.

    The three kernels are scipy sparse products that add in the order of
    the numpy chain (see
    :mod:`repro.backend.numpy_backend`), so forward and backward equal the
    project-first chain ``gather(features @ basis_matrix, sources) →
    einsum("ebo,eb->eo") → scatter_add`` bit for bit for ``out ≥ 2``.  (At
    ``out = 1`` einsum sums the basis terms in another order.)  They equal
    the gather-first chain ``gather(features, sources) @ basis_matrix → …``
    up to rounding only: BLAS blocks a GEMM by its row count, so
    ``(X @ W)[sources]`` and ``X[sources] @ W`` can differ in the last bits,
    and the backward sums the edges before its GEMMs, not after.

    The node keeps the ``(N, B·out)`` projection ``P`` for its backward.
    The chain's ``(E, in)`` gathered features, ``(E, B·out)`` projection and
    ``(E, out)`` messages never become tape nodes; backward gathers
    ``P[sources]`` only for the coefficient gradient.
    """
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    num_nodes = features.data.shape[0]
    num_edges, num_bases = coefficients.data.shape
    width = basis_matrix.data.shape[1]  # B * out
    if sources.ndim != 1 or sources.shape != destinations.shape or sources.shape[0] != num_edges:
        raise ValueError(
            f"basis_message_passing expects 1-D sources and destinations with one entry "
            f"per coefficient row ({num_edges}), got shapes {sources.shape} and "
            f"{destinations.shape}")
    for indices in (sources, destinations):
        if indices.size and (indices.min() < 0 or indices.max() >= num_nodes):
            raise IndexError("basis_message_passing node indices out of range")
    projected = features.data @ basis_matrix.data  # (N, B*out)
    messages = kernels.gather_combine(projected, sources, coefficients.data)  # (E, out)
    out = kernels.scatter_rows(destinations, messages, num_nodes)

    def backward(grad) -> None:
        grad = kernels.gather_rows(_as_array(grad), destinations)  # (E, out)
        if coefficients.requires_grad:
            gathered = kernels.gather_rows(projected, sources).reshape(
                num_edges, num_bases, width // num_bases)  # (E, B, out)
            coefficients._accumulate(np.einsum("ebo,eo->eb", gathered, grad))
        if not (features.requires_grad or basis_matrix.requires_grad):
            return
        grad = kernels.scatter_combine(grad, sources, coefficients.data, num_nodes)  # (N, B*out)
        if features.requires_grad:
            features._accumulate(grad @ basis_matrix.data.T)
        if basis_matrix.requires_grad:
            basis_matrix._accumulate(features.data.T @ grad)

    return Tensor._make(out, (features, basis_matrix, coefficients), backward)


def segment_sum(source: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Alias of :func:`scatter_add` under its segmented-reduction name."""
    return scatter_add(source, segment_ids, num_segments)


def segment_mean(source: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Per-segment mean of rows; empty segments yield zero rows."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    sums = scatter_add(source, segment_ids, num_segments)
    counts = kernels.segment_counts(segment_ids, num_segments)
    counts = np.where(counts == 0, 1.0, counts)
    inverse = 1.0 / counts
    return sums * inverse.reshape((num_segments,) + (1,) * (source.data.ndim - 1))
