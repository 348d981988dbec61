"""Reverse-mode autodiff tensor.

The :class:`Tensor` class wraps an array of the **active backend** (see
:mod:`repro.backend`) and builds a dynamic computation graph as operations
are applied.  Calling :meth:`Tensor.backward` on a scalar tensor propagates
gradients to every tensor in the graph with ``requires_grad=True``.

All array creation and kernel dispatch route through the backend seam: the
``xp`` proxy for numpy-compatible compute (``xp.exp``, ``xp.zeros_like``)
and :func:`repro.backend.active_backend` for the dtype policy and the
scatter/gather kernel set.  Under the default numpy backend behaviour is
exactly what a hard-coded ``import numpy`` gave; under other backends the
same graph runs on their arrays.

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
  (forward is the backend's ``scatter_rows`` kernel; backward is a row gather
  of the output gradient).
* ``gather(src, index)`` selects rows (forward fancy indexing; backward is a
  ``scatter_rows`` accumulation of the gradient).

Together they let message passing over ``E`` edges run in ``O(E * dim)``
instead of materializing a dense ``(num_nodes, num_edges)`` one-hot scatter
matrix per layer.  :func:`basis_message_passing` is the third: one R-GCN
message-passing round over the basis decomposition (project, gather, basis
contraction, scatter) as a single node, whose tape keeps one ``(E, ·)``
array instead of the unfused chain's four.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple, Union

from repro.backend import active_backend, xp

#: A backend array, or anything :meth:`ArrayBackend.asarray` coerces to one.
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
    """Coerce ``data`` to an active-backend array under the float dtype policy."""
    return active_backend().asarray(data)


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
        """Return the underlying array (not a copy; backend-native type)."""
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
                    self._accumulate(xp.outer(grad, b) if a.ndim > 1 else grad * b)
                else:
                    g = xp.atleast_2d(grad) @ xp.swapaxes(b, -1, -2)
                    self._accumulate(g.reshape(a.shape) if a.ndim == 1 else g)
            if other.requires_grad:
                if a.ndim == 1:
                    other._accumulate(xp.outer(a, grad) if b.ndim > 1 else grad * a)
                else:
                    g = xp.swapaxes(a, -1, -2) @ xp.atleast_2d(grad)
                    other._accumulate(g.reshape(b.shape) if b.ndim == 1 else g)

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = xp.exp(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = xp.log(self.data)

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
        data = 1.0 / (1.0 + xp.exp(-self.data))

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = xp.tanh(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return self._make(data, (self,), backward)

    def sin(self) -> "Tensor":
        data = xp.sin(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * xp.cos(self.data))

        return self._make(data, (self,), backward)

    def cos(self) -> "Tensor":
        data = xp.cos(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(-grad * xp.sin(self.data))

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = xp.sign(self.data)
        data = xp.abs(self.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(data, (self,), backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        mask = self.data >= minimum
        data = xp.maximum(self.data, minimum)

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
                    g = xp.expand_dims(g, ax)
            self._accumulate(xp.broadcast_to(g, self.data.shape))

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
                full = xp.zeros_like(self.data)
                active_backend().index_add(full, index, grad)
                self._accumulate(full)

        return self._make(data, (self,), backward)

    def gather_rows(self, indices) -> "Tensor":
        """Select rows (first-axis indexing) — the embedding-lookup primitive."""
        return gather(self, indices)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = xp.concatenate([t.data for t in tensors], axis=axis)
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
        data = xp.stack([t.data for t in tensors], axis=axis)

        def backward(grad) -> None:
            grad = _as_array(grad)
            parts = xp.split(grad, len(tensors), axis=axis)
            for tensor, part in zip(tensors, parts):
                if tensor.requires_grad:
                    tensor._accumulate(xp.squeeze(part, axis=axis))

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
            grad = xp.ones_like(self.data)
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
    through the backend's row-scatter kernel (duplicate indices accumulate;
    see :meth:`repro.backend.base.ArrayBackend.scatter_rows` and the numpy
    backend's single ``bincount`` kernel).
    """
    backend = active_backend()
    indices = backend.asindex(indices)
    # Normalize negative (wrap-around) indices up front so the scatter
    # kernel in backward sees the same rows fancy indexing selected.
    if indices.size and indices.min() < 0:
        indices = xp.where(indices < 0, indices + source.data.shape[0], indices)
    data = backend.gather_rows(source.data, indices)

    def backward(grad) -> None:
        if source.requires_grad:
            grad = backend.asarray(grad)
            source._accumulate(backend.scatter_rows(indices, grad, source.data.shape[0]))

    return Tensor._make(data, (source,), backward)


def scatter_add(source: Tensor, indices, num_segments: int) -> Tensor:
    """Sum rows of ``source`` into ``num_segments`` output rows by ``indices``.

    ``out[i] = sum(source[j] for j where indices[j] == i)`` — the segmented
    reduction at the heart of graph message aggregation.  Forward is the
    active backend's ``scatter_rows`` kernel (duplicate destinations
    accumulate); backward is the adjoint gather ``grad[indices]``.

    ``indices`` must be 1-D with one entry per row of ``source`` and every
    entry in ``[0, num_segments)``.
    """
    backend = active_backend()
    indices = backend.asindex(indices)
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
    out = backend.scatter_rows(indices, source.data, num_segments)

    def backward(grad) -> None:
        if source.requires_grad:
            source._accumulate(backend.gather_rows(backend.asarray(grad), indices))

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
    ``N``-row GEMM), gathers ``P[sources]``, contracts the basis axis with
    ``einsum("ebo,eb->eo")`` and sums the messages into their destinations
    with the backend's ``scatter_rows``.  A GEMM row does not depend on the
    other rows, so this equals the unfused ``gather → @ → einsum →
    scatter_add`` chain bit for bit, as does the backward: that chain's
    backward written out once, through the same kernels.  (Numpy multiplies
    a one-row matrix on another BLAS path, so the two differ in rounding
    when exactly one of ``N`` and ``E`` is 1.)

    The node keeps only ``P[sources]`` for its backward.  The chain's
    ``(E, in)`` gathered features, ``(E, B·out)`` projection and ``(E, out)``
    messages never become tape nodes; backward regathers the features.
    """
    backend = active_backend()
    sources = backend.asindex(sources)
    destinations = backend.asindex(destinations)
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
    projected = backend.gather_rows(features.data @ basis_matrix.data, sources)
    projected = projected.reshape(num_edges, num_bases, width // num_bases)  # (E, B, out)
    messages = xp.einsum("ebo,eb->eo", projected, coefficients.data)
    out = backend.scatter_rows(destinations, messages, num_nodes)

    def backward(grad) -> None:
        grad = backend.gather_rows(backend.asarray(grad), destinations)  # (E, out)
        if coefficients.requires_grad:
            coefficients._accumulate(xp.einsum("ebo,eo->eb", projected, grad))
        if not (features.requires_grad or basis_matrix.requires_grad):
            return
        grad = xp.einsum("eo,eb->ebo", grad, coefficients.data).reshape(num_edges, width)
        if features.requires_grad:
            features._accumulate(backend.scatter_rows(
                sources, grad @ basis_matrix.data.T, num_nodes))
        if basis_matrix.requires_grad:
            gathered = backend.gather_rows(features.data, sources)  # (E, in)
            basis_matrix._accumulate(gathered.T @ grad)

    return Tensor._make(out, (features, basis_matrix, coefficients), backward)


def segment_sum(source: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Alias of :func:`scatter_add` under its segmented-reduction name."""
    return scatter_add(source, segment_ids, num_segments)


def segment_mean(source: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Per-segment mean of rows; empty segments yield zero rows."""
    backend = active_backend()
    segment_ids = backend.asindex(segment_ids)
    sums = scatter_add(source, segment_ids, num_segments)
    counts = backend.segment_counts(segment_ids, num_segments)
    counts = xp.where(counts == 0, 1.0, counts)
    inverse = 1.0 / counts
    return sums * inverse.reshape((num_segments,) + (1,) * (source.data.ndim - 1))
