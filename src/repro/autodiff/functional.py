"""Functional operations built on top of :class:`~repro.autodiff.tensor.Tensor`."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backend.counter_rng import element_keys, uniform_from_keys

from repro.autodiff.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, rate: float, training: bool = True,
            seed: Optional[int] = None, counter: int = 0) -> Tensor:
    """Inverted dropout: zero a fraction ``rate`` of entries and rescale.

    Masks are **counter-seeded**: each kept/dropped decision is a pure
    function of ``(seed, counter, flat element index)`` through the
    splitmix64 uniforms of :mod:`repro.backend.counter_rng` — the same
    machinery behind per-edge dropout — so the same ``(seed, counter)``
    draws the same mask on every platform.  Callers that want fresh masks
    per forward pass advance ``counter`` (the
    :class:`~repro.autodiff.layers.Dropout` layer does this automatically).
    Without ``seed``, a fresh seed comes from OS entropy.
    """
    if not training or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if seed is None:
        seed = int(np.random.default_rng().integers(0, 2 ** 63))
    uniforms = uniform_from_keys(element_keys(x.size), seed, counter)
    mask = (uniforms >= rate).astype(float).reshape(x.shape) / (1.0 - rate)
    return x * Tensor(mask)


def binary_cross_entropy_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy computed from raw scores."""
    # log(1 + exp(-|x|)) + max(x, 0) - x * target   (numerically stable)
    max_part = logits.clamp_min(0.0)
    stable = (-(logits.abs())).exp() + 1.0
    loss = max_part - logits * targets + stable.log()
    return loss.mean()


def margin_ranking_loss(positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    """Mean of ``max(0, margin - positive + negative)`` (Eq. 14 of the paper)."""
    return (Tensor(margin) - positive + negative).clamp_min(0.0).mean()


def triplet_margin_loss(anchor_positive_distance: Tensor, anchor_negative_distance: Tensor, margin: float) -> Tensor:
    """Triplet loss ``max(0, d_pos - d_neg + margin)`` averaged over the batch.

    The paper's Eq. 7 writes the loss in terms of a similarity function which is
    implemented as a (negated) euclidean distance; callers pass distances here.
    """
    return (anchor_positive_distance - anchor_negative_distance + Tensor(margin)).clamp_min(0.0).mean()


def euclidean_distance(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Euclidean distance between two batches of vectors."""
    diff = a - b
    return ((diff * diff).sum(axis=axis) + 1e-12) ** 0.5


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    return Tensor.concat(tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    return Tensor.stack(tensors, axis=axis)


def mean_pool(x: Tensor, axis: int = 0) -> Tensor:
    """Average pooling along ``axis`` (Eq. 10 of the paper)."""
    return x.mean(axis=axis)
