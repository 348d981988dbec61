"""Common neural-network layers built on the autodiff engine."""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff import init
from repro.autodiff.module import Module, Parameter
from repro.autodiff.tensor import Tensor


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[Any] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """A lookup table of learned vectors, indexed by integer ids."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[Any] = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.xavier_uniform((num_embeddings, embedding_dim), rng=rng))

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight.gather_rows(indices)

    def all(self) -> Tensor:
        """Return the full embedding matrix as a tensor."""
        return self.weight


class Dropout(Module):
    """Inverted dropout; active only while the module is in training mode.

    With ``seed`` set, masks are counter-seeded — a pure function of
    ``(seed, forward-call counter, element index)``, bit-identical across
    platforms (see :func:`repro.autodiff.functional.dropout`).  Without it,
    every call draws a fresh seed.
    """

    def __init__(self, rate: float, seed: Optional[int] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.seed = seed
        self._counter = 0

    def forward(self, x: Tensor) -> Tensor:
        out = F.dropout(x, self.rate, training=self.training,
                        seed=self.seed, counter=self._counter)
        if self.training and self.rate > 0.0:
            self._counter += 1
        return out


class ReLU(Module):
    """ReLU activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Sigmoid activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Tanh activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Run a fixed sequence of modules, feeding each output to the next."""

    def __init__(self, layers: Sequence[Module]):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
