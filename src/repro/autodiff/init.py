"""Weight initialization schemes (numpy ``Generator`` draws)."""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

import numpy as np


def xavier_uniform(shape: Tuple[int, ...], rng: Optional[Any] = None, gain: float = 1.0):
    """Glorot/Xavier uniform initialization."""
    rng = rng or np.random.default_rng()
    fan_in = shape[0] if len(shape) > 0 else 1
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    limit = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def xavier_normal(shape: Tuple[int, ...], rng: Optional[Any] = None, gain: float = 1.0):
    """Glorot/Xavier normal initialization."""
    rng = rng or np.random.default_rng()
    fan_in = shape[0] if len(shape) > 0 else 1
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    std = gain * math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


def uniform(shape: Tuple[int, ...], low: float = -0.1, high: float = 0.1, rng: Optional[Any] = None):
    """Plain uniform initialization in ``[low, high)``."""
    rng = rng or np.random.default_rng()
    return rng.uniform(low, high, size=shape)


def normal(shape: Tuple[int, ...], mean: float = 0.0, std: float = 0.02, rng: Optional[Any] = None):
    """Gaussian initialization."""
    rng = rng or np.random.default_rng()
    return rng.normal(mean, std, size=shape)


def zeros(shape: Tuple[int, ...]):
    """All-zeros initialization (used for biases)."""
    return np.zeros(shape)
