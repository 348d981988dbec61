"""Counter-based (stateless) uniform variates, bit-identical on every platform.

This is the splitmix64 machinery that :mod:`repro.gnn.edge_dropout`
introduced for counter-seeded per-edge dropout, shared so that *all* mask
randomness — edge dropout and :func:`repro.autodiff.functional.dropout`
alike — is a pure function of ``(keys, salts)`` rather than of a generator
stream.  The math is pure uint64 integer arithmetic, identical on every
platform.

Not a cryptographic generator — statistically more than adequate for
Bernoulli dropout masks.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
#: 2**-53: maps the top 53 bits of a uint64 onto [0, 1).
_INV_2_53 = float(2.0 ** -53)


def _finalize(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over a uint64 array (wraps silently)."""
    values = (values ^ (values >> _SHIFT_30)) * _MIX_1
    values = (values ^ (values >> _SHIFT_27)) * _MIX_2
    return values ^ (values >> _SHIFT_31)


def uniform_from_keys(keys: np.ndarray, *salts: int) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)``, one per key, salted by ``salts``.

    ``keys`` is any integer array (hashed edge identities, flat element
    indices); each salt — seed, epoch, layer index, call counter — is folded
    in with its own finalization round, so streams for different salt tuples
    are independent.  The same ``(key, salts)`` always yields the same
    uniform, on every platform.
    """
    mixed = np.asarray(keys).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        for salt in salts:
            mixed = _finalize(mixed + _GOLDEN * np.uint64(np.int64(salt)))
        mixed = _finalize(mixed)
    return (mixed >> _SHIFT_11).astype(np.float64) * _INV_2_53


def edge_keys(nodes: Union[np.ndarray, List[int]], edges: np.ndarray) -> np.ndarray:
    """Hash each subgraph edge's global ``(head, relation, tail)`` identity.

    ``edges`` is the usual ``(E, 3)`` local array and ``nodes`` the
    subgraph's global node ids (local index -> global id), so the returned
    ``(E,)`` uint64 keys identify graph edges independently of which
    subgraph — or which block-diagonal union — they appear in.
    """
    if edges.size == 0:
        return np.zeros(0, dtype=np.uint64)
    nodes_arr = np.asarray(nodes, dtype=np.int64)
    global_heads = nodes_arr[edges[:, 0]].astype(np.uint64)
    relations = edges[:, 1].astype(np.uint64)
    global_tails = nodes_arr[edges[:, 2]].astype(np.uint64)
    with np.errstate(over="ignore"):
        mixed = _finalize(global_heads + _GOLDEN)
        mixed = _finalize(mixed ^ (relations * _MIX_1))
        mixed = _finalize(mixed ^ (global_tails * _MIX_2))
    return mixed


def element_keys(size: int) -> np.ndarray:
    """Flat element-index keys for element-wise (non-edge) dropout masks."""
    return np.arange(size, dtype=np.uint64)
