"""Counter-seeded per-edge dropout for the R-GCN message-passing stack.

Stream-based dropout (one shared ``Generator`` advanced by every forward
pass) makes the drawn masks depend on *how* a batch is scored: the
sequential trainer draws one mask per triple's subgraph while the batched
trainer draws one per block-diagonal union chunk, so the two loss paths
diverge as soon as ``edge_dropout > 0``.  This module replaces the stream
with a **counter**: the keep/drop decision for a graph edge is a pure
function of ``(seed, epoch, layer, edge identity)``, where the edge identity
hashes the *global* ``(head, relation, tail)`` triple the subgraph edge was
induced from.  Any composition of subgraphs into union graphs — or none —
therefore produces identical masks, which is what makes batched and
sequential training loss-equivalent with dropout enabled.

The splitmix64 uniform machinery itself lives in
:mod:`repro.backend.counter_rng` so that element-wise dropout
(:func:`repro.autodiff.functional.dropout`) shares it; this module re-exports
it unchanged and keeps the edge-dropout-specific state
(:class:`DropoutClock`, :func:`counter_dropout_mask`).
"""

from __future__ import annotations

from repro.backend.counter_rng import (  # noqa: F401  (re-exports)
    edge_keys,
    uniform_from_keys,
)


class DropoutClock:
    """Shared ``(seed, epoch)`` counter state for a stack of R-GCN layers.

    The encoder owns one clock; every layer combines it with its own layer
    index.  Trainers advance :attr:`epoch` at the top of each epoch so an
    edge's mask is redrawn across epochs but agrees within one, no matter
    how the scored subgraphs are batched.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.epoch = 0


def counter_dropout_mask(clock: DropoutClock, layer_index: int,
                         keys, rate: float):
    """Inverted-dropout scale factors, shape ``(len(keys), 1)``.

    Kept edges scale by ``1 / (1 - rate)``, dropped edges by zero — the same
    inverted-dropout convention as :func:`repro.autodiff.functional.dropout`,
    but drawn from the ``(seed, epoch, layer, edge)`` counter instead of a
    shared stream.
    """
    uniforms = uniform_from_keys(keys, clock.seed, clock.epoch, layer_index)
    mask = (uniforms >= rate) / (1.0 - rate)
    return mask.reshape(-1, 1)
