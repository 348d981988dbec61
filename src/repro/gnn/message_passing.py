"""Sparse relational message passing built on the scatter-add primitive.

:func:`aggregate_messages` sums finished per-edge messages into their
destination nodes through :func:`repro.autodiff.tensor.scatter_add`, so one
layer over ``E`` edges costs ``O(E * dim)`` in time and memory.  The R-GCN
layer does this sum inside its fused
:func:`~repro.autodiff.tensor.basis_message_passing` node instead, through
the same ``scatter_rows`` kernel.  The previous implementation —
kept as :func:`aggregate_messages_dense` for equivalence tests and
benchmarking — materialized a dense ``(num_nodes, num_edges)`` one-hot scatter
matrix per layer per subgraph, which dominated evaluation cost.
"""

from __future__ import annotations

import numpy as np

from repro.backend import kernels

from repro.autodiff.tensor import Tensor, scatter_add


def aggregate_messages(messages: Tensor, destinations, num_nodes: int) -> Tensor:
    """Sum edge ``messages`` into their destination nodes.

    Parameters
    ----------
    messages:
        ``(num_edges, dim)`` tensor, one finished message per edge (any
        attention or normalization weight already applied).
    destinations:
        ``(num_edges,)`` integer array of destination node indices.
    num_nodes:
        Number of rows of the output.

    Gradients flow to ``messages`` through the autodiff engine; the backward
    of the scatter is a plain row gather.
    """
    destinations = np.asarray(destinations, dtype=np.int64)
    return scatter_add(messages, destinations, num_nodes)


def aggregate_messages_dense(messages: Tensor, destinations, num_nodes: int) -> Tensor:
    """Reference implementation via a dense one-hot scatter matrix.

    Builds the ``(num_nodes, num_edges)`` matrix the optimized path avoids.
    Retained only as the ground truth for equivalence tests and as the
    baseline in ``benchmarks/bench_message_passing.py``.
    """
    destinations = np.asarray(destinations, dtype=np.int64)
    num_edges = messages.shape[0]
    scatter = np.zeros((num_nodes, num_edges), dtype=np.float64)
    scatter[destinations, np.arange(num_edges)] = 1.0
    return Tensor(scatter) @ messages


def degree_normalization(destinations, num_nodes: int):
    """Per-edge ``1 / in_degree(destination)`` normalization coefficients."""
    destinations = np.asarray(destinations, dtype=np.int64)
    counts = kernels.segment_counts(destinations, num_nodes)
    counts = np.where(counts == 0, 1.0, counts)
    return (1.0 / counts)[destinations][:, None]
