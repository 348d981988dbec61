"""Graph read-out functions."""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor, segment_mean


def mean_pool_nodes(node_representations: Tensor) -> Tensor:
    """Average-pool node representations into a single graph vector (Eq. 10)."""
    return node_representations.mean(axis=0)


def sum_pool_nodes(node_representations: Tensor) -> Tensor:
    """Sum-pool node representations (provided for ablation experiments)."""
    return node_representations.sum(axis=0)


def segment_mean_pool(node_representations: Tensor, graph_ids,
                      num_graphs: int) -> Tensor:
    """Average-pool a block-diagonal batch of graphs in one pass.

    ``graph_ids[i]`` assigns node row ``i`` to its graph; the result row ``g``
    is the mean of that graph's node representations (Eq. 10 applied per
    graph).  Used by the batched GSM scoring path.
    """
    return segment_mean(node_representations, graph_ids, num_graphs)


def max_pool_nodes(node_representations: Tensor) -> Tensor:
    """Max-pool node representations (provided for ablation experiments).

    Implemented with a softmax-free hard max on the forward values; gradients
    flow only to the selected entries via the indexing op.
    """
    argmax = np.argmax(node_representations.data, axis=0)
    columns = np.arange(node_representations.shape[1])
    return node_representations[argmax, columns]
