"""Multi-layer subgraph encoder used by GSM and the GraIL/TACT baselines."""

from __future__ import annotations

from typing import Any, Optional

from repro.backend import hxp

from repro.autodiff.layers import Linear
from repro.autodiff.module import Module
from repro.autodiff.tensor import Tensor
from repro.gnn.edge_dropout import DropoutClock, edge_keys
from repro.gnn.pooling import mean_pool_nodes
from repro.gnn.rgcn import RGCNLayer
from repro.subgraph.extraction import ExtractedSubgraph


class SubgraphEncoder(Module):
    """Encode an extracted, labeled subgraph into node and graph representations.

    The encoder projects the one-hot double-radius node features into a hidden
    space, applies ``num_layers`` R-GCN layers and returns the final node
    matrix; convenience accessors give the head/tail/graph vectors the GSM
    scoring function needs.
    """

    def __init__(self, input_dim: int, hidden_dim: int, num_relations: int,
                 num_layers: int = 2, num_bases: int = 4, dropout: float = 0.0,
                 use_attention: bool = True, rng: Optional[Any] = None,
                 dropout_seed: Optional[int] = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or hxp.random.default_rng()
        #: Shared (seed, epoch) counter for the layers' per-edge dropout —
        #: trainers advance `dropout_clock.epoch` so masks are redrawn per
        #: epoch but agree across batching strategies within one.
        self.dropout_clock = DropoutClock(dropout_seed if dropout_seed is not None else 0)
        self.input_projection = Linear(input_dim, hidden_dim, rng=rng)
        self.layers = [
            RGCNLayer(hidden_dim, hidden_dim, num_relations, num_bases=num_bases,
                      use_attention=use_attention, dropout=dropout, rng=rng,
                      clock=self.dropout_clock, layer_index=index)
            for index in range(num_layers)
        ]
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers

    @property
    def needs_edge_keys(self) -> bool:
        """Whether a forward pass reads dropout edge keys.

        Only a layer in training mode with a positive dropout rate draws a
        mask; otherwise hashing the edge identities is wasted work.
        """
        return any(layer.training and layer.dropout_rate > 0 for layer in self.layers)

    def forward(self, subgraph: ExtractedSubgraph) -> Tensor:
        """Return the ``(num_nodes, hidden_dim)`` matrix of node representations."""
        keys = (edge_keys(subgraph.nodes, subgraph.edges)
                if self.needs_edge_keys else None)
        return self.forward_features(Tensor(subgraph.node_features), subgraph.edges,
                                     edge_identity=keys)

    def forward_features(self, features: Tensor, edges,
                         edge_identity: Optional[Any] = None) -> Tensor:
        """Run the GNN stack on raw node features and an edge array.

        This is the substrate shared by single-subgraph encoding and the
        batched scoring path: because message passing is purely index-driven,
        several subgraphs concatenated into one block-diagonal union graph
        (node rows stacked, edge indices offset per block) encode in a single
        pass with results identical to encoding each subgraph separately.
        ``edge_identity`` carries the per-edge global-identity keys the
        counter-seeded dropout draws masks from; passing the concatenated
        per-block keys is what keeps union-graph dropout equal to per-
        subgraph dropout.
        """
        hidden = self.input_projection(features)
        for layer in self.layers:
            hidden = layer(hidden, edges, edge_identity=edge_identity)
        return hidden

    def encode(self, subgraph: ExtractedSubgraph) -> tuple[Tensor, Tensor, Tensor]:
        """Return ``(graph_vector, head_vector, tail_vector)`` for ``subgraph``."""
        nodes = self.forward(subgraph)
        graph_vector = mean_pool_nodes(nodes)
        head_vector = nodes[subgraph.head_index()]
        tail_vector = nodes[subgraph.tail_index()]
        return graph_vector, head_vector, tail_vector
