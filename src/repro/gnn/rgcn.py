"""R-GCN layer with basis decomposition and edge attention (Eq. 8–9).

The layer follows Schlichtkrull et al. (2018) with the GraIL-style edge
attention AGGREGATE used by the paper: each edge's message is a
relation-specific linear transform of the source node representation, scaled
by a learned attention score computed from the source, destination and
relation embeddings.

The edge path never builds an ``(E, ·)`` feature concat.  The attention logit
``[x_src | x_dst | r] · w + b`` splits into ``x_src · w_src + x_dst · w_dst +
r · w_rel + b``: each term is a row-wise multiply-and-sum over nodes (or
relations), gathered as one scalar per edge.  The per-edge scale — sigmoid
gate × dropout mask × degree norm — is folded into the ``(E, B)`` basis
coefficients, and projection, basis contraction and the sum into
destinations run as one autodiff node
(:func:`~repro.autodiff.tensor.basis_message_passing`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.autodiff import init
from repro.autodiff.layers import Linear
from repro.autodiff.module import Module, Parameter
from repro.autodiff.tensor import Tensor, basis_message_passing, gather
from repro.gnn.edge_dropout import DropoutClock, counter_dropout_mask, edge_keys
from repro.gnn.message_passing import degree_normalization


class RGCNLayer(Module):
    """One relational graph convolution layer.

    Parameters
    ----------
    in_dim, out_dim:
        Input/output node feature dimensions.
    num_relations:
        Size of the shared relation vocabulary.
    num_bases:
        Number of basis matrices for the basis decomposition (caps the
        parameter count at ``num_bases`` weight matrices instead of one per
        relation).
    use_attention:
        Enable the GraIL-style edge attention gate.
    dropout:
        Edge dropout rate β applied to messages during training.  Masks are
        drawn from a ``(seed, epoch, layer, edge)`` counter
        (:mod:`repro.gnn.edge_dropout`), not a shared stream, so an edge's
        keep/drop decision does not depend on how subgraphs are batched.
    clock:
        Shared :class:`~repro.gnn.edge_dropout.DropoutClock` carrying the
        counter's ``(seed, epoch)``; a private clock (seed 0) is created when
        omitted (standalone layer usage).
    layer_index:
        This layer's position in its stack — the counter's layer salt, so
        stacked layers draw independent masks.
    """

    def __init__(self, in_dim: int, out_dim: int, num_relations: int,
                 num_bases: int = 4, use_attention: bool = True,
                 dropout: float = 0.0, rng: Optional[Any] = None,
                 clock: Optional[DropoutClock] = None, layer_index: int = 0):
        super().__init__()
        if num_bases < 1:
            raise ValueError("num_bases must be >= 1")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_relations = num_relations
        self.num_bases = min(num_bases, num_relations)
        self.use_attention = use_attention

        rng = rng or np.random.default_rng()
        # Basis decomposition: W_r = sum_b coeff[r, b] * basis[b]
        self.basis = Parameter(init.xavier_uniform((self.num_bases, in_dim * out_dim), rng=rng))
        self.coefficients = Parameter(init.xavier_uniform((num_relations, self.num_bases), rng=rng))
        self.self_weight = Parameter(init.xavier_uniform((in_dim, out_dim), rng=rng))
        self.bias = Parameter(init.zeros((out_dim,)))
        if use_attention:
            # Read in [src | dst | rel] row blocks, never applied to a concat;
            # kept a Linear so checkpoint names and shapes stay the same.
            self.attention = Linear(2 * in_dim + out_dim, 1, rng=rng)
        else:
            self.attention = None
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.dropout_rate = dropout
        self.dropout_clock = clock if clock is not None else DropoutClock(0)
        self.layer_index = layer_index
        self.relation_embedding = Parameter(init.xavier_uniform((num_relations, out_dim), rng=rng))

    # ------------------------------------------------------------------ #
    def relation_weights(self, relations) -> Tensor:
        """Per-edge relation weight matrices, shape ``(num_edges, in_dim, out_dim)``."""
        coeff = self.coefficients.gather_rows(relations)  # (E, B)
        flat = coeff @ self.basis  # (E, in*out)
        return flat.reshape(len(relations), self.in_dim, self.out_dim)

    def edge_messages(self, node_features: Tensor, sources, relations, destinations,
                      edge_weights: Tensor) -> Tensor:
        """Messages ``w_e · x_src @ W_rel`` summed into their destinations, ``(N, out_dim)``.

        Instead of materializing one ``(in_dim, out_dim)`` matrix per edge,
        exploit ``W_r = Σ_b coeff[r, b] · basis_b``: project every node
        through all bases in one GEMM and take each edge's
        coefficient-weighted sum over the (small) basis axis —
        ``Σ_b coeff[rel_e, b] · (x_src_e @ basis_b)`` — inside one
        :func:`~repro.autodiff.tensor.basis_message_passing` node, which also
        sums the messages into their destinations.  ``edge_weights`` (shape
        ``(E, 1)``) scales each edge's message; it is folded into the
        ``(E, num_bases)`` coefficients.
        """
        coeff = self.coefficients.gather_rows(relations) * edge_weights  # (E, B)
        # (in, B*out) view of the basis stack -> one GEMM for all projections.
        basis_matrix = (self.basis
                        .reshape(self.num_bases, self.in_dim, self.out_dim)
                        .transpose(1, 0, 2)
                        .reshape(self.in_dim, self.num_bases * self.out_dim))
        return basis_message_passing(node_features, basis_matrix, coeff, sources,
                                     destinations)

    def attention_gate(self, node_features: Tensor, sources, relations,
                       destinations) -> Tensor:
        """Sigmoid edge attention ``σ([x_src | x_dst | r] · w + b)``, shape ``(E, 1)``.

        The logit is computed as ``a_src[src] + a_dst[dst] + a_rel[rel] + b``,
        where ``a_src = x · w_src`` (and likewise for the destination and
        relation blocks of ``attention.weight``) is a row-wise
        multiply-and-sum: one scalar per node or relation, then one scalar
        gather per edge.  A row's sum does not depend on how many rows the
        batch has, unlike a matrix-vector product.
        """
        weight = self.attention.weight.reshape(-1)
        w_src = weight[:self.in_dim]
        w_dst = weight[self.in_dim:2 * self.in_dim]
        w_rel = weight[2 * self.in_dim:]
        per_source = (node_features * w_src).sum(axis=1)  # (N,)
        per_destination = (node_features * w_dst).sum(axis=1)  # (N,)
        per_relation = (self.relation_embedding * w_rel).sum(axis=1)  # (R,)
        logits = (gather(per_source, sources) + gather(per_destination, destinations)
                  + gather(per_relation, relations) + self.attention.bias)
        return logits.sigmoid().reshape(-1, 1)

    def forward(self, node_features: Tensor, edges,
                edge_identity: Optional[Any] = None) -> Tensor:
        """Run one round of relational message passing.

        ``edges`` is an ``(E, 3)`` integer array of (source, relation,
        destination) *local* node indices.  ``edge_identity`` optionally
        carries per-edge uint64 keys hashing each edge's *global*
        ``(head, relation, tail)`` identity (see
        :func:`repro.gnn.edge_dropout.edge_keys`); training-time dropout
        masks are drawn from them, so the same graph edge gets the same mask
        in every subgraph and union-graph composition.  Without keys the
        local edge triple is hashed instead (standalone layer usage).
        """
        num_nodes = node_features.shape[0]
        self_message = node_features @ self.self_weight

        if edges.size == 0:
            out = self_message + self.bias
            return out.relu()

        sources = edges[:, 0]
        relations = edges[:, 1]
        destinations = edges[:, 2]

        # Constant per-edge scale: degree norm, times the dropout mask.
        scale = degree_normalization(destinations, num_nodes)  # (E, 1)
        if self.training and self.dropout_rate > 0:
            if edge_identity is None:
                edge_identity = edge_keys(np.arange(num_nodes, dtype=np.int64), edges)
            scale = scale * counter_dropout_mask(
                self.dropout_clock, self.layer_index, edge_identity,
                self.dropout_rate)
        edge_weights = Tensor(scale)
        if self.attention is not None:
            edge_weights = self.attention_gate(
                node_features, sources, relations, destinations) * edge_weights

        aggregated = self.edge_messages(node_features, sources, relations, destinations,
                                        edge_weights)
        out = self_message + aggregated + self.bias
        return out.relu()
