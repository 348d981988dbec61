"""GSM — GNN-based Subgraph Modeling (§IV-C).

GSM extracts the enclosing subgraph around a target link, labels its nodes
with the improved double-radius scheme, encodes it with an attention R-GCN and
scores the link from the concatenation of the pooled graph vector, the head
and tail node vectors and a relation embedding (Eq. 11):

    φ_tpo(e_i, r_k, e_j) = [h_G ⊕ h_i ⊕ h_j ⊕ r_tpo] W
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff import init
from repro.autodiff.layers import Linear
from repro.autodiff.module import Module, Parameter
from repro.autodiff.tensor import Tensor
from repro.gnn.edge_dropout import edge_keys
from repro.gnn.encoder import SubgraphEncoder
from repro.gnn.pooling import segment_mean_pool
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.extraction import ExtractedSubgraph, extract_enclosing_subgraph
from repro.subgraph.labeling import node_label_features


class GSM(Module):
    """Topological scoring module."""

    def __init__(self, num_relations: int, hidden_dim: int = 32, hops: int = 2,
                 num_layers: int = 2, num_bases: int = 4, edge_dropout: float = 0.5,
                 use_attention: bool = True, improved_labeling: bool = True,
                 max_subgraph_nodes: int = 150,
                 rng: Optional[np.random.Generator] = None,
                 dropout_seed: Optional[int] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_relations = num_relations
        self.hops = hops
        self.improved_labeling = improved_labeling
        self.max_subgraph_nodes = max_subgraph_nodes
        input_dim = 2 * (hops + 1)
        self.encoder = SubgraphEncoder(
            input_dim=input_dim,
            hidden_dim=hidden_dim,
            num_relations=num_relations,
            num_layers=num_layers,
            num_bases=num_bases,
            dropout=edge_dropout,
            use_attention=use_attention,
            rng=rng,
            dropout_seed=dropout_seed,
        )
        #: Relation embeddings from the topological perspective (r_tpo).
        self.relation_topological = Parameter(init.xavier_uniform((num_relations, hidden_dim), rng=rng))
        #: The final linear scorer W of Eq. 11.
        self.scorer = Linear(4 * hidden_dim, 1, rng=rng)

    # ------------------------------------------------------------------ #
    def set_dropout_epoch(self, epoch: int) -> None:
        """Advance the counter-seeded edge-dropout clock to ``epoch``.

        Trainers call this at the top of every epoch; an edge's dropout mask
        is a pure function of ``(seed, epoch, layer, edge)``, so batched and
        sequential scoring of the same triples draw identical masks.
        """
        self.encoder.dropout_clock.epoch = int(epoch)

    def extract(self, graph: KnowledgeGraph, triple: Triple) -> ExtractedSubgraph:
        """Extract the labeled subgraph around ``triple`` from ``graph``."""
        return extract_enclosing_subgraph(
            graph, triple, hops=self.hops,
            improved_labeling=self.improved_labeling,
            max_nodes=self.max_subgraph_nodes,
        )

    def score_subgraph(self, subgraph: ExtractedSubgraph) -> Tensor:
        """Score an already-extracted subgraph (Eq. 11)."""
        graph_vector, head_vector, tail_vector = self.encoder.encode(subgraph)
        relation_vector = self.relation_topological[int(subgraph.target.relation)]
        joint = F.concat([
            graph_vector.reshape(1, -1),
            head_vector.reshape(1, -1),
            tail_vector.reshape(1, -1),
            relation_vector.reshape(1, -1),
        ], axis=1)
        return self._score_joint(joint).reshape(())

    def score(self, graph: KnowledgeGraph, triple: Triple) -> Tensor:
        """Extract and score the subgraph around ``triple``."""
        return self.score_subgraph(self.extract(graph, triple))

    # ------------------------------------------------------------------ #
    # batched scoring
    # ------------------------------------------------------------------ #
    def score_batch(self, subgraphs: Sequence[ExtractedSubgraph],
                    relations: Sequence[int],
                    edges_list: Optional[Sequence[np.ndarray]] = None) -> Tensor:
        """Score many subgraphs through the encoder in one pass (Eq. 11).

        The subgraphs are concatenated into a block-diagonal union graph (node
        feature rows stacked, edge indices offset per block), encoded with a
        single GNN forward, mean-pooled per block and scored together.  Message
        passing is purely index-driven, so this equals scoring each subgraph
        separately up to float64 rounding: the dense matrix products may round
        a row differently depending on how many rows they multiply (ROADMAP
        item 1).

        ``edges_list`` optionally overrides ``subgraph.edges`` per item (used
        to drop the target link from a cached, relation-agnostic extraction).
        """
        if len(subgraphs) != len(relations):
            raise ValueError("score_batch needs one relation per subgraph")
        if not subgraphs:
            return Tensor(np.zeros(0))
        if edges_list is None:
            edges_list = [subgraph.edges for subgraph in subgraphs]
        num_graphs = len(subgraphs)
        node_counts = np.array([subgraph.num_nodes for subgraph in subgraphs], dtype=np.int64)
        offsets = np.zeros(num_graphs + 1, dtype=np.int64)
        np.cumsum(node_counts, out=offsets[1:])

        # One one-hot pass over the union's labels: row for row the
        # concatenation of every block's node_features.
        features = node_label_features(
            np.concatenate([subgraph.node_labels for subgraph in subgraphs]), self.hops)
        need_keys = self.encoder.needs_edge_keys
        blocks = []
        key_blocks = []
        for subgraph, edges, offset in zip(subgraphs, edges_list, offsets[:-1]):
            if len(edges):
                # Widened to int64 in the copy the shift needs anyway.
                shifted = edges.astype(np.int64)
                shifted[:, 0] += offset
                shifted[:, 2] += offset
                blocks.append(shifted)
                # Global-identity dropout keys come from the *unshifted*
                # local edges, so an edge's mask does not depend on which
                # union block it lands in.
                if need_keys:
                    key_blocks.append(edge_keys(subgraph.nodes, edges))
        union_edges = np.concatenate(blocks) if blocks else np.zeros((0, 3), dtype=np.int64)
        union_keys = None
        if need_keys:
            union_keys = (np.concatenate(key_blocks) if key_blocks
                          else np.zeros(0, dtype=np.uint64))
        graph_ids = np.repeat(np.arange(num_graphs), node_counts)

        nodes = self.encoder.forward_features(Tensor(features), union_edges,
                                              edge_identity=union_keys)
        graph_vectors = segment_mean_pool(nodes, graph_ids, num_graphs)
        head_rows = offsets[:-1] + np.fromiter((s.head_row for s in subgraphs),
                                               np.int64, num_graphs)
        tail_rows = offsets[:-1] + np.fromiter((s.tail_row for s in subgraphs),
                                               np.int64, num_graphs)
        head_vectors = nodes.gather_rows(head_rows)
        tail_vectors = nodes.gather_rows(tail_rows)
        relation_vectors = self.relation_topological.gather_rows(
            np.asarray(relations, dtype=np.int64))
        joint = F.concat(
            [graph_vectors, head_vectors, tail_vectors, relation_vectors], axis=1)
        return self._score_joint(joint)

    def _score_joint(self, joint: Tensor) -> Tensor:
        """Apply the scorer ``W`` of Eq. 11 to ``(n, 4·hidden)`` rows, giving ``(n,)``.

        A row-wise multiply-and-sum rather than a matrix-vector product, so
        a row's score does not depend on how many rows are scored together.
        """
        return (joint * self.scorer.weight.reshape(-1)).sum(axis=1) + self.scorer.bias

    def score_batch_chunked(self, subgraphs: Sequence[ExtractedSubgraph],
                            relations: Sequence[int],
                            edges_list: Optional[Sequence[np.ndarray]] = None,
                            max_chunk: int = 64,
                            max_chunk_edges: int = 4096) -> Tensor:
        """Adaptively-chunked :meth:`score_batch` over a long candidate list.

        Chunks are sized by edge budget: many tiny subgraphs are merged into
        one union graph to amortize per-op overhead, while large subgraphs get
        small chunks so the union's intermediate arrays stay cache-resident.
        The chunk scores are concatenated back into one ``(n,)`` tensor, so
        the result is differentiable end-to-end and equal to a single
        :meth:`score_batch` call up to float64 rounding (see there).
        """
        if len(subgraphs) != len(relations):
            raise ValueError("score_batch_chunked needs one relation per subgraph")
        if not subgraphs:
            return Tensor(np.zeros(0))
        if edges_list is None:
            edges_list = [subgraph.edges for subgraph in subgraphs]
        chunks = []
        start = 0
        total = len(subgraphs)
        while start < total:
            stop = start + 1
            edge_budget = subgraphs[start].num_edges
            while (stop < total and stop - start < max_chunk
                   and edge_budget + subgraphs[stop].num_edges <= max_chunk_edges):
                edge_budget += subgraphs[stop].num_edges
                stop += 1
            chunks.append(self.score_batch(subgraphs[start:stop],
                                           relations[start:stop],
                                           edges_list[start:stop]))
            start = stop
        if len(chunks) == 1:
            return chunks[0]
        return F.concat(chunks)

    def embeddings(self, graph: KnowledgeGraph, triple: Triple) -> tuple[np.ndarray, np.ndarray]:
        """Return the (head, tail) topological embeddings used in the case study (Fig. 8)."""
        subgraph = self.extract(graph, triple)
        _, head_vector, tail_vector = self.encoder.encode(subgraph)
        return head_vector.data.copy(), tail_vector.data.copy()
