"""GEN (Baek et al., 2020): graph extrapolation network, simplified.

GEN embeds an unseen entity by aggregating the embeddings of its *seen*
neighbours through a relation-aware transformation, trained with a
meta-learning-style simulation: during training a fraction of entities are
treated as "unseen" and embedded only from their neighbours.

In the DEKG scenario there are no edges between seen and unseen entities, so
the aggregation has nothing to aggregate from the original KG; unseen entities
fall back to near-random vectors — which is exactly the failure mode the paper
describes for GEN (§V-E, observation 7).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.autodiff import init
from repro.autodiff.module import Parameter
from repro.autodiff.tensor import Tensor, no_grad
from repro.baselines.distmult import DistMult
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.registry import register_model


@register_model("GEN", batch_invariant_scoring=True,
                description="meta-learned neighbour aggregation for unseen entities")
class GEN(DistMult):
    """Meta-learned neighbour-aggregation baseline (simplified GEN)."""

    name = "GEN"

    def __init__(self, num_entities: int, num_relations: int, embedding_dim: int = 32,
                 simulation_fraction: float = 0.3, **kwargs):
        super().__init__(num_entities, num_relations, embedding_dim, **kwargs)
        self.simulation_fraction = simulation_fraction
        self._checkpoint_init.update(simulation_fraction=simulation_fraction)
        rng = np.random.default_rng(self.seed)
        #: Relation-aware aggregation transform applied to neighbour embeddings.
        self.aggregation_weight = Parameter(init.xavier_uniform((embedding_dim, embedding_dim), rng=rng))
        self._inductive_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def fit(self, train_graph: KnowledgeGraph, epochs: int = 10) -> "GEN":
        super().fit(train_graph, epochs=epochs)
        # Meta-simulation pass: re-estimate a random subset of entities from
        # their neighbours so the aggregation transform is fitted.
        self._fit_aggregator(train_graph)
        self._inductive_cache.clear()
        return self

    def _fit_aggregator(self, graph: KnowledgeGraph) -> None:
        """Least-squares fit of the aggregation transform on simulated unseen entities."""
        entities = graph.entities()
        if not entities:
            return
        rng = np.random.default_rng(self.seed)
        simulated = rng.choice(entities, size=max(1, int(len(entities) * self.simulation_fraction)),
                               replace=False)
        inputs, targets = [], []
        embeddings = self.entity_embeddings.weight.data
        for entity in simulated:
            aggregated = self._aggregate_neighbors(graph, int(entity), embeddings)
            if aggregated is None:
                continue
            inputs.append(aggregated)
            targets.append(embeddings[int(entity)])
        if not inputs:
            return
        source = np.stack(inputs)
        target = np.stack(targets)
        # Ridge-regularized least squares: W = (XᵀX + λI)⁻¹ Xᵀ Y
        regularizer = 1e-3 * np.eye(source.shape[1])
        weight = np.linalg.solve(source.T @ source + regularizer, source.T @ target)
        self.aggregation_weight.data = weight

    def _aggregate_neighbors(self, graph: KnowledgeGraph, entity: int,
                             embeddings: np.ndarray) -> Optional[np.ndarray]:
        """Mean of (neighbour ± relation) messages, the GEN aggregation input."""
        messages = []
        for triple in graph.triples_of(entity):
            neighbor = triple.tail if triple.head == entity else triple.head
            if neighbor == entity:
                continue
            relation_vec = self.relation_embeddings.weight.data[triple.relation]
            messages.append(embeddings[neighbor] + relation_vec)
        if not messages:
            return None
        return np.mean(messages, axis=0)

    # ------------------------------------------------------------------ #
    def set_context(self, graph: KnowledgeGraph) -> None:
        super().set_context(graph)
        self._inductive_cache.clear()

    def _entity_vector(self, entity: int) -> np.ndarray:
        """Embedding of ``entity``: trained, aggregated-from-context, or random."""
        if entity in self._trained_entities:
            return self.entity_embeddings.weight.data[entity]
        cached = self._inductive_cache.get(entity)
        if cached is not None:
            return cached
        vector = self.entity_embeddings.weight.data[entity]
        if self._context is not None:
            aggregated = self._aggregate_neighbors(
                self._context, entity, self.entity_embeddings.weight.data
            )
            if aggregated is not None:
                vector = aggregated @ self.aggregation_weight.data
        self._inductive_cache[entity] = vector
        return vector

    def score(self, triple: Triple) -> float:
        with no_grad():
            head = self._entity_vector(triple.head)
            tail = self._entity_vector(triple.tail)
            relation = self.relation_embeddings.weight.data[triple.relation]
            return float(np.sum(head * relation * tail))

    def score_many(self, triples) -> np.ndarray:
        return np.array([self.score(t) for t in triples], dtype=np.float64)
