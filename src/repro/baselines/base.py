"""Common interfaces for every link-prediction model in the repository.

:class:`LinkPredictor` is the minimal protocol the evaluator relies on:
``fit`` on a training graph, ``set_context`` with the graph visible at test
time, and ``score`` for a candidate triple.

:class:`EmbeddingModel` implements the shared machinery of the transductive
entity-embedding baselines (TransE, RotatE, DistMult, ConvE): a margin-based
training loop with negative sampling, and the paper's inductive adaptation —
entities never seen during training are assigned random embeddings at test
time (§V-B).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.layers import Embedding
from repro.autodiff.module import Module
from repro.autodiff.optim import Adam, clip_grad_norm
from repro.autodiff.tensor import Tensor, no_grad
from repro.core.persistence import CheckpointableModule
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NegativeSampler
from repro.kg.triple import Triple


def check_context_fits(model, graph: KnowledgeGraph, num_entities: Optional[int] = None,
                       num_relations: Optional[int] = None) -> None:
    """Refuse a context graph with more entities or relations than ``model``'s
    tables hold, before any of its ids can index past them."""
    for kind, size, needed in (("entities", num_entities, graph.num_entities),
                               ("relations", num_relations, graph.num_relations)):
        if size is not None and needed > size:
            raise ValueError(
                f"{model.name} was built for {size} {kind}, but the context "
                f"graph has {needed}")


class LinkPredictor(abc.ABC):
    """Protocol every model (DEKG-ILP wrapper included) implements for evaluation."""

    name: str = "link-predictor"

    @abc.abstractmethod
    def fit(self, train_graph: KnowledgeGraph, epochs: int = 10) -> "LinkPredictor":
        """Train on the original KG ``G``."""

    @abc.abstractmethod
    def set_context(self, graph: KnowledgeGraph) -> None:
        """Bind the graph visible at evaluation time (``G ∪ G'``)."""

    @abc.abstractmethod
    def score(self, triple: Triple) -> float:
        """Plausibility score of a candidate triple (higher = more plausible)."""

    def score_many(self, triples: Sequence[Triple]) -> np.ndarray:
        """Vector of scores for several candidates (default: loop over ``score``)."""
        return np.array([self.score(t) for t in triples], dtype=np.float64)

    @abc.abstractmethod
    def num_parameters(self) -> int:
        """Number of learned scalar parameters (for the complexity study)."""


class EmbeddingModel(CheckpointableModule, LinkPredictor, Module, abc.ABC):
    """Shared training loop for entity-embedding (transductive) baselines."""

    name = "embedding-model"

    def __init__(self, num_entities: int, num_relations: int, embedding_dim: int = 32,
                 margin: float = 1.0, learning_rate: float = 0.01,
                 num_negatives: int = 2, batch_size: int = 64,
                 seed: Optional[int] = 0):
        Module.__init__(self)
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.embedding_dim = embedding_dim
        self.margin = margin
        self.learning_rate = learning_rate
        self.num_negatives = num_negatives
        self.batch_size = batch_size
        self.seed = seed
        self._checkpoint_init = dict(
            num_entities=num_entities, num_relations=num_relations,
            embedding_dim=embedding_dim, margin=margin,
            learning_rate=learning_rate, num_negatives=num_negatives,
            batch_size=batch_size, seed=seed)
        self._rng = np.random.default_rng(seed)
        self.entity_embeddings = Embedding(num_entities, self.entity_dim(), rng=self._rng)
        self.relation_embeddings = Embedding(num_relations, self.relation_dim(), rng=self._rng)
        self._trained_entities: set[int] = set()
        self._context: Optional[KnowledgeGraph] = None

    # ------------------------------------------------------------------ #
    # dimensions can differ per model (e.g. RotatE uses 2d entity vectors)
    # ------------------------------------------------------------------ #
    def entity_dim(self) -> int:
        return self.embedding_dim

    def relation_dim(self) -> int:
        return self.embedding_dim

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def score_batch(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        """Differentiable batch score from integer id arrays."""

    # ------------------------------------------------------------------ #
    def fit(self, train_graph: KnowledgeGraph, epochs: int = 10) -> "EmbeddingModel":
        self.train()
        self._trained_entities = set(train_graph.entities())
        sampler = NegativeSampler(train_graph, num_negatives=self.num_negatives, seed=self.seed)
        optimizer = Adam(self.parameters(), lr=self.learning_rate)
        triples = train_graph.triples
        for _ in range(epochs):
            order = self._rng.permutation(len(triples))
            for start in range(0, len(triples), self.batch_size):
                batch = [triples[i] for i in order[start:start + self.batch_size]]
                if not batch:
                    continue
                # One vectorized draw for the whole batch's corruptions.
                negatives = [neg for per_positive in sampler.sample_batch(batch)
                             for neg in per_positive]
                positives_repeated = [triple for triple in batch for _ in range(self.num_negatives)]

                pos = np.array([t.astuple() for t in positives_repeated], dtype=np.int64)
                neg = np.array([t.astuple() for t in negatives], dtype=np.int64)
                optimizer.zero_grad()
                positive_scores = self.score_batch(pos[:, 0], pos[:, 1], pos[:, 2])
                negative_scores = self.score_batch(neg[:, 0], neg[:, 1], neg[:, 2])
                loss = F.margin_ranking_loss(positive_scores, negative_scores, self.margin)
                loss.backward()
                norm = clip_grad_norm(self.parameters(), 5.0)
                if np.isfinite(norm):
                    optimizer.step()
        self.eval()
        self._randomize_unseen()
        return self

    def _randomize_unseen(self) -> None:
        """Re-randomize embeddings of entities never updated during training.

        This implements the paper's inductive adaptation of transductive
        methods: unseen entities "are randomly initialized because they cannot
        be obtained during training".
        """
        unseen = [e for e in range(self.num_entities) if e not in self._trained_entities]
        if unseen:
            fresh = self._rng.normal(0.0, 0.1, size=(len(unseen), self.entity_dim()))
            self.entity_embeddings.weight.data[unseen] = fresh

    # ------------------------------------------------------------------ #
    def set_context(self, graph: KnowledgeGraph) -> None:
        check_context_fits(self, graph, self.num_entities, self.num_relations)
        self._context = graph

    def score(self, triple: Triple) -> float:
        with no_grad():
            value = self.score_batch(
                np.array([triple.head]), np.array([triple.relation]), np.array([triple.tail])
            )
            return float(value.data.reshape(-1)[0])

    def score_many(self, triples: Sequence[Triple]) -> np.ndarray:
        array = np.array([t.astuple() for t in triples], dtype=np.int64)
        if array.size == 0:
            return np.zeros(0)
        with no_grad():
            values = self.score_batch(array[:, 0], array[:, 1], array[:, 2])
        return np.asarray(values.data, dtype=np.float64).reshape(-1)

    def num_parameters(self) -> int:
        return Module.num_parameters(self)

    # ------------------------------------------------------------------ #
    # Checkpointable extras: which entities were seen during training is
    # learned state (GEN's inductive aggregation branches on it), so it
    # rides along in the checkpoint header.
    # ------------------------------------------------------------------ #
    def _checkpoint_extra(self) -> Dict[str, object]:
        return {"trained_entities": sorted(int(e) for e in self._trained_entities)}

    def _restore_checkpoint_extra(self, extra: Dict[str, object]) -> None:
        self._trained_entities = {int(e) for e in extra.get("trained_entities", [])}
