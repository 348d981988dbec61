"""The combined DEKG-ILP model (§IV).

The final score of a candidate link is the sum of the semantic score produced
by CLRM and the topological score produced by GSM (Eq. 13):

    φ(e_i, r_k, e_j) = φ_sem(e_i, r_k, e_j) + φ_tpo(e_i, r_k, e_j)

Both modules are entity-independent: CLRM embeds entities from their
relation-component tables against a shared relation feature space, GSM embeds
the local subgraph with structure-only node labels.  Either module can be
disabled through :class:`~repro.core.config.ModelConfig` to reproduce the
paper's ablations (DEKG-ILP-R removes the semantic score, DEKG-ILP-N disables
the improved node labeling).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autodiff.module import Module
from repro.autodiff.tensor import Tensor
from repro.core.clrm import CLRM
from repro.core.config import ModelConfig
from repro.core.gsm import GSM
from repro.core.relation_table import RelationComponentStore
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.registry import register_model
from repro.subgraph.provider import SubgraphProvider, masked_edges


#: ``ModelConfig`` fields that older checkpoints carry and restoring drops:
#: cache-policy, snapshot-count and per-pair-extraction switches that never
#: changed a score.
RETIRED_CONFIG_FIELDS = ("subgraph_cache_policy", "subgraph_cache_snapshots",
                         "batched_extraction")


class DEKGILP(Module):
    """Disconnected Emerging KG Oriented Inductive Link Prediction model."""

    def __init__(self, num_relations: int, config: Optional[ModelConfig] = None,
                 seed: Optional[int] = None):
        super().__init__()
        self.config = config or ModelConfig()
        self.num_relations = num_relations
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.clrm = CLRM(num_relations, self.config.embedding_dim, rng=rng) if self.config.use_semantic else None
        self.gsm = (
            GSM(
                num_relations,
                hidden_dim=self.config.gnn_hidden_dim,
                hops=self.config.subgraph_hops,
                num_layers=self.config.gnn_layers,
                num_bases=self.config.gnn_bases,
                edge_dropout=self.config.edge_dropout,
                use_attention=self.config.use_attention,
                improved_labeling=self.config.improved_labeling,
                max_subgraph_nodes=self.config.max_subgraph_nodes,
                rng=rng,
                dropout_seed=seed,
            )
            if self.config.use_topological
            else None
        )
        self._context_graph: Optional[KnowledgeGraph] = None
        self._tables: Optional[RelationComponentStore] = None
        #: Pinned-LRU store of relation-agnostic extractions, keyed by
        #: (head, tail) per CSR snapshot and shared across the three
        #: prediction forms during ranking.  Snapshot keying means in-place
        #: graph mutation and context switches can never serve a stale
        #: extraction.
        self.subgraph_provider: Optional[SubgraphProvider] = (
            SubgraphProvider(
                hops=self.config.subgraph_hops,
                improved_labeling=self.config.improved_labeling,
                max_nodes=self.config.max_subgraph_nodes,
                cache_size=self.config.subgraph_cache_size,
            )
            if self.config.use_topological
            else None
        )

    def use_subgraph_provider(self, provider: SubgraphProvider) -> None:
        """Adopt a shared extraction provider (see ``share_provider``).

        Extractions are relation-agnostic and keyed by (head, tail) per CSR
        snapshot, so several models scoring the same context graph can serve
        from one provider — but only when the extraction signature matches:
        a provider with different ``hops`` / ``improved_labeling`` /
        ``max_nodes`` would produce different subgraphs and hence different
        scores, so the mismatch raises instead of silently changing results.
        """
        if self.subgraph_provider is None:
            raise ValueError(
                "model has no subgraph provider (GSM disabled); "
                "nothing to share")
        expected = self.subgraph_provider.extraction_signature
        if provider.extraction_signature != expected:
            raise ValueError(
                f"provider signature {provider.extraction_signature} does not "
                f"match the model's extraction settings {expected}")
        self.subgraph_provider = provider

    # ------------------------------------------------------------------ #
    # context management
    # ------------------------------------------------------------------ #
    def set_context(self, graph: KnowledgeGraph) -> None:
        """Bind the graph used for relation tables and subgraph extraction.

        During training this is the original KG ``G``; at evaluation time it is
        ``G ∪ G'`` so that unseen entities contribute their own observed
        triples, while the target (test) links themselves stay excluded.
        """
        if graph.num_relations != self.num_relations:
            raise ValueError("context graph relation space does not match the model")
        self._context_graph = graph
        self._tables = RelationComponentStore(graph)
        # The subgraph provider needs no explicit invalidation: extractions
        # are keyed by CSR snapshot identity, so a different (or mutated)
        # context graph can never be served stale entries, and re-binding
        # the same graph keeps its extractions warm.

    @property
    def context_graph(self) -> KnowledgeGraph:
        if self._context_graph is None:
            raise RuntimeError("call set_context(graph) before scoring")
        return self._context_graph

    @property
    def tables(self) -> RelationComponentStore:
        if self._tables is None:
            raise RuntimeError("call set_context(graph) before scoring")
        return self._tables

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def semantic_score(self, triple: Triple) -> Tensor:
        """φ_sem of Eq. 4 (zero tensor when the CLRM module is disabled)."""
        if self.clrm is None:
            return Tensor(0.0)
        head_embedding = self.clrm.fuse(self.tables.table(triple.head))
        tail_embedding = self.clrm.fuse(self.tables.table(triple.tail))
        return self.clrm.score(head_embedding, triple.relation, tail_embedding)

    def topological_score(self, triple: Triple) -> Tensor:
        """φ_tpo of Eq. 11 (zero tensor when the GSM module is disabled)."""
        if self.gsm is None:
            return Tensor(0.0)
        return self.gsm.score(self.context_graph, triple)

    def forward(self, triple: Triple) -> Tensor:
        """Full score φ = φ_sem + φ_tpo (Eq. 13)."""
        return self.semantic_score(triple) + self.topological_score(triple)

    def score(self, triple: Triple) -> float:
        """Convenience: score a triple and return a plain float (no grad)."""
        from repro.autodiff.tensor import no_grad

        with no_grad():
            return float(self.forward(triple).data)

    def forward_batch(self, triples: Sequence[Triple]) -> Tensor:
        """Differentiable batch score φ = φ_sem + φ_tpo for many triples.

        This is the training-time counterpart of :meth:`score_many`: the same
        batched compute path (one CLRM fusion/scoring pass, chunked
        block-diagonal GSM union graphs over cached relation-agnostic
        extractions) but returning one ``(n,)`` autodiff tensor so a whole
        batch of positives and negatives backpropagates through a single
        graph.  It is numerically equivalent to stacking per-triple
        :meth:`forward` calls — including with edge dropout enabled, because
        dropout masks are counter-seeded per ``(seed, epoch, layer, edge)``
        (:mod:`repro.gnn.edge_dropout`) rather than drawn from a stream, so
        they do not depend on how the subgraphs are batched.
        """
        triples = list(triples)
        if not triples:
            return Tensor(np.zeros(0))
        total: Optional[Tensor] = None
        if self.clrm is not None:
            total = self.semantic_score_batch(triples)
        if self.gsm is not None:
            topological = self.topological_score_batch(triples)
            total = topological if total is None else total + topological
        if total is None:  # unreachable under ModelConfig validation
            total = Tensor(np.zeros(len(triples)))
        return total

    def score_many(self, triples: Sequence[Triple]) -> np.ndarray:
        """Score a batch of candidate triples (used by the ranking evaluator).

        Both modules are evaluated in vectorized form under ``no_grad``: CLRM
        fuses each distinct entity's relation-component table once and scores
        the whole batch with one DistMult pass; GSM reuses cached
        relation-agnostic subgraph extractions (one per ``(head, tail)`` pair,
        shared across the head/tail/relation prediction forms) and pushes them
        through the encoder as block-diagonal union graphs.
        """
        from repro.autodiff.tensor import no_grad

        triples = list(triples)
        if not triples:
            return np.zeros(0, dtype=np.float64)
        with no_grad():
            return np.asarray(self.forward_batch(triples).data, dtype=np.float64).copy()

    def semantic_score_batch(self, triples: List[Triple]) -> Tensor:
        """Vectorized φ_sem: one fusion per distinct entity, one scoring pass."""
        entities = sorted({e for t in triples for e in (t.head, t.tail)})
        tables = np.stack([self.tables.table(entity) for entity in entities])
        embeddings = self.clrm.fuse_batch(tables)
        row = {entity: index for index, entity in enumerate(entities)}
        head_rows = np.array([row[t.head] for t in triples], dtype=np.int64)
        tail_rows = np.array([row[t.tail] for t in triples], dtype=np.int64)
        relations = [t.relation for t in triples]
        return self.clrm.score_batch(
            embeddings.gather_rows(head_rows), relations, embeddings.gather_rows(tail_rows))

    def topological_score_batch(self, triples: List[Triple]) -> Tensor:
        """Batched φ_tpo over cached subgraph extractions (chunked union graphs).

        Extractions are relation-agnostic and cached per ``(head, tail)``
        pair, so a positive and its tail-corrupted negatives share the head
        extraction prefix and repeated candidates hit warm entries.  The
        cached extraction keeps every induced edge; the scored link itself is
        masked out per candidate when it exists in the context graph (matching
        what target-aware extraction would have dropped).
        """
        graph = self.context_graph
        subgraphs = self.subgraph_provider.get_many(
            graph, [(t.head, t.tail) for t in triples])
        edges_list = [masked_edges(graph, subgraph, triple)
                      for subgraph, triple in zip(subgraphs, triples)]
        relations = [t.relation for t in triples]
        return self.gsm.score_batch_chunked(subgraphs, relations, edges_list)

    @property
    def subgraph_cache_hits(self) -> int:
        """Lifetime extraction-cache hits (0 when GSM is disabled)."""
        return self.subgraph_provider.lifetime_hits if self.subgraph_provider else 0

    @property
    def subgraph_cache_misses(self) -> int:
        """Lifetime extraction-cache misses (0 when GSM is disabled)."""
        return self.subgraph_provider.lifetime_misses if self.subgraph_provider else 0

    def set_dropout_epoch(self, epoch: int) -> None:
        """Advance the counter-seeded edge-dropout clock (see GSM)."""
        if self.gsm is not None:
            self.gsm.set_dropout_epoch(epoch)

    def subgraph_cache_stats(self) -> Dict[str, float]:
        """Extraction-cache counters at both scopes, plus the derived rates.

        The historical ``hits`` / ``misses`` / ``hit_rate`` keys are the
        **lifetime** counters: they span the model's life regardless of how
        often the context switches, so cross-split reuse stays visible.  The
        ``context_*`` keys rewind whenever the active graph snapshot changes
        (``set_context`` to a new graph, in-place mutation), giving the
        per-context picture alongside.  Rates are ``nan`` until the first
        lookup in their scope; :meth:`reset_subgraph_cache_stats` rewinds
        everything.
        """
        if self.subgraph_provider is None:
            nan = float("nan")
            return {"hits": 0.0, "misses": 0.0, "hit_rate": nan,
                    "lifetime_hits": 0.0, "lifetime_misses": 0.0,
                    "lifetime_hit_rate": nan, "context_hits": 0.0,
                    "context_misses": 0.0, "context_hit_rate": nan,
                    "context_switches": 0.0, "entries": 0.0, "capacity": 0.0}
        return self.subgraph_provider.stats()

    def reset_subgraph_cache_stats(self) -> None:
        """Zero both counter scopes (the cache contents are kept)."""
        if self.subgraph_provider is not None:
            self.subgraph_provider.reset_stats()

    # ------------------------------------------------------------------ #
    # introspection for the case study (Fig. 8)
    # ------------------------------------------------------------------ #
    def link_embeddings(self, triple: Triple) -> Dict[str, np.ndarray]:
        """Return the semantic and topological head/tail embeddings of a link."""
        result: Dict[str, np.ndarray] = {}
        if self.clrm is not None:
            result["semantic_head"] = self.clrm.fuse(self.tables.table(triple.head)).data.copy()
            result["semantic_tail"] = self.clrm.fuse(self.tables.table(triple.tail)).data.copy()
        if self.gsm is not None:
            head_vec, tail_vec = self.gsm.embeddings(self.context_graph, triple)
            result["topological_head"] = head_vec
            result["topological_tail"] = tail_vec
        return result

    # ------------------------------------------------------------------ #
    def parameter_complexity(self) -> int:
        """Exact number of learned scalars (used for Fig. 7)."""
        return self.num_parameters()

    # ------------------------------------------------------------------ #
    # Checkpointable protocol (see repro.core.persistence)
    # ------------------------------------------------------------------ #
    def checkpoint_header(self) -> Dict[str, object]:
        return {"init": {"num_relations": self.num_relations,
                         "seed": self.seed,
                         "config": dataclasses.asdict(self.config)}}

    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        return self.state_dict()

    @classmethod
    def from_checkpoint(cls, header: Dict[str, object],
                        arrays: Dict[str, np.ndarray]) -> "DEKGILP":
        init = header["init"]
        config = {key: value for key, value in init["config"].items()
                  if key not in RETIRED_CONFIG_FIELDS}
        model = cls(int(init["num_relations"]),
                    config=ModelConfig(**config), seed=init["seed"])
        model.load_state_dict(dict(arrays))
        model.eval()
        return model


def _dekg_ilp_factory(num_entities: int, num_relations: int, *,
                      embedding_dim: int = 32, seed: Optional[int] = 0,
                      config: Optional[ModelConfig] = None, **overrides) -> DEKGILP:
    """Registry factory shared by DEKG-ILP and its ablation variants.

    ``num_entities`` is accepted for calling-convention uniformity; the model
    is entity-independent.  An explicit ``config`` wins over ``overrides``.
    """
    del num_entities
    if config is None:
        config_kwargs = {"embedding_dim": embedding_dim, "gnn_hidden_dim": embedding_dim}
        config_kwargs.update(overrides)
        config = ModelConfig(**config_kwargs)
    return DEKGILP(num_relations, config=config, seed=seed)


for _name, _model_overrides, _training_overrides, _description in (
    ("DEKG-ILP", {}, {}, "full model: CLRM semantic + GSM topological scores (§IV)"),
    ("DEKG-ILP-R", {"use_semantic": False}, {},
     "ablation: CLRM semantic score removed (§V-G)"),
    ("DEKG-ILP-C", {}, {"contrastive_weight": 0.0},
     "ablation: contrastive loss disabled (§V-G)"),
    ("DEKG-ILP-N", {"improved_labeling": False}, {},
     "ablation: GraIL double-radius labeling instead of the improved scheme (§V-G)"),
):
    register_model(_name, config_class=ModelConfig, model_class=DEKGILP,
                   trainer_driven=True, model_overrides=_model_overrides,
                   training_overrides=_training_overrides,
                   description=_description)(_dekg_ilp_factory)
