"""Configuration dataclasses for the DEKG-ILP model and its training loop.

Defaults follow the optimal configuration reported in §V-D of the paper:
``lr = 0.01``, feature dimension ``d = 32``, edge dropout ``β = 0.5`` and
contrastive loss coefficient ``σ = 0.1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class ModelConfig:
    """Hyper-parameters of the DEKG-ILP architecture."""

    embedding_dim: int = 32
    """Dimension ``d`` of relation-specific features and relation embeddings."""

    gnn_hidden_dim: int = 32
    """Hidden dimension of the R-GCN node representations."""

    gnn_layers: int = 2
    """Number of R-GCN layers ``L``."""

    gnn_bases: int = 4
    """Number of basis matrices in the R-GCN basis decomposition."""

    subgraph_hops: int = 2
    """Neighborhood radius ``t`` for enclosing-subgraph extraction."""

    edge_dropout: float = 0.5
    """Edge dropout rate β inside the GNN."""

    use_attention: bool = True
    """Enable the GraIL-style edge attention aggregation."""

    use_semantic: bool = True
    """Include the CLRM score φ_sem (False reproduces the DEKG-ILP-R ablation)."""

    use_topological: bool = True
    """Include the GSM score φ_tpo."""

    improved_labeling: bool = True
    """Keep one-sided nodes with the -1 sentinel (False → DEKG-ILP-N ablation)."""

    contrastive_margin: float = 1.0
    """Margin γ of the contrastive triplet loss (Eq. 7)."""

    ranking_margin: float = 1.0
    """Margin γ of the score ranking loss (Eq. 14)."""

    contrastive_scaling: float = 2.0
    """Scaling factor θ used by the relation variation/addition operations."""

    max_subgraph_nodes: int = 150
    """Safety cap on extracted subgraph size."""

    subgraph_cache_size: int = 4096
    """Entry capacity of the extraction cache's LRU portion; up to as many
    true-pair extractions are pinned on top of it (see
    :class:`repro.subgraph.provider.PinnedLRU`)."""

    def __post_init__(self):
        if self.embedding_dim < 1 or self.gnn_hidden_dim < 1:
            raise ValueError("embedding dimensions must be positive")
        if not (self.use_semantic or self.use_topological):
            raise ValueError("at least one of use_semantic / use_topological must be enabled")
        if not 0.0 <= self.edge_dropout < 1.0:
            raise ValueError("edge_dropout must be in [0, 1)")
        if self.subgraph_hops < 1:
            raise ValueError("subgraph_hops must be >= 1")
        if self.subgraph_cache_size < 1:
            raise ValueError("subgraph_cache_size must be >= 1")


#: Prediction forms the filtered-ranking protocol understands.
VALID_PREDICTION_FORMS = ("head", "tail", "relation")


@dataclass
class EvalConfig:
    """Hyper-parameters of the filtered-ranking evaluation protocol (§V-C)."""

    forms: Tuple[str, ...] = ("head", "tail")
    """Prediction forms to rank; the paper uses head, tail and relation."""

    max_candidates: Optional[int] = 50
    """Corrupted candidates per (triple, form); ``None`` ranks the full set."""

    hits_levels: Tuple[int, ...] = (1, 5, 10)
    """The N values reported as Hits@N."""

    seed: int = 0
    """Base seed of the counter-seeded candidate draws.  Each (triple, form)
    pair derives its own generator from ``(seed, triple_index, form_index)``,
    so candidate sets do not depend on evaluation order or worker count."""

    workers: int = 1
    """Worker processes for evaluation sharding.  ``1`` ranks in-process;
    ``N > 1`` splits the (triple, form) work list into contiguous shards and
    fans them out over ``N`` worker processes, each holding its own model
    replica.  Results are bit-identical across worker counts."""

    shard_timeout: Optional[float] = 300.0
    """Seconds one shard attempt may run before the supervisor declares it
    hung and reassigns it (``None`` disables deadlines).  Only meaningful
    with ``workers > 1``; see :class:`repro.resilience.RetryPolicy`."""

    shard_attempts: int = 3
    """Total pool attempts per shard (first run + retries, with exponential
    backoff) before it degrades to in-process execution in the parent."""

    def __post_init__(self):
        self.forms = tuple(self.forms)
        self.hits_levels = tuple(self.hits_levels)
        for form in self.forms:
            if form not in VALID_PREDICTION_FORMS:
                raise ValueError(
                    f"unknown prediction form {form!r}; choose from {VALID_PREDICTION_FORMS}")
        if not self.forms:
            raise ValueError("at least one prediction form is required")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1 or None")
        if any(level < 1 for level in self.hits_levels):
            raise ValueError("hits levels must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive or None")
        if self.shard_attempts < 1:
            raise ValueError("shard_attempts must be >= 1")


@dataclass
class TrainingConfig:
    """Hyper-parameters of the optimization loop (Algorithm 1)."""

    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 16
    num_negatives: int = 1
    """Negative triplets per positive (the paper uses 1)."""

    contrastive_weight: float = 0.1
    """Loss coefficient σ in Eq. 15 (0 reproduces the DEKG-ILP-C ablation)."""

    contrastive_examples: int = 2
    """Positive and negative contrastive examples sampled per entity per batch
    (the paper uses 10 per epoch; smaller by default for CPU-scale runs)."""

    batched: bool = True
    """Route the ranking loss through the batched scorer
    (:meth:`~repro.core.model.DEKGILP.forward_batch`): one autodiff graph per
    batch instead of one per positive/negative triple.  ``False`` falls back
    to the sequential per-triple path (kept for equivalence testing and
    benchmarking); both modes draw identical negatives and contrastive pairs
    under the same seed."""

    grad_clip: float = 5.0
    seed: int = 0
    verbose: bool = False

    checkpoint_every: int = 0
    """Epoch interval of the trainer's crash-resume journal.  ``N > 0``
    writes an atomic journal checkpoint (model parameters, optimizer
    moments, RNG states, epoch index) after every ``N``-th epoch when the
    trainer was given a journal path; ``0`` disables journaling.  Resuming
    from the journal reproduces the uninterrupted run's final parameters bit
    for bit — journals are written only at epoch boundaries, never
    mid-epoch."""

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.contrastive_weight < 0:
            raise ValueError("contrastive_weight must be non-negative")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables journaling)")
