"""Tests for GSM, the combined DEKG-ILP model and the Trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.gsm import GSM
from repro.core.model import DEKGILP
from repro.core.trainer import Trainer
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple


@pytest.fixture
def gsm(tiny_graph):
    return GSM(num_relations=3, hidden_dim=8, hops=2, edge_dropout=0.0,
               rng=np.random.default_rng(0))


class TestGSM:
    def test_score_is_scalar(self, gsm, tiny_graph):
        score = gsm.score(tiny_graph, Triple(0, 1, 2))
        assert score.data.shape == ()
        assert np.isfinite(score.data)

    def test_score_bridging_link(self, gsm, tiny_graph):
        # entities 0 and 5 live far apart; with hops=2 the subgraph is effectively split
        score = gsm.score(tiny_graph, Triple(0, 0, 5))
        assert np.isfinite(score.data)

    def test_extract_uses_improved_labeling(self, tiny_graph):
        improved = GSM(3, hidden_dim=4, hops=1, improved_labeling=True,
                       rng=np.random.default_rng(0))
        pruned = GSM(3, hidden_dim=4, hops=1, improved_labeling=False,
                     rng=np.random.default_rng(0))
        target = Triple(0, 0, 4)
        assert improved.extract(tiny_graph, target).num_nodes >= pruned.extract(tiny_graph, target).num_nodes

    def test_gradients_flow(self, gsm, tiny_graph):
        score = gsm.score(tiny_graph, Triple(0, 1, 2))
        score.backward()
        assert gsm.relation_topological.grad is not None
        assert gsm.scorer.weight.grad is not None

    def test_embeddings_shapes(self, gsm, tiny_graph):
        head, tail = gsm.embeddings(tiny_graph, Triple(0, 1, 2))
        assert head.shape == (8,)
        assert tail.shape == (8,)

    def test_relation_embedding_changes_score(self, gsm, tiny_graph):
        a = float(gsm.score(tiny_graph, Triple(0, 0, 2)).data)
        b = float(gsm.score(tiny_graph, Triple(0, 1, 2)).data)
        assert a != pytest.approx(b)


class TestDEKGILP:
    def test_requires_context(self):
        model = DEKGILP(num_relations=3, seed=0)
        with pytest.raises(RuntimeError):
            model.score(Triple(0, 0, 1))

    def test_context_relation_mismatch(self, tiny_graph):
        model = DEKGILP(num_relations=5, seed=0)
        with pytest.raises(ValueError):
            model.set_context(tiny_graph)

    def test_score_combines_modules(self, tiny_graph):
        config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        model.eval()
        triple = Triple(0, 1, 2)
        total = float(model.forward(triple).data)
        semantic = float(model.semantic_score(triple).data)
        topological = float(model.topological_score(triple).data)
        assert total == pytest.approx(semantic + topological)

    def test_semantic_only_variant(self, tiny_graph):
        config = ModelConfig(use_topological=False, embedding_dim=8)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        assert model.gsm is None
        assert float(model.topological_score(Triple(0, 0, 1)).data) == 0.0

    def test_topological_only_variant(self, tiny_graph):
        config = ModelConfig(use_semantic=False, embedding_dim=8, gnn_hidden_dim=8,
                             edge_dropout=0.0)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        assert model.clrm is None
        assert float(model.semantic_score(Triple(0, 0, 1)).data) == 0.0

    def test_score_many(self, tiny_graph):
        config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        model.eval()
        triples = [Triple(0, 0, 1), Triple(0, 1, 2)]
        scores = model.score_many(triples)
        assert scores.shape == (2,)
        assert scores[0] == pytest.approx(model.score(triples[0]))

    def test_link_embeddings_keys(self, tiny_graph):
        config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        embeddings = model.link_embeddings(Triple(0, 1, 2))
        assert set(embeddings) == {
            "semantic_head", "semantic_tail", "topological_head", "topological_tail",
        }
        assert embeddings["semantic_head"].shape == (8,)

    def test_unseen_entity_scores_finite(self, tiny_graph):
        # Entity 5 has a single triple; an entirely fresh context still works.
        config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        model.eval()
        assert np.isfinite(model.score(Triple(5, 2, 0)))

    def test_eval_scoring_hashes_no_dropout_edge_keys(self, tiny_graph, monkeypatch):
        """Edge keys only feed training-time dropout masks."""
        import repro.core.gsm as gsm_module
        import repro.gnn.encoder as encoder_module
        import repro.gnn.rgcn as rgcn_module

        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            return wrapper

        for module in (gsm_module, encoder_module, rgcn_module):
            monkeypatch.setattr(module, "edge_keys", counting(module.edge_keys))
        config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.5)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        triples = [Triple(0, 0, 1), Triple(0, 1, 2), Triple(2, 0, 3)]
        model.eval()
        model.score_many(triples)          # batched path (GSM.score_batch)
        model.score(triples[0])            # per-triple path (encoder.forward)
        assert calls == []
        model.train()                      # control: dropout does hash them
        model.forward_batch(triples)
        assert calls

    def test_parameter_complexity_positive(self):
        model = DEKGILP(3, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8), seed=0)
        assert model.parameter_complexity() > 0

    def test_deterministic_scoring_in_eval(self, tiny_graph):
        config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8)
        model = DEKGILP(3, config=config, seed=0)
        model.set_context(tiny_graph)
        model.eval()
        triple = Triple(0, 1, 2)
        assert model.score(triple) == pytest.approx(model.score(triple))

    def test_seed_controls_initialization(self):
        a = DEKGILP(3, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8), seed=1)
        b = DEKGILP(3, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8), seed=1)
        c = DEKGILP(3, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8), seed=2)
        np.testing.assert_array_equal(a.clrm.relation_features.data, b.clrm.relation_features.data)
        assert not np.allclose(a.clrm.relation_features.data, c.clrm.relation_features.data)


def _quick_training_setup(tiny_graph, **config_overrides):
    model_config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0,
                               **config_overrides)
    training_config = TrainingConfig(epochs=1, batch_size=4, contrastive_examples=1, seed=0)
    model = DEKGILP(3, config=model_config, seed=0)
    trainer = Trainer(model, tiny_graph, training_config)
    return model, trainer


class TestTrainer:
    def test_poisoned_batches_are_skipped_and_kept_out_of_totals(self, tiny_graph):
        # Regression: a NaN-loss batch must neither move the parameters (even
        # through Adam momentum) nor leak NaN into the epoch's loss record.
        model, trainer = _quick_training_setup(tiny_graph)
        trainer.train_epoch(0)  # build up Adam momentum on healthy batches

        def poisoned_loss(batch):
            return (model.clrm.relation_features * np.nan).sum()

        trainer._ranking_loss = poisoned_loss
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        record = trainer.train_epoch(1)
        assert record.skipped_batches == 2  # 6 triples / batch_size 4
        assert np.isfinite(record.total_loss)
        assert np.isfinite(record.ranking_loss)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name],
                                          err_msg=f"{name} moved on a skipped batch")

    def test_single_epoch_records_history(self, tiny_graph):
        model, trainer = _quick_training_setup(tiny_graph)
        history = trainer.fit()
        assert len(history.records) == 1
        assert history.final_loss == history.records[-1].total_loss
        assert history.total_seconds() > 0

    def test_loss_components_nonnegative(self, tiny_graph):
        _, trainer = _quick_training_setup(tiny_graph)
        record = trainer.train_epoch()
        assert record.ranking_loss >= 0
        assert record.contrastive_loss >= 0

    def test_parameters_change_after_training(self, tiny_graph):
        model, trainer = _quick_training_setup(tiny_graph)
        before = model.clrm.relation_features.data.copy()
        trainer.fit()
        assert not np.allclose(before, model.clrm.relation_features.data)

    def test_model_left_in_eval_mode(self, tiny_graph):
        model, trainer = _quick_training_setup(tiny_graph)
        trainer.fit()
        assert not model.training

    def test_contrastive_weight_zero_skips_contrastive(self, tiny_graph):
        model_config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
        training_config = TrainingConfig(epochs=1, batch_size=4, contrastive_weight=0.0, seed=0)
        model = DEKGILP(3, config=model_config, seed=0)
        trainer = Trainer(model, tiny_graph, training_config)
        record = trainer.train_epoch()
        assert record.contrastive_loss == 0.0

    def test_multi_epoch_loss_decreases(self, tiny_graph):
        model_config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
        training_config = TrainingConfig(epochs=6, batch_size=6, learning_rate=0.02,
                                         contrastive_examples=1, seed=0)
        model = DEKGILP(3, config=model_config, seed=0)
        history = Trainer(model, tiny_graph, training_config).fit()
        losses = history.losses()
        assert min(losses[3:]) <= losses[0] + 1e-9

    def test_fit_epochs_override(self, tiny_graph):
        _, trainer = _quick_training_setup(tiny_graph)
        history = trainer.fit(epochs=2)
        assert len(history.records) == 2
