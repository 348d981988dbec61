"""Batched extraction equivalence, the pinned LRU cache, and provider counters.

The multi-source :func:`repro.subgraph.provider.extract_batch` must be a pure
performance change: for any batch of targets it has to return subgraphs
*identical* to the per-pair extractor — same node arrays, double-radius
labels, features, endpoint rows and induced edges, dtypes included —
including on degenerate pairs (disconnected components, ``head == tail``,
isolated entities, empty neighborhoods).  The provider's pinned LRU store
and its two-scope hit/miss counters are covered alongside.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ModelConfig
from repro.core.model import DEKGILP
from repro.core.trainer import Trainer
from repro.core.config import TrainingConfig
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.extraction import extract_enclosing_subgraph
from repro.subgraph.provider import (PinnedLRU, SubgraphProvider,
                                     _assemble_all_pairs_legacy,
                                     _assemble_labels_batch, _stacked_bfs,
                                     extract_batch, masked_edges,
                                     share_provider)


def _random_graph(num_entities: int, num_relations: int, num_triples: int,
                  seed: int) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    tuples = sorted({
        (int(h), int(r), int(t))
        for h, r, t in zip(rng.integers(0, num_entities, num_triples),
                           rng.integers(0, num_relations, num_triples),
                           rng.integers(0, num_entities, num_triples))
    })
    return KnowledgeGraph(num_entities, num_relations,
                          [Triple(*t) for t in tuples])


def _assert_subgraphs_identical(batched, per_pair, context=""):
    assert batched.target == per_pair.target, context
    assert batched.hops == per_pair.hops, context
    # strict=True: equal shapes and dtypes as well as equal values.
    for name in ("nodes", "node_labels", "edges", "node_features",
                 "head_row", "tail_row"):
        np.testing.assert_array_equal(getattr(batched, name),
                                      getattr(per_pair, name), strict=True,
                                      err_msg=f"{name}: {context}")


class TestExtractBatchEquivalence:
    """Property: extract_batch == [extract_enclosing_subgraph(...)] bit-for-bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(0, 2**16),
        target_seed=st.integers(0, 2**16),
        num_entities=st.integers(4, 50),
        density=st.integers(1, 4),
        hops=st.integers(1, 3),
        improved=st.booleans(),
        omit=st.booleans(),
        max_nodes=st.sampled_from([4, 12, 200]),
    )
    def test_random_batches_identical(self, graph_seed, target_seed, num_entities,
                                      density, hops, improved, omit, max_nodes):
        graph = _random_graph(num_entities, 3, num_entities * density, graph_seed)
        rng = np.random.default_rng(target_seed)
        targets = [
            Triple(int(h), int(r), int(t))
            for h, r, t in zip(rng.integers(0, num_entities, 12),
                               rng.integers(0, 3, 12),
                               rng.integers(0, num_entities, 12))
        ]
        # Degenerate shapes alongside the random draws: self-loops and a
        # duplicated pair (the batch path must handle repeats gracefully).
        targets.append(Triple(0, 0, 0))
        targets.append(targets[0])
        batched = extract_batch(graph, targets, hops=hops,
                                improved_labeling=improved, max_nodes=max_nodes,
                                omit_target_edge=omit)
        for target, subgraph in zip(targets, batched):
            expected = extract_enclosing_subgraph(
                graph, target, hops=hops, improved_labeling=improved,
                max_nodes=max_nodes, omit_target_edge=omit)
            _assert_subgraphs_identical(subgraph, expected,
                                        context=f"target={target}")

    def test_disconnected_and_isolated_pairs(self):
        # 0-1-2 chain, separate 5-6 pair, 3/4/7 isolated.
        graph = KnowledgeGraph(8, 2, [Triple(0, 0, 1), Triple(1, 1, 2),
                                      Triple(5, 0, 6)])
        targets = [
            Triple(0, 0, 2),   # enclosing
            Triple(0, 1, 5),   # bridging across components
            Triple(3, 0, 4),   # both endpoints isolated (empty neighborhoods)
            Triple(0, 0, 0),   # head == tail with neighbors
            Triple(7, 1, 7),   # head == tail, isolated
            Triple(6, 0, 5),   # reversed direction of an existing edge
        ]
        for improved in (True, False):
            batched = extract_batch(graph, targets, hops=2,
                                    improved_labeling=improved)
            # The isolated pair has no edges; its (0, 3) array must still
            # carry the dtype every other pair's edges have.
            assert batched[2].num_edges == 0 and batched[0].num_edges > 0
            for target, subgraph in zip(targets, batched):
                expected = extract_enclosing_subgraph(graph, target, hops=2,
                                                      improved_labeling=improved)
                _assert_subgraphs_identical(subgraph, expected,
                                            context=f"target={target}")

    def test_empty_batch(self):
        graph = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
        assert extract_batch(graph, []) == []

    def test_zero_hop_batch(self):
        graph = KnowledgeGraph(4, 1, [Triple(0, 0, 1), Triple(1, 0, 2)])
        targets = [Triple(0, 0, 2), Triple(1, 0, 3)]
        batched = extract_batch(graph, targets, hops=0)
        for target, subgraph in zip(targets, batched):
            expected = extract_enclosing_subgraph(graph, target, hops=0)
            _assert_subgraphs_identical(subgraph, expected)

    def test_cap_overflow_matches_per_pair_extractor(self):
        # A hub star forces len(labels) > max_nodes, exercising the batched
        # path's fallback onto the reference set/dict assembly (the cap's
        # stable degree sort ties break on set iteration order).
        triples = [Triple(0, 0, n) for n in range(1, 30)]
        triples += [Triple(n, 1, 30) for n in range(1, 30)]
        graph = KnowledgeGraph(31, 2, triples)
        targets = [Triple(0, 0, 30), Triple(0, 1, 1), Triple(5, 0, 6)]
        for improved in (True, False):
            batched = extract_batch(graph, targets, hops=2,
                                    improved_labeling=improved, max_nodes=8)
            assert all(s.num_nodes <= 8 for s in batched)
            assert any(s.num_nodes == 8 for s in batched)  # cap really fired
            for target, subgraph in zip(targets, batched):
                expected = extract_enclosing_subgraph(
                    graph, target, hops=2, improved_labeling=improved,
                    max_nodes=8)
                _assert_subgraphs_identical(subgraph, expected,
                                            context=f"target={target}")

    def test_scratch_matrices_are_reusable(self):
        # Two consecutive batched extractions must see clean scratch state
        # (the release path resets only the touched region).
        graph = _random_graph(30, 2, 80, seed=5)
        targets = [Triple(int(h), 0, int(t))
                   for h, t in zip(range(10), range(10, 20))]
        first = extract_batch(graph, targets, hops=2)
        second = extract_batch(graph, targets, hops=2)
        for left, right in zip(first, second):
            _assert_subgraphs_identical(left, right)


class TestVectorizedLabelAssembly:
    """The flat-key assembly must equal the legacy set/dict path bit-for-bit."""

    def _assemble_both(self, graph, targets, hops, improved, max_nodes):
        num_targets = len(targets)
        adjacency = graph.adjacency()
        heads = np.fromiter((t.head for t in targets), np.int64, num_targets)
        tails = np.fromiter((t.tail for t in targets), np.int64, num_targets)
        sources = np.empty(2 * num_targets, dtype=np.int64)
        sources[0::2] = heads
        sources[1::2] = tails
        partners = np.empty_like(sources)
        partners[0::2] = tails
        partners[1::2] = heads
        region = _stacked_bfs(adjacency, sources, hops)
        distance = _stacked_bfs(adjacency, sources, hops, blocked=partners)
        vectorized = _assemble_labels_batch(graph, heads, tails, region,
                                            distance, hops, improved, max_nodes)
        legacy = _assemble_all_pairs_legacy(graph, heads, tails, region,
                                            distance, hops, improved, max_nodes)
        return vectorized, legacy

    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(0, 2**16),
        target_seed=st.integers(0, 2**16),
        num_entities=st.integers(4, 40),
        hops=st.integers(0, 3),
        improved=st.booleans(),
        max_nodes=st.sampled_from([4, 200]),
    )
    def test_assembly_paths_bit_identical(self, graph_seed, target_seed,
                                          num_entities, hops, improved,
                                          max_nodes):
        graph = _random_graph(num_entities, 3, num_entities * 3, graph_seed)
        rng = np.random.default_rng(target_seed)
        targets = [Triple(int(h), 0, int(t))
                   for h, t in zip(rng.integers(0, num_entities, 8),
                                   rng.integers(0, num_entities, 8))]
        targets.append(Triple(0, 0, 0))
        vectorized, legacy = self._assemble_both(graph, targets, hops,
                                                 improved, max_nodes)
        self._assert_columns_identical(vectorized, legacy)

    @staticmethod
    def _assert_columns_identical(vectorized, legacy):
        # Columns: nodes, node_labels, head rows, tail rows.
        assert len(vectorized) == len(legacy) == 4
        for column, (fast, slow) in enumerate(zip(vectorized, legacy)):
            assert len(fast) == len(slow), f"column={column}"
            for pair, (left, right) in enumerate(zip(fast, slow)):
                np.testing.assert_array_equal(
                    left, right, strict=True,
                    err_msg=f"column={column} pair={pair}")

    def test_out_of_range_endpoints_use_reference_path(self):
        # Flat pair*num_nodes+node keys cannot encode endpoints outside the
        # graph; such batches must still equal the legacy assembly.
        graph = KnowledgeGraph(4, 1, [Triple(0, 0, 1), Triple(1, 0, 2)])
        targets = [Triple(0, 0, 7), Triple(9, 0, 1), Triple(0, 0, 2)]
        vectorized, legacy = self._assemble_both(graph, targets, hops=2,
                                                 improved=True, max_nodes=200)
        self._assert_columns_identical(vectorized, legacy)
        nodes_fast = vectorized[0]
        assert 7 in nodes_fast[0] and 9 in nodes_fast[1]


class TestExtractionLayout:
    """What one extraction holds: the target, three typed arrays, three ints."""

    DTYPES = {"nodes": np.int64, "node_labels": np.int8, "edges": np.int32}

    def _both_extractors(self, graph, targets):
        return (extract_batch(graph, targets, hops=2, omit_target_edge=False)
                + [extract_enclosing_subgraph(graph, target, hops=2)
                   for target in targets])

    def test_holds_only_typed_arrays_and_ints(self):
        # No dict, no list, no per-pair float array: features are derived.
        graph = _random_graph(30, 3, 90, seed=3)
        targets = [Triple(0, 0, 5), Triple(3, 1, 3), Triple(7, 2, 29),
                   Triple(0, 0, 5)]
        for subgraph in self._both_extractors(graph, targets):
            assert not hasattr(subgraph, "__dict__")
            stored = {field.name: getattr(subgraph, field.name)
                      for field in dataclasses.fields(subgraph)}
            assert type(stored.pop("target")) is Triple
            for name, dtype in self.DTYPES.items():
                array = stored.pop(name)
                assert type(array) is np.ndarray, name
                assert array.dtype == dtype, name
            assert set(stored) == {"head_row", "tail_row", "hops"}
            assert all(type(value) is int for value in stored.values()), stored
            num_nodes = subgraph.num_nodes
            assert subgraph.nodes.shape == (num_nodes,)
            assert subgraph.node_labels.shape == (num_nodes, 2)
            assert subgraph.edges.shape == (subgraph.num_edges, 3)
            assert subgraph.nodes[subgraph.head_row] == subgraph.target.head
            assert subgraph.nodes[subgraph.tail_row] == subgraph.target.tail

    def test_batched_arrays_are_views_of_batch_arrays(self):
        graph = _random_graph(30, 3, 90, seed=3)
        first, second = extract_batch(graph, [Triple(0, 0, 5), Triple(1, 0, 6)])
        for name in self.DTYPES:
            left, right = getattr(first, name), getattr(second, name)
            assert left.base is not None and left.base is right.base, name

    @pytest.mark.parametrize("hops", [127, 200])
    def test_hops_beyond_int8_labels_rejected(self, hops):
        graph = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
        with pytest.raises(ValueError, match="hops"):
            extract_batch(graph, [Triple(0, 0, 1)], hops=hops)
        with pytest.raises(ValueError, match="hops"):
            extract_enclosing_subgraph(graph, Triple(0, 0, 1), hops=hops)

    def test_largest_hop_budget_still_extracts(self):
        graph = KnowledgeGraph(3, 1, [Triple(0, 0, 1), Triple(1, 0, 2)])
        batched = extract_batch(graph, [Triple(0, 0, 2)], hops=126)
        expected = extract_enclosing_subgraph(graph, Triple(0, 0, 2), hops=126)
        _assert_subgraphs_identical(batched[0], expected)
        assert batched[0].node_features.shape == (3, 2 * 127)


class TestMaskedEdges:
    def test_drops_only_the_scored_link(self):
        graph = KnowledgeGraph(4, 2, [Triple(0, 0, 1), Triple(0, 1, 1),
                                      Triple(1, 0, 2)])
        subgraph = extract_batch(graph, [Triple(0, 0, 1)],
                                 omit_target_edge=False)[0]
        masked = masked_edges(graph, subgraph, Triple(0, 0, 1))
        assert masked.shape[0] == subgraph.edges.shape[0] - 1
        expected = extract_enclosing_subgraph(graph, Triple(0, 0, 1),
                                              omit_target_edge=True)
        np.testing.assert_array_equal(masked, expected.edges)

    def test_noop_for_absent_link(self):
        graph = KnowledgeGraph(4, 2, [Triple(0, 0, 1)])
        subgraph = extract_batch(graph, [Triple(0, 1, 1)],
                                 omit_target_edge=False)[0]
        masked = masked_edges(graph, subgraph, Triple(0, 1, 1))
        np.testing.assert_array_equal(masked, subgraph.edges)


class TestCachePolicies:
    """The provider's one store: an LRU plus pinned true pairs."""

    def test_lru_evicts_least_recently_used(self):
        policy = PinnedLRU(capacity=2)
        policy.put((0, 1), "a")
        policy.put((0, 2), "b")
        assert policy.get((0, 1)) == "a"   # refresh (0, 1)
        policy.put((0, 3), "c")            # evicts (0, 2)
        assert policy.get((0, 2)) is None
        assert policy.get((0, 1)) == "a"
        assert len(policy) == 2

    def test_corruption_aware_pins_survive_eviction_pressure(self):
        policy = PinnedLRU(capacity=2)
        policy.pin([(7, 8)])
        policy.put((7, 8), "true-pair")
        for corruption in range(100, 120):
            policy.put((corruption, corruption + 1), "corrupt")
        assert policy.get((7, 8)) == "true-pair"
        assert len(policy) == 2 + 1        # LRU portion + the pinned entry

    def test_corruption_aware_pin_promotes_existing_entry(self):
        policy = PinnedLRU(capacity=1)
        policy.put((1, 2), "x")
        policy.pin([(1, 2)])
        policy.put((3, 4), "y")            # fills the whole LRU portion
        policy.put((5, 6), "z")
        assert policy.get((1, 2)) == "x"   # promoted before the churn


class TestProviderCounters:
    def test_dedupe_and_hit_accounting(self):
        graph = _random_graph(20, 2, 50, seed=0)
        provider = SubgraphProvider(hops=2)
        subgraphs = provider.get_many(graph, [(0, 1), (0, 1), (2, 3)])
        assert subgraphs[0] is subgraphs[1]
        stats = provider.stats()
        assert stats["misses"] == 2 and stats["hits"] == 1
        provider.get_many(graph, [(0, 1)])
        assert provider.stats()["hits"] == 2

    def test_lifetime_counters_survive_context_switch(self):
        """Regression: context switches must not wipe cumulative history."""
        graph_a = _random_graph(20, 2, 50, seed=0)
        graph_b = _random_graph(20, 2, 50, seed=1)
        provider = SubgraphProvider(hops=1)
        provider.get_many(graph_a, [(0, 1), (0, 1)])
        provider.get_many(graph_b, [(0, 1)])
        stats = provider.stats()
        assert stats["lifetime_hits"] == 1.0
        assert stats["lifetime_misses"] == 2.0
        # The context scope rewound at the switch to graph_b.
        assert stats["context_hits"] == 0.0
        assert stats["context_misses"] == 1.0
        assert stats["hits"] == stats["lifetime_hits"]  # historical keys = lifetime

    def test_context_switch_starts_an_empty_store(self):
        graph_a = _random_graph(20, 2, 50, seed=0)
        graph_b = _random_graph(20, 2, 50, seed=1)
        provider = SubgraphProvider(hops=1)
        provider.pin_pairs(graph_a, [(0, 1)])
        first = provider.get_many(graph_a, [(0, 1)])[0]
        provider.get_many(graph_b, [(0, 1)])
        # Returning to graph_a re-extracts: its store, pins included, went
        # with the switch to graph_b.
        assert provider.get_many(graph_a, [(0, 1)])[0] is not first
        assert provider.stats()["context_switches"] == 3.0

    def test_provider_serves_per_pair_extractor_subgraphs(self):
        graph = _random_graph(25, 3, 70, seed=3)
        pairs = [(int(h), int(t)) for h, t in zip(range(8), range(8, 16))]
        served = SubgraphProvider(hops=2).get_many(graph, pairs)
        for subgraph, (head, tail) in zip(served, pairs):
            _assert_subgraphs_identical(
                subgraph,
                extract_enclosing_subgraph(graph, Triple(head, 0, tail), hops=2,
                                           omit_target_edge=False))

    def test_model_stats_expose_both_scopes(self):
        graph = _random_graph(20, 2, 40, seed=2)
        model = DEKGILP(2, config=ModelConfig(embedding_dim=4, gnn_hidden_dim=4,
                                              subgraph_hops=1), seed=0)
        model.eval()
        model.set_context(graph)
        model.score_many([Triple(0, 0, 1), Triple(0, 1, 1)])
        stats = model.subgraph_cache_stats()
        assert set(stats) == {"hits", "misses", "hit_rate", "lifetime_hits",
                              "lifetime_misses", "lifetime_hit_rate",
                              "context_hits", "context_misses",
                              "context_hit_rate", "context_switches",
                              "entries", "capacity"}
        assert stats["hits"] == stats["lifetime_hits"]
        # Re-binding the same graph keeps the snapshot (and the history).
        model.set_context(graph)
        model.score_many([Triple(0, 0, 1)])
        assert model.subgraph_cache_stats()["lifetime_misses"] == stats["lifetime_misses"]

    def test_trainer_records_lifetime_hit_rate(self):
        graph = _random_graph(20, 2, 60, seed=4)
        config = ModelConfig(embedding_dim=4, gnn_hidden_dim=4, subgraph_hops=1,
                             edge_dropout=0.0)
        model = DEKGILP(2, config=config, seed=0)
        trainer = Trainer(model, graph, TrainingConfig(epochs=2, batch_size=16, seed=0))
        history = trainer.fit()
        last = history.records[-1]
        assert 0.0 < last.cache_hit_rate <= 1.0
        assert 0.0 < last.lifetime_cache_hit_rate <= 1.0
        # The lifetime rate accumulates over both epochs, so it cannot exceed
        # the warm epoch's rate.
        assert last.lifetime_cache_hit_rate <= last.cache_hit_rate + 1e-12


class TestProviderPinningIntegration:
    def test_trainer_pins_positive_pairs_under_corruption_aware_policy(self):
        graph = _random_graph(25, 2, 60, seed=6)
        config = ModelConfig(embedding_dim=4, gnn_hidden_dim=4, subgraph_hops=1,
                             edge_dropout=0.0, subgraph_cache_size=64)
        model = DEKGILP(2, config=config, seed=0)
        Trainer(model, graph, TrainingConfig(epochs=2, batch_size=8, seed=0)).fit()
        policy = model.subgraph_provider._store
        # Every training positive stays resident across the corruption churn.
        positives = {(t.head, t.tail) for t in graph.triples}
        assert positives <= set(policy._pinned)
        # ... and the pin budget is bounded by the capacity.
        assert policy.capacity == 64

    def test_pin_budget_is_bounded(self):
        policy = PinnedLRU(capacity=3)
        policy.pin((i, i + 1) for i in range(10))
        assert len(policy._pin_keys) == 3  # at most capacity pins
        late = (99, 100)
        policy.pin([late])
        policy.put(late, "overflow")       # unpinned: ordinary LRU citizen
        for churn in range(200, 206):
            policy.put((churn, churn + 1), "corrupt")
        assert policy.get(late) is None

    def test_tiny_pinned_cache_matches_unlimited_cache_losses(self):
        graph = _random_graph(25, 2, 60, seed=6)

        def run(size):
            config = ModelConfig(embedding_dim=4, gnn_hidden_dim=4,
                                 subgraph_hops=1, edge_dropout=0.0,
                                 subgraph_cache_size=size)
            model = DEKGILP(2, config=config, seed=0)
            trainer = Trainer(model, graph,
                              TrainingConfig(epochs=2, batch_size=8, seed=0))
            return trainer.fit().losses()

        np.testing.assert_allclose(run(2), run(4096), rtol=0, atol=1e-12)


class TestShareProvider:
    """The cross-model seam the serving layer builds on."""

    @staticmethod
    def _build(name, graph):
        from repro.registry import build_model
        model = build_model(name, num_entities=graph.num_entities,
                            num_relations=graph.num_relations,
                            embedding_dim=4, seed=0)
        model.set_context(graph)
        return model

    def test_same_signature_models_adopt_one_provider(self):
        graph = _random_graph(20, 2, 50, seed=7)
        # DEKG-ILP-N (GraIL labeling), Grail and TACT all extract with
        # (hops=2, improved_labeling=False, max_nodes=150).
        models = [self._build(n, graph) for n in ("DEKG-ILP-N", "Grail", "TACT")]
        triples = [Triple(0, 0, 1), Triple(2, 1, 3)]
        before = {m.name: [float(s) for s in m.score_many(triples)]
                  for m in models}
        shared = share_provider(models)
        assert shared is not None
        assert all(m.subgraph_provider is shared for m in models)
        # Sharing the cache must not move a single score.
        for model in models:
            assert [float(s) for s in model.score_many(triples)] == before[model.name]
        stats = shared.stats()
        # Second and third models hit what the first extracted.
        assert stats["lifetime_hits"] > 0

    def test_signature_mismatch_raises(self):
        graph = _random_graph(20, 2, 50, seed=7)
        # DEKG-ILP uses improved labeling; Grail does not.
        models = [self._build(n, graph) for n in ("DEKG-ILP", "Grail")]
        with pytest.raises(ValueError, match="extraction signature"):
            share_provider(models)

    def test_no_provider_backed_models_returns_none(self):
        graph = _random_graph(20, 2, 50, seed=7)
        models = [self._build(n, graph) for n in ("TransE", "DistMult")]
        assert share_provider(models) is None

    def test_embedding_models_are_skipped_not_rejected(self):
        graph = _random_graph(20, 2, 50, seed=7)
        grail = self._build("Grail", graph)
        transe = self._build("TransE", graph)
        shared = share_provider([grail, transe])
        assert shared is grail.subgraph_provider
        assert not hasattr(transe, "subgraph_provider") or \
            getattr(transe, "subgraph_provider", None) is None

    def test_capacity_takes_the_largest_adoptee(self):
        graph = _random_graph(20, 2, 50, seed=7)
        a = self._build("Grail", graph)
        b = self._build("TACT", graph)
        big = max(a.subgraph_provider.cache_size, b.subgraph_provider.cache_size)
        shared = share_provider([a, b])
        assert shared.cache_size == big

    def test_use_subgraph_provider_rejects_wrong_signature(self):
        graph = _random_graph(20, 2, 50, seed=7)
        dekg = self._build("DEKG-ILP", graph)
        grail = self._build("Grail", graph)
        with pytest.raises(ValueError):
            dekg.use_subgraph_provider(grail.subgraph_provider)
