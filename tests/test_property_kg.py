"""Property-based tests for the KG substrate, labeling and metrics invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clrm import CLRM
from repro.core.contrastive import ContrastiveSampler
from repro.eval.metrics import hits_at, mean_reciprocal_rank
from repro.eval.ranking import rank_candidates
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.labeling import UNREACHABLE, label_nodes, node_label_features

NUM_ENTITIES = 12
NUM_RELATIONS = 4

triples_strategy = st.lists(
    st.tuples(st.integers(0, NUM_ENTITIES - 1), st.integers(0, NUM_RELATIONS - 1),
              st.integers(0, NUM_ENTITIES - 1)),
    min_size=0, max_size=40,
)


@settings(max_examples=50, deadline=None)
@given(triples_strategy)
def test_graph_triple_count_matches_unique_inserts(tuples):
    graph = KnowledgeGraph(NUM_ENTITIES, NUM_RELATIONS)
    unique = set()
    for head, relation, tail in tuples:
        graph.add_triple(Triple(head, relation, tail))
        unique.add((head, relation, tail))
    assert graph.num_triples() == len(unique)


@settings(max_examples=50, deadline=None)
@given(triples_strategy)
def test_relation_component_table_sums_to_degree(tuples):
    graph = KnowledgeGraph(NUM_ENTITIES, NUM_RELATIONS)
    graph.add_triples(Triple(*t) for t in tuples)
    for entity in range(NUM_ENTITIES):
        table = graph.relation_component_table(entity)
        # Self-loops touch an entity as head and tail of the same triple but
        # the degree counts the triple twice as well (once per adjacency list).
        assert table.sum() == graph.degree(entity)


@settings(max_examples=50, deadline=None)
@given(triples_strategy)
def test_neighbors_symmetry(tuples):
    graph = KnowledgeGraph(NUM_ENTITIES, NUM_RELATIONS)
    graph.add_triples(Triple(*t) for t in tuples)
    for entity in range(NUM_ENTITIES):
        for neighbor in graph.neighbors(entity):
            assert entity in graph.neighbors(neighbor)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(2, 30), st.integers(0, 6), max_size=10),
       st.dictionaries(st.integers(2, 30), st.integers(0, 6), max_size=10),
       st.integers(1, 4))
def test_improved_labeling_keeps_every_node(dist_head, dist_tail, hops):
    nodes = set(dist_head) | set(dist_tail) | {0, 1}
    labels = label_nodes(dist_head, dist_tail, nodes, head=0, tail=1, hops=hops, improved=True)
    assert set(labels) == nodes
    pruned = label_nodes(dist_head, dist_tail, nodes, head=0, tail=1, hops=hops, improved=False)
    assert set(pruned) <= nodes


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(2, 30), st.tuples(st.integers(-1, 5), st.integers(-1, 5)),
                       min_size=1, max_size=10),
       st.integers(1, 5))
def test_label_features_rows_are_at_most_two_hot(labels, hops):
    rows = np.array(list(labels.values()), dtype=np.int8)
    features = node_label_features(rows, hops)
    assert features.shape == (len(labels), 2 * (hops + 1))
    sums = features.sum(axis=1)
    assert np.all(sums <= 2)
    for row, (d_head, d_tail) in enumerate(labels.values()):
        expected = int(d_head != UNREACHABLE) + int(d_tail != UNREACHABLE)
        assert features[row].sum() == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 100), min_size=1, max_size=30))
def test_mrr_and_hits_bounds(ranks):
    mrr = mean_reciprocal_rank(ranks)
    assert 0.0 < mrr <= 1.0
    for level in (1, 5, 10):
        assert 0.0 <= hits_at(ranks, level) <= 1.0
    assert hits_at(ranks, 1) <= hits_at(ranks, 10)


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5, allow_nan=False), st.lists(st.floats(-5, 5, allow_nan=False), max_size=20))
def test_rank_bounds(true_score, candidate_scores):
    rank = rank_candidates(true_score, candidate_scores)
    assert 1 <= rank <= len(candidate_scores) + 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=3, max_size=8))
def test_fusion_scale_invariance(counts):
    table = np.asarray(counts, dtype=float)
    clrm = CLRM(num_relations=len(counts), embedding_dim=6, rng=np.random.default_rng(0))
    once = clrm.fuse(table).data
    scaled = clrm.fuse(table * 3).data
    np.testing.assert_allclose(once, scaled, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=3, max_size=8), st.integers(0, 10_000))
def test_contrastive_positive_preserves_relation_support(counts, seed):
    table = np.asarray(counts, dtype=float)
    sampler = ContrastiveSampler(seed=seed)
    positive = sampler.positive_example(table)
    assert set(np.flatnonzero(positive > 0)) == set(np.flatnonzero(table > 0))
    negative = sampler.negative_example(table)
    assert np.all(negative >= 0)
