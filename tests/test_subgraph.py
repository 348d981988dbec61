"""Tests for neighborhood search, node labeling and subgraph extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.extraction import extract_enclosing_subgraph, label_arrays
from repro.subgraph.labeling import UNREACHABLE, label_nodes, node_label_features
from repro.subgraph.neighborhood import k_hop_neighborhood, shortest_path_lengths


@pytest.fixture
def chain_graph():
    """0 -> 1 -> 2 -> 3 -> 4 plus a disconnected pair 5 -> 6."""
    triples = [Triple(i, 0, i + 1) for i in range(4)] + [Triple(5, 0, 6)]
    return KnowledgeGraph(7, 1, triples)


class TestNeighborhood:
    def test_zero_hops(self, chain_graph):
        assert k_hop_neighborhood(chain_graph, 2, 0) == {2}

    def test_one_hop(self, chain_graph):
        assert k_hop_neighborhood(chain_graph, 2, 1) == {1, 2, 3}

    def test_two_hops(self, chain_graph):
        assert k_hop_neighborhood(chain_graph, 2, 2) == {0, 1, 2, 3, 4}

    def test_negative_hops_rejected(self, chain_graph):
        with pytest.raises(ValueError):
            k_hop_neighborhood(chain_graph, 0, -1)

    def test_exclusion(self, chain_graph):
        region = k_hop_neighborhood(chain_graph, 0, 4, exclude={2})
        assert region == {0, 1}

    def test_disconnected_component_not_reached(self, chain_graph):
        assert 5 not in k_hop_neighborhood(chain_graph, 0, 10)

    def test_shortest_path_lengths(self, chain_graph):
        distances = shortest_path_lengths(chain_graph, 0, {1, 2, 3, 4}, max_distance=10)
        assert distances == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_shortest_path_respects_cap(self, chain_graph):
        distances = shortest_path_lengths(chain_graph, 0, {4}, max_distance=2)
        assert 4 not in distances

    def test_shortest_path_forbidden_node(self, chain_graph):
        # Forbid passing through 2: node 3 becomes unreachable from 0.
        distances = shortest_path_lengths(chain_graph, 0, {2, 3}, max_distance=10, forbidden={2})
        assert distances.get(2) == 2      # forbidden node can still be a target
        assert 3 not in distances

    def test_source_in_targets(self, chain_graph):
        distances = shortest_path_lengths(chain_graph, 2, {2}, max_distance=3)
        assert distances[2] == 0


class TestNodeLabeling:
    def test_endpoints_fixed_labels(self):
        labels = label_nodes({}, {}, nodes=[0, 1], head=0, tail=1, hops=2)
        assert labels[0] == (0, 1)
        assert labels[1] == (1, 0)

    def test_improved_keeps_one_sided_nodes(self):
        labels = label_nodes({2: 1}, {}, nodes=[0, 1, 2], head=0, tail=1, hops=2, improved=True)
        assert labels[2] == (1, UNREACHABLE)

    def test_grail_prunes_one_sided_nodes(self):
        labels = label_nodes({2: 1}, {}, nodes=[0, 1, 2], head=0, tail=1, hops=2, improved=False)
        assert 2 not in labels

    def test_distance_beyond_budget_is_unreachable(self):
        labels = label_nodes({2: 5}, {2: 1}, nodes=[2], head=0, tail=1, hops=2, improved=True)
        assert labels[2] == (UNREACHABLE, 1)

    def test_grail_prunes_beyond_budget(self):
        labels = label_nodes({2: 5}, {2: 1}, nodes=[2], head=0, tail=1, hops=2, improved=False)
        assert 2 not in labels

    def test_features_one_hot(self):
        labels = np.array([(0, 1), (1, 0), (2, UNREACHABLE)], dtype=np.int8)
        features = node_label_features(labels, hops=2)
        assert features.shape == (3, 6) and features.dtype == np.float64
        np.testing.assert_array_equal(features[0], [1, 0, 0, 0, 1, 0])
        np.testing.assert_array_equal(features[1], [0, 1, 0, 1, 0, 0])
        np.testing.assert_array_equal(features[2], [0, 0, 1, 0, 0, 0])

    def test_unreachable_is_all_zero_block(self):
        labels = np.array([(UNREACHABLE, UNREACHABLE)], dtype=np.int8)
        features = node_label_features(labels, hops=2)
        np.testing.assert_array_equal(features, np.zeros((1, 6)))

    def test_feature_rows_align_with_sorted_nodes(self):
        labels = {5: (1, 1), 2: (0, 1), 9: (1, 0)}
        nodes, node_labels, head_row, tail_row = label_arrays(labels, head=2, tail=9)
        np.testing.assert_array_equal(nodes, np.array([2, 5, 9]), strict=True)
        np.testing.assert_array_equal(
            node_labels, np.array([(0, 1), (1, 1), (1, 0)], dtype=np.int8), strict=True)
        assert (head_row, tail_row) == (0, 2)
        np.testing.assert_array_equal(node_label_features(node_labels, hops=1),
                                      [[1, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 0]])


class TestExtraction:
    def test_enclosing_subgraph_is_connected(self, chain_graph):
        target = Triple(1, 0, 3)
        subgraph = extract_enclosing_subgraph(chain_graph, target, hops=2)
        assert not subgraph.is_disconnected()
        assert subgraph.target == target
        assert 1 in subgraph.nodes and 3 in subgraph.nodes

    def test_bridging_subgraph_is_disconnected(self, chain_graph):
        target = Triple(1, 0, 5)  # 5 lives in the separate component
        subgraph = extract_enclosing_subgraph(chain_graph, target, hops=2)
        assert subgraph.is_disconnected()
        # the disconnected side still contributes nodes thanks to improved labeling
        assert 6 in subgraph.nodes

    def test_grail_pruning_drops_one_sided_nodes(self, chain_graph):
        target = Triple(1, 0, 5)
        improved = extract_enclosing_subgraph(chain_graph, target, hops=2, improved_labeling=True)
        pruned = extract_enclosing_subgraph(chain_graph, target, hops=2, improved_labeling=False)
        assert pruned.num_nodes < improved.num_nodes
        assert set(pruned.nodes) == {1, 5}

    def test_target_edge_excluded_if_present(self, chain_graph):
        target = Triple(1, 0, 2)  # exists in the graph
        subgraph = extract_enclosing_subgraph(chain_graph, target, hops=1)
        assert subgraph.nodes[subgraph.head_row] == 1
        assert subgraph.nodes[subgraph.tail_row] == 2
        local = (subgraph.head_row, 0, subgraph.tail_row)
        assert local not in {tuple(edge) for edge in subgraph.edges.tolist()}

    def test_edges_are_local_indices(self, chain_graph):
        subgraph = extract_enclosing_subgraph(chain_graph, Triple(1, 0, 3), hops=2)
        if subgraph.num_edges:
            assert subgraph.edges[:, [0, 2]].max() < subgraph.num_nodes

    def test_feature_dimension(self, chain_graph):
        hops = 3
        subgraph = extract_enclosing_subgraph(chain_graph, Triple(0, 0, 4), hops=hops)
        assert subgraph.node_features.shape == (subgraph.num_nodes, 2 * (hops + 1))

    def test_head_tail_indices(self, chain_graph):
        subgraph = extract_enclosing_subgraph(chain_graph, Triple(0, 0, 2), hops=2)
        assert subgraph.nodes[subgraph.head_index()] == 0
        assert subgraph.nodes[subgraph.tail_index()] == 2

    def test_max_nodes_cap(self, small_synthetic_graph):
        triple = small_synthetic_graph.triples[0]
        subgraph = extract_enclosing_subgraph(small_synthetic_graph, triple, hops=2, max_nodes=10)
        assert subgraph.num_nodes <= 10
        assert triple.head in subgraph.nodes and triple.tail in subgraph.nodes

    def test_labels_cover_all_nodes(self, chain_graph):
        subgraph = extract_enclosing_subgraph(chain_graph, Triple(0, 0, 3), hops=2)
        # One label row per node, nodes unique and ascending.
        assert subgraph.node_labels.shape == (subgraph.num_nodes, 2)
        assert np.all(np.diff(subgraph.nodes) > 0)
        assert tuple(subgraph.node_labels[subgraph.head_row]) == (0, 1)
        assert tuple(subgraph.node_labels[subgraph.tail_row]) == (1, 0)

    def test_isolated_endpoints(self):
        graph = KnowledgeGraph(4, 1, [Triple(2, 0, 3)])
        subgraph = extract_enclosing_subgraph(graph, Triple(0, 0, 1), hops=2)
        assert subgraph.num_nodes == 2
        assert subgraph.num_edges == 0
        assert subgraph.is_disconnected()
