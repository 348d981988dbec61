"""Tests for the scatter/gather primitives, sparse message passing equivalence,
CSR adjacency, and the batched GSM scoring path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autodiff.tensor import (Tensor, basis_message_passing, gather, scatter_add,
                                   segment_mean, segment_sum)
from repro.core.config import ModelConfig
from repro.core.gsm import GSM
from repro.core.model import DEKGILP
from repro.gnn.message_passing import aggregate_messages, aggregate_messages_dense
from repro.gnn.pooling import segment_mean_pool
from repro.gnn.rgcn import RGCNLayer
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.extraction import extract_enclosing_subgraph

from test_tensor_ops import check_gradient


def _random_graph(num_entities=60, num_relations=5, num_triples=300, seed=0):
    rng = np.random.default_rng(seed)
    tuples = {
        (int(h), int(r), int(t))
        for h, r, t in zip(
            rng.integers(0, num_entities, num_triples),
            rng.integers(0, num_relations, num_triples),
            rng.integers(0, num_entities, num_triples),
        )
    }
    return KnowledgeGraph(num_entities, num_relations,
                          [Triple(*t) for t in sorted(tuples)])


def basis_sum(values: Tensor, weights: Tensor) -> Tensor:
    """``out[e] = weights[e] @ values[e]`` over ``(E, B, O)`` values: one node.

    The basis contraction of the unfused edge chain, kept here as part of
    the oracle for :func:`basis_message_passing`.
    """
    data = np.einsum("ebo,eb->eo", values.data, weights.data)

    def backward(grad) -> None:
        if values.requires_grad:
            values._accumulate(grad[:, None, :] * weights.data[:, :, None])
        if weights.requires_grad:
            weights._accumulate(np.einsum("ebo,eo->eb", values.data, grad))

    return Tensor._make(data, (values, weights), backward)


def unfused_message_passing(features: Tensor, basis_matrix: Tensor, coefficients: Tensor,
                            sources, destinations) -> Tensor:
    """The exact oracle for :func:`basis_message_passing`, the project-first
    chain: ``@ → gather → einsum → scatter_add``, each step its own tape node.

    It projects the ``N`` nodes before gathering, as the node does, so the
    node's forward and backward equal it bit for bit (for ``out ≥ 2``).
    """
    num_edges, num_bases = coefficients.shape
    out_dim = basis_matrix.shape[1] // num_bases
    projected = gather(features @ basis_matrix, sources).reshape(num_edges, num_bases, out_dim)
    return scatter_add(basis_sum(projected, coefficients), destinations, features.shape[0])


def gather_first_message_passing(features: Tensor, basis_matrix: Tensor,
                                 coefficients: Tensor, sources, destinations) -> Tensor:
    """The second oracle, the gather-first chain: ``gather → @ → einsum →
    scatter_add``.  BLAS blocks a GEMM by its row count, so ``X[src] @ W``
    and ``(X @ W)[src]`` can differ in the last bits, and its backward sums
    the edges after the GEMMs; it matches the node to rounding only
    (:func:`assert_within_rounding`)."""
    num_edges, num_bases = coefficients.shape
    out_dim = basis_matrix.shape[1] // num_bases
    projected = (gather(features, sources) @ basis_matrix).reshape(num_edges, num_bases, out_dim)
    return scatter_add(basis_sum(projected, coefficients), destinations, features.shape[0])


def assert_within_rounding(actual, expected, err_msg: str = "") -> None:
    """``|actual - expected| ≤ 1e-12 · max|expected|``, elementwise.

    Reassociating a sum of ``n`` float64 terms moves it by up to about
    ``n · 2.2e-16`` of their magnitude, so the bound allows some 4,500
    terms, more than any reduction here (edges into one row, or a GEMM's
    inner dimension).  Over 300 random shapes with ``E`` up to 400 the
    largest relative difference seen was 2.1e-15.
    """
    expected = np.asarray(expected)
    scale = float(np.abs(expected).max()) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * scale,
                               err_msg=err_msg)


def _run_message_passing(message_passing, arrays, sources, destinations, cotangent):
    """Output and the three input gradients of one forward and backward."""
    inputs = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    out = message_passing(*inputs, sources, destinations)
    (out * Tensor(cotangent)).sum().backward()
    return [out.data] + [tensor.grad for tensor in inputs]


@st.composite
def _message_passing_shapes(draw):
    """Random ``(N, E, B, in, out)`` cases; few distinct sources and
    destinations, so duplicates abound."""
    num_nodes = draw(st.integers(1, 12))
    num_edges = draw(st.integers(0, 40))
    num_bases = draw(st.integers(1, 5))
    in_dim, out_dim = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.choice(num_nodes, size=draw(st.integers(1, num_nodes)), replace=False)
    sources = pool[rng.integers(0, len(pool), num_edges)]
    destinations = pool[rng.integers(0, len(pool), num_edges)]
    arrays = [rng.normal(size=(num_nodes, in_dim)),
              rng.normal(size=(in_dim, num_bases * out_dim)),
              rng.normal(size=(num_edges, num_bases))]
    return arrays, sources, destinations, rng.normal(size=(num_nodes, out_dim))


def _message_passing_case(rng):
    """Node features, a two-basis ``(in, B·out)`` matrix, coefficients and edges.

    The edges repeat ``(3 -> 1)``, include the self loop ``(2 -> 2)`` and
    leave node 0 without in-edges.
    """
    sources = np.array([3, 3, 2, 0, 4, 1, 2])
    destinations = np.array([1, 1, 2, 3, 3, 4, 1])
    return (rng.normal(size=(5, 3)), rng.normal(size=(3, 2 * 4)),
            rng.normal(size=(len(sources), 2)), sources, destinations)


class TestScatterGatherPrimitives:
    def test_scatter_add_forward(self):
        src = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = scatter_add(src, np.array([1, 1, 0]), 3)
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [4.0, 6.0], [0.0, 0.0]])

    def test_scatter_add_empty_source(self):
        out = scatter_add(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=np.int64), 3)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_scatter_add_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            scatter_add(Tensor(np.ones((2, 2))), np.array([0, 5]), 3)

    def test_scatter_add_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            scatter_add(Tensor(np.ones((2, 2))), np.array([0]), 3)

    def test_gather_forward(self):
        src = Tensor(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(gather(src, np.array([2, 0, 2])).data,
                                      [[3.0], [1.0], [3.0]])

    def test_scatter_add_gradcheck(self, rng):
        index = np.array([0, 2, 2, 1, 0])
        check_gradient(
            lambda t: (scatter_add(t, index, 4) ** 2).sum(), rng.normal(size=(5, 3)))

    def test_gather_gradcheck(self, rng):
        index = np.array([3, 0, 3, 1])
        check_gradient(
            lambda t: (gather(t, index) ** 2).sum(), rng.normal(size=(4, 2)))

    def test_segment_sum_alias(self, rng):
        src = Tensor(rng.normal(size=(6, 2)))
        ids = np.array([0, 1, 0, 2, 1, 0])
        np.testing.assert_array_equal(segment_sum(src, ids, 3).data,
                                      scatter_add(src, ids, 3).data)

    def test_segment_mean_matches_manual(self, rng):
        values = rng.normal(size=(5, 3))
        ids = np.array([1, 1, 0, 1, 3])
        out = segment_mean(Tensor(values), ids, 4)
        np.testing.assert_allclose(out.data[0], values[2])
        np.testing.assert_allclose(out.data[1], values[[0, 1, 3]].mean(axis=0))
        np.testing.assert_array_equal(out.data[2], np.zeros(3))  # empty segment
        np.testing.assert_allclose(out.data[3], values[4])

    def test_segment_mean_gradcheck(self, rng):
        ids = np.array([0, 1, 1, 0])
        check_gradient(
            lambda t: (segment_mean(t, ids, 2) ** 2).sum(), rng.normal(size=(4, 2)))

    def test_basis_message_passing_matches_unfused_chain(self, rng):
        """Forward and every gradient equal the project-first chain bit for
        bit, and the gather-first chain to rounding."""
        *arrays, sources, destinations = _message_passing_case(rng)
        cotangent = rng.normal(size=(5, 4))
        fused, unfused, gather_first = (
            _run_message_passing(message_passing, arrays, sources, destinations, cotangent)
            for message_passing in (basis_message_passing, unfused_message_passing,
                                    gather_first_message_passing))
        assert fused[0].shape == (5, 4)
        np.testing.assert_array_equal(fused[0][0], np.zeros(4))  # no in-edges
        for name, got, exact, close in zip(("out", "features", "basis", "coefficients"),
                                           fused, unfused, gather_first):
            np.testing.assert_array_equal(got, exact, err_msg=name)
            assert_within_rounding(got, close, err_msg=name)

    @settings(max_examples=100, deadline=None)
    @given(case=_message_passing_shapes())
    @example(case=([np.ones((3, 2)), np.ones((2, 8)), np.zeros((0, 2))],
                   np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.ones((3, 4))))
    @example(case=([np.full((1, 3), 0.5), np.linspace(-1.0, 1.0, 12).reshape(3, 4),
                    np.linspace(0.1, 0.9, 4).reshape(4, 1)],
                   np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
                   np.linspace(-2.0, 2.0, 4).reshape(1, 4)))
    def test_basis_message_passing_is_the_project_first_chain(self, case):
        """At every shape, E = 0, N = 1 and B = 1 included, the node's output
        and gradients equal the project-first chain exactly, and the
        gather-first chain to rounding.

        The exception is the output at ``out = 1`` with ``B ≥ 3``, checked
        to rounding: there einsum sums the chain's basis terms in another
        order than the node's ``b`` order (see ``TestSparseKernels``).
        """
        arrays, sources, destinations, cotangent = case
        fused, unfused, gather_first = (
            _run_message_passing(message_passing, arrays, sources, destinations, cotangent)
            for message_passing in (basis_message_passing, unfused_message_passing,
                                    gather_first_message_passing))
        num_bases, out_dim = arrays[2].shape[1], cotangent.shape[1]
        for name, got, exact, close in zip(("out", "features", "basis", "coefficients"),
                                           fused, unfused, gather_first):
            assert got.shape == exact.shape
            if name == "out" and out_dim == 1 and num_bases >= 3:
                assert_within_rounding(got, exact, err_msg=name)
            else:
                np.testing.assert_array_equal(got, exact, err_msg=name)
            assert_within_rounding(got, close, err_msg=name)

    def test_basis_message_passing_gradcheck(self, rng):
        """Finite differences for node features, basis and coefficients."""
        *arrays, sources, destinations = _message_passing_case(rng)
        for argument in range(len(arrays)):
            def build(tensor: Tensor) -> Tensor:
                inputs = [Tensor(array) for array in arrays]
                inputs[argument] = tensor
                return (basis_message_passing(*inputs, sources, destinations) ** 2).sum()

            check_gradient(build, arrays[argument])

    def test_basis_message_passing_zero_edges(self, rng):
        features = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        basis_matrix = Tensor(rng.normal(size=(2, 2 * 4)), requires_grad=True)
        coefficients = Tensor(np.zeros((0, 2)), requires_grad=True)
        empty = np.zeros(0, dtype=np.int64)
        out = basis_message_passing(features, basis_matrix, coefficients, empty, empty)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))
        out.sum().backward()
        np.testing.assert_array_equal(features.grad, np.zeros((3, 2)))
        np.testing.assert_array_equal(basis_matrix.grad, np.zeros((2, 8)))
        assert coefficients.grad.shape == (0, 2)

    def test_one_edge_graph_messages_do_not_depend_on_batching(self, rng):
        """The node projects nodes, not edges, so a one-edge graph never takes
        numpy's one-row matmul path: alone or in a block-diagonal union with
        another graph, its rows come out the same bits."""
        basis_matrix = Tensor(rng.normal(size=(32, 4 * 32)))
        features, coefficients = rng.normal(size=(2 + 5, 32)), rng.normal(size=(4, 4))
        sources, destinations = np.array([0, 2, 3, 6]), np.array([1, 4, 4, 5])
        alone = basis_message_passing(Tensor(features[:2]), basis_matrix,
                                      Tensor(coefficients[:1]), sources[:1], destinations[:1])
        union = basis_message_passing(Tensor(features), basis_matrix, Tensor(coefficients),
                                      sources, destinations)
        np.testing.assert_array_equal(union.data[:2], alone.data)

    def test_basis_message_passing_rejects_bad_edges(self, rng):
        *arrays, sources, destinations = _message_passing_case(rng)
        inputs = [Tensor(array) for array in arrays]
        with pytest.raises(IndexError):
            basis_message_passing(*inputs, sources, np.where(destinations == 4, 5, destinations))
        with pytest.raises(IndexError):
            basis_message_passing(*inputs, sources - 1, destinations)
        with pytest.raises(ValueError):
            basis_message_passing(*inputs, sources[:-1], destinations[:-1])


class TestAggregateEquivalence:
    """The scatter-based aggregation must match the dense-scatter reference."""

    @pytest.mark.parametrize("num_edges,num_nodes", [(1, 1), (7, 4), (40, 12)])
    def test_forward_equivalence(self, rng, num_edges, num_nodes):
        messages = Tensor(rng.normal(size=(num_edges, 5)))
        weights = Tensor(rng.uniform(0.1, 1.0, size=(num_edges, 1)))
        destinations = rng.integers(0, num_nodes, num_edges)
        sparse = aggregate_messages(messages * weights, destinations, num_nodes)
        dense = aggregate_messages_dense(messages * weights, destinations, num_nodes)
        np.testing.assert_allclose(sparse.data, dense.data, atol=1e-12)

    def test_forward_equivalence_zero_edges(self):
        messages = Tensor(np.zeros((0, 3)))
        destinations = np.zeros(0, dtype=np.int64)
        sparse = aggregate_messages(messages, destinations, 4)
        dense = aggregate_messages_dense(messages, destinations, 4)
        np.testing.assert_array_equal(sparse.data, dense.data)
        assert sparse.shape == (4, 3)

    def test_gradient_equivalence(self, rng):
        values = rng.normal(size=(9, 4))
        gates = rng.uniform(0.1, 1.0, size=(9, 1))
        destinations = rng.integers(0, 5, 9)
        grads = {}
        for aggregate in (aggregate_messages, aggregate_messages_dense):
            messages = Tensor(values.copy(), requires_grad=True)
            weights = Tensor(gates.copy(), requires_grad=True)
            out = aggregate(messages * weights, destinations, 5)
            (out ** 2).sum().backward()
            grads[aggregate.__name__] = (messages.grad.copy(), weights.grad.copy())
        sparse_grads = grads["aggregate_messages"]
        dense_grads = grads["aggregate_messages_dense"]
        np.testing.assert_allclose(sparse_grads[0], dense_grads[0], atol=1e-10)
        np.testing.assert_allclose(sparse_grads[1], dense_grads[1], atol=1e-10)

    def test_zero_edge_gradient_flows(self):
        messages = Tensor(np.zeros((0, 3)), requires_grad=True)
        out = aggregate_messages(messages, np.zeros(0, dtype=np.int64), 2)
        out.sum().backward()
        assert messages.grad.shape == (0, 3)

    def test_rgcn_basis_messages_match_dense_weights(self, rng):
        """edge_messages (basis GEMMs) must equal summed x_src @ relation_weights."""
        layer = RGCNLayer(6, 4, num_relations=3, num_bases=2,
                          rng=np.random.default_rng(0))
        relations = rng.integers(0, 3, 11)
        sources, destinations = rng.integers(0, 7, 11), rng.integers(0, 7, 11)
        features = Tensor(rng.normal(size=(7, 6)))
        fast = layer.edge_messages(features, sources, relations, destinations,
                                   Tensor(np.ones((11, 1))))
        weights = layer.relation_weights(relations)
        messages = (features.gather_rows(sources).reshape(11, 6, 1) * weights).sum(axis=1)
        reference = aggregate_messages(messages, destinations, 7)
        np.testing.assert_allclose(fast.data, reference.data, atol=1e-10)


class TestCSRAdjacency:
    def test_matches_dict_adjacency(self):
        graph = _random_graph(seed=5)
        adjacency = graph.adjacency()
        for entity in range(graph.num_entities):
            assert set(adjacency.neighbors(entity).tolist()) == graph.neighbors(entity)

    def test_out_edges_match_triples_from(self):
        graph = _random_graph(seed=6)
        adjacency = graph.adjacency()
        for entity in range(graph.num_entities):
            heads, relations, tails = adjacency.out_edges_of_many(np.array([entity]))
            expected = [(t.head, t.relation, t.tail) for t in graph.triples_from(entity)]
            assert list(zip(heads.tolist(), relations.tolist(), tails.tolist())) == expected

    def test_cache_invalidated_on_mutation(self):
        graph = _random_graph(seed=7)
        before = graph.adjacency()
        assert graph.adjacency() is before  # cached
        fresh = next(
            Triple(h, 0, t)
            for h in range(graph.num_entities) for t in range(graph.num_entities)
            if not graph.contains(h, 0, t)
        )
        assert graph.add_triple(fresh)
        after = graph.adjacency()
        assert after is not before

    def test_empty_graph(self):
        graph = KnowledgeGraph(4, 2)
        adjacency = graph.adjacency()
        assert adjacency.neighbors(0).size == 0
        assert adjacency.neighbors_of_many(np.array([0, 1, 2])).size == 0


class TestBatchedScoring:
    """score_many must agree with the sequential per-triple scoring path."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = _random_graph(num_entities=40, num_relations=4, num_triples=160, seed=1)
        model = DEKGILP(4, config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                              subgraph_hops=2),
                        seed=0)
        model.eval()
        model.set_context(graph)
        rng = np.random.default_rng(3)
        triples = [
            Triple(int(rng.integers(40)), int(rng.integers(4)), int(rng.integers(40)))
            for _ in range(20)
        ]
        # Include a triple that exists in the graph (target-edge masking path).
        triples.append(graph.triples[0])
        return model, triples

    def test_score_many_matches_sequential(self, setup):
        model, triples = setup
        batched = model.score_many(triples)
        sequential = np.array([model.score(t) for t in triples])
        np.testing.assert_allclose(batched, sequential, atol=1e-10)

    def test_subgraph_cache_reused_across_relations(self, setup):
        model, triples = setup
        head, tail = triples[0].head, triples[0].tail
        variants = [Triple(head, r, tail) for r in range(4)]
        stats_before = model.subgraph_cache_stats()
        scores = model.score_many(variants)
        stats_after = model.subgraph_cache_stats()
        # One relation-agnostic extraction serves all four relation variants.
        assert stats_after["misses"] - stats_before["misses"] <= 1
        assert stats_after["hits"] - stats_before["hits"] >= 3
        sequential = np.array([model.score(t) for t in variants])
        np.testing.assert_allclose(scores, sequential, atol=1e-10)

    def test_gsm_score_batch_matches_single(self, setup):
        model, triples = setup
        gsm: GSM = model.gsm
        graph = model.context_graph
        subgraphs = model.subgraph_provider.get_many(
            graph, [(t.head, t.tail) for t in triples[:6]])
        relations = [t.relation for t in triples[:6]]
        batched = gsm.score_batch(subgraphs, relations).data
        singles = np.array([
            float(gsm.score_batch([s], [r]).data[0])
            for s, r in zip(subgraphs, relations)
        ])
        np.testing.assert_allclose(batched, singles, atol=1e-10)

    def test_score_batch_zero_edge_subgraph(self):
        graph = KnowledgeGraph(6, 2, [Triple(0, 0, 1), Triple(3, 1, 4)])
        gsm = GSM(2, hidden_dim=8, hops=1, rng=np.random.default_rng(0))
        gsm.eval()
        # 2 and 5 are isolated: the extraction has no edges at all.
        subgraph = extract_enclosing_subgraph(graph, Triple(2, 0, 5), hops=1,
                                              omit_target_edge=False)
        assert subgraph.num_edges == 0
        scores = gsm.score_batch([subgraph, subgraph], [0, 1]).data
        assert np.isfinite(scores).all()

    def test_segment_mean_pool_matches_mean(self, rng):
        nodes = Tensor(rng.normal(size=(7, 3)))
        ids = np.array([0, 0, 0, 1, 1, 1, 1])
        pooled = segment_mean_pool(nodes, ids, 2)
        np.testing.assert_allclose(pooled.data[0], nodes.data[:3].mean(axis=0))
        np.testing.assert_allclose(pooled.data[1], nodes.data[3:].mean(axis=0))

    def test_score_many_empty(self, setup):
        model, _ = setup
        assert model.score_many([]).shape == (0,)

    def test_cache_invalidated_by_in_place_graph_mutation(self):
        # Regression: mutating the context graph after set_context must not
        # serve stale cached extractions.
        graph = _random_graph(num_entities=20, num_relations=2, num_triples=30, seed=9)
        model = DEKGILP(2, config=ModelConfig(embedding_dim=4, gnn_hidden_dim=4,
                                              subgraph_hops=1),
                        seed=0)
        model.eval()
        model.set_context(graph)
        target = Triple(0, 0, 1)
        before = model.score_many([target])[0]
        cached_before = model.subgraph_provider.get_many(graph, [(0, 1)])[0]
        fresh = next(
            Triple(0, 1, t) for t in range(1, graph.num_entities)
            if not graph.contains(0, 1, t)
        )
        assert graph.add_triple(fresh)
        after = model.score_many([target])[0]
        assert model.subgraph_provider.get_many(graph, [(0, 1)])[0] is not cached_before
        expected = model.score(target)
        np.testing.assert_allclose(after, expected, atol=1e-10)
        assert after != before  # the new edge must influence the score
