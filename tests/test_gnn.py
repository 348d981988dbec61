"""Tests for the relational GNN substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.backend import active_backend
from repro.gnn.edge_dropout import counter_dropout_mask, edge_keys
from repro.gnn.encoder import SubgraphEncoder
from repro.gnn.message_passing import aggregate_messages, degree_normalization
from repro.gnn.pooling import max_pool_nodes, mean_pool_nodes, sum_pool_nodes
from repro.gnn.rgcn import RGCNLayer
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.subgraph.extraction import extract_enclosing_subgraph

from test_scatter_and_batching import assert_within_rounding, basis_sum
from test_tensor_ops import numerical_gradient


class TestMessagePassing:
    def test_aggregate_sums_messages(self):
        messages = Tensor(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
        destinations = np.array([0, 0, 1])
        out = aggregate_messages(messages, destinations, num_nodes=3)
        np.testing.assert_array_equal(out.data, [[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]])

    def test_aggregate_with_weights(self):
        messages = Tensor(np.array([[2.0], [4.0]]))
        weights = Tensor(np.array([[0.5], [0.25]]))
        out = aggregate_messages(messages * weights, np.array([0, 0]), num_nodes=1)
        assert out.data[0, 0] == pytest.approx(2.0)

    def test_aggregate_gradient_flows(self):
        messages = Tensor(np.ones((3, 2)), requires_grad=True)
        out = aggregate_messages(messages, np.array([0, 1, 1]), num_nodes=2)
        out.sum().backward()
        np.testing.assert_array_equal(messages.grad, np.ones((3, 2)))

    def test_degree_normalization(self):
        norm = degree_normalization(np.array([0, 0, 1]), num_nodes=3)
        np.testing.assert_allclose(norm.reshape(-1), [0.5, 0.5, 1.0])

    def test_degree_normalization_handles_zero_degree(self):
        norm = degree_normalization(np.array([2]), num_nodes=4)
        assert np.isfinite(norm).all()


class TestPooling:
    def test_mean_pool(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(mean_pool_nodes(x).data, [2.0, 3.0])

    def test_sum_pool(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(sum_pool_nodes(x).data, [4.0, 6.0])

    def test_max_pool(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(max_pool_nodes(x).data, [3.0, 5.0])


@pytest.fixture
def toy_subgraph(tiny_graph):
    return extract_enclosing_subgraph(tiny_graph, Triple(0, 0, 2), hops=2)


class TestRGCNLayer:
    def test_output_shape(self, toy_subgraph):
        layer = RGCNLayer(in_dim=6, out_dim=8, num_relations=3, rng=np.random.default_rng(0))
        out = layer(Tensor(toy_subgraph.node_features), toy_subgraph.edges)
        assert out.shape == (toy_subgraph.num_nodes, 8)

    def test_no_edges_still_works(self):
        layer = RGCNLayer(in_dim=4, out_dim=4, num_relations=2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((3, 4))), np.zeros((0, 3), dtype=np.int64))
        assert out.shape == (3, 4)

    def test_output_nonnegative_after_relu(self, toy_subgraph):
        layer = RGCNLayer(in_dim=6, out_dim=5, num_relations=3, rng=np.random.default_rng(0))
        out = layer(Tensor(toy_subgraph.node_features), toy_subgraph.edges)
        assert np.all(out.data >= 0)

    def test_gradients_reach_basis(self, toy_subgraph):
        layer = RGCNLayer(in_dim=6, out_dim=4, num_relations=3, rng=np.random.default_rng(0))
        out = layer(Tensor(toy_subgraph.node_features), toy_subgraph.edges)
        out.sum().backward()
        assert layer.basis.grad is not None
        assert layer.self_weight.grad is not None

    def test_attention_toggle_changes_parameter_count(self):
        with_attention = RGCNLayer(4, 4, 3, use_attention=True)
        without_attention = RGCNLayer(4, 4, 3, use_attention=False)
        assert with_attention.num_parameters() > without_attention.num_parameters()

    def test_num_bases_capped_at_relations(self):
        layer = RGCNLayer(4, 4, num_relations=2, num_bases=10)
        assert layer.num_bases == 2

    def test_invalid_bases(self):
        with pytest.raises(ValueError):
            RGCNLayer(4, 4, 3, num_bases=0)

    def test_messages_propagate_information(self):
        # Two nodes, an edge 0 -> 1: node 1's output must depend on node 0's input.
        graph_edges = np.array([[0, 0, 1]], dtype=np.int64)
        layer = RGCNLayer(2, 2, 1, use_attention=False, rng=np.random.default_rng(0))
        base = layer(Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])), graph_edges).data[1]
        changed = layer(Tensor(np.array([[5.0, 0.0], [0.0, 0.0]])), graph_edges).data[1]
        assert not np.allclose(base, changed)


def reference_rgcn_forward(layer: RGCNLayer, node_features: Tensor, edges,
                           edge_identity=None) -> Tensor:
    """The oracle for :meth:`RGCNLayer.forward`: the layer's earlier composition.

    The attention logit is ``Linear`` over the ``[x_src | x_dst | r]``
    concat; messages are a broadcast multiply and a sum over the basis axis;
    the sigmoid gate, dropout mask and degree norm weight the finished
    ``(E, out_dim)`` messages before ``aggregate_messages``.  The layer
    computes the same function in another order, so the two agree to float64
    rounding.
    """
    num_nodes = node_features.shape[0]
    self_message = node_features @ layer.self_weight
    if edges.size == 0:
        return (self_message + layer.bias).relu()
    sources, relations, destinations = edges[:, 0], edges[:, 1], edges[:, 2]
    num_edges, bases = len(relations), layer.num_bases
    source_features = node_features.gather_rows(sources)
    coeff = layer.coefficients.gather_rows(relations)
    basis_matrix = (layer.basis.reshape(bases, layer.in_dim, layer.out_dim)
                    .transpose(1, 0, 2).reshape(layer.in_dim, bases * layer.out_dim))
    projected = (source_features @ basis_matrix).reshape(num_edges, bases, layer.out_dim)
    messages = (projected * coeff.reshape(num_edges, bases, 1)).sum(axis=1)
    dropout_gate = None
    if layer.training and layer.dropout_rate > 0:
        if edge_identity is None:
            edge_identity = edge_keys(np.arange(num_nodes, dtype=np.int64), edges)
        dropout_gate = Tensor(counter_dropout_mask(
            layer.dropout_clock, layer.layer_index, edge_identity, layer.dropout_rate))
    gate = dropout_gate
    if layer.attention is not None:
        attention_input = F.concat([source_features,
                                    node_features.gather_rows(destinations),
                                    layer.relation_embedding.gather_rows(relations)], axis=1)
        gate = layer.attention(attention_input).sigmoid()
        if dropout_gate is not None:
            gate = gate * dropout_gate
    norm = Tensor(degree_normalization(destinations, num_nodes))
    gate = norm if gate is None else gate * norm
    aggregated = aggregate_messages(messages * gate, destinations, num_nodes)
    return (self_message + aggregated + layer.bias).relu()


def unfused_rgcn_forward(layer: RGCNLayer, node_features: Tensor, edges,
                         edge_identity=None, gather_first: bool = False) -> Tensor:
    """The second oracle: the layer with its edge path unfused, bit for bit.

    Same scale and attention gate as :meth:`RGCNLayer.forward`, but the
    ``(N, B·out)`` node projection, its gathered ``(E, B·out)`` rows, their
    ``(E, B, out)`` view and the ``(E, out)`` messages are separate tape
    nodes before ``aggregate_messages``.  This project-first chain is the
    arithmetic of the fused node in the same order, so output and gradients
    match exactly.  ``gather_first`` gathers the source rows before the
    GEMM instead, the chain the node replaced, which matches to rounding
    only (see :func:`gather_first_rgcn_forward`).
    """
    num_nodes = node_features.shape[0]
    self_message = node_features @ layer.self_weight
    if edges.size == 0:
        return (self_message + layer.bias).relu()
    sources, relations, destinations = edges[:, 0], edges[:, 1], edges[:, 2]
    num_edges, bases = len(relations), layer.num_bases
    scale = degree_normalization(destinations, num_nodes)
    if layer.training and layer.dropout_rate > 0:
        if edge_identity is None:
            edge_identity = edge_keys(np.arange(num_nodes, dtype=np.int64), edges)
        scale = scale * counter_dropout_mask(layer.dropout_clock, layer.layer_index,
                                             edge_identity, layer.dropout_rate)
    edge_weights = Tensor(scale)
    if layer.attention is not None:
        edge_weights = layer.attention_gate(
            node_features, sources, relations, destinations) * edge_weights
    coeff = layer.coefficients.gather_rows(relations) * edge_weights
    basis_matrix = (layer.basis.reshape(bases, layer.in_dim, layer.out_dim)
                    .transpose(1, 0, 2).reshape(layer.in_dim, bases * layer.out_dim))
    if gather_first:
        projected = node_features.gather_rows(sources) @ basis_matrix
    else:
        projected = (node_features @ basis_matrix).gather_rows(sources)
    messages = basis_sum(projected.reshape(num_edges, bases, layer.out_dim), coeff)
    aggregated = aggregate_messages(messages, destinations, num_nodes)
    return (self_message + aggregated + layer.bias).relu()


def gather_first_rgcn_forward(layer: RGCNLayer, node_features: Tensor, edges) -> Tensor:
    """The unfused edge path with the source rows gathered before the GEMM.

    BLAS blocks a GEMM by its row count, so ``X[src] @ W`` and
    ``(X @ W)[src]`` can differ in the last bits, and this chain's backward
    sums the edges after its GEMMs instead of before; the layer matches it
    to rounding.
    """
    return unfused_rgcn_forward(layer, node_features, edges, gather_first=True)


def _run_layer(forward, layer: RGCNLayer, features, edges, cotangent):
    """Output, input gradient and parameter gradients of one forward/backward."""
    layer.zero_grad()
    x = Tensor(features, requires_grad=True)
    out = forward(layer, x, edges)
    (out * Tensor(cotangent)).sum().backward()
    grads = {name: param.grad.copy() for name, param in layer.named_parameters()
             if param.grad is not None}
    return out.data.copy(), x.grad.copy(), grads


def _edge_path_case(use_attention: bool, dropout: float, wide: bool = False):
    """A layer, inputs and cotangent; dropout > 0 runs in training mode.

    The small case has duplicate destinations, a self loop and a node
    without in-edges; the wide one has the default GSM width and a union
    graph's edge density.
    """
    rng = np.random.default_rng(3)
    dims, relations, bases, nodes = (32, 10, 4, 200) if wide else (3, 3, 2, 6)
    out_dim = 32 if wide else 4
    layer = RGCNLayer(dims, out_dim, num_relations=relations, num_bases=bases,
                      use_attention=use_attention, dropout=dropout,
                      rng=np.random.default_rng(0))
    layer.bias.data = rng.normal(size=out_dim)  # keep outputs off the ReLU kink
    if use_attention:
        layer.attention.bias.data = rng.normal(size=1)
    layer.train() if dropout > 0 else layer.eval()
    features = rng.normal(size=(nodes, dims))
    if wide:
        edges = np.stack([rng.integers(0, nodes, 800), rng.integers(0, relations, 800),
                          rng.integers(0, nodes, 800)], axis=1)
    else:
        edges = np.array([[0, 0, 1], [2, 1, 1], [3, 2, 1], [1, 0, 2], [4, 1, 2],
                          [5, 2, 3], [3, 1, 3], [2, 2, 4], [0, 1, 0], [1, 2, 4]])
    cotangent = rng.normal(size=(nodes, out_dim))
    return layer, features, edges, cotangent


EDGE_PATH_CASES = [(attention, dropout) for attention in (True, False)
                   for dropout in (0.0, 0.5)]


class TestRGCNEdgePath:
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("use_attention,dropout", EDGE_PATH_CASES)
    def test_matches_reference_composition(self, use_attention, dropout, wide):
        """Output and every gradient equal the oracle to 1e-12."""
        layer, features, edges, cotangent = _edge_path_case(use_attention, dropout, wide)
        out, x_grad, grads = _run_layer(RGCNLayer.forward, layer, features, edges, cotangent)
        ref_out, ref_x_grad, ref_grads = _run_layer(reference_rgcn_forward, layer, features,
                                                    edges, cotangent)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x_grad, ref_x_grad, rtol=0, atol=1e-12)
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("use_attention,dropout", EDGE_PATH_CASES)
    def test_bit_identical_to_unfused_edge_path(self, use_attention, dropout, wide):
        """Output, input gradient and every parameter gradient equal the
        unfused project-first edge path exactly."""
        layer, features, edges, cotangent = _edge_path_case(use_attention, dropout, wide)
        out, x_grad, grads = _run_layer(RGCNLayer.forward, layer, features, edges, cotangent)
        ref_out, ref_x_grad, ref_grads = _run_layer(unfused_rgcn_forward, layer, features,
                                                    edges, cotangent)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(x_grad, ref_x_grad)
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("use_attention,dropout", EDGE_PATH_CASES)
    def test_matches_gather_first_edge_path(self, use_attention, dropout, wide):
        """Output, input gradient and every parameter gradient equal the
        gather-first edge path to ``1e-12`` of each array's largest value."""
        layer, features, edges, cotangent = _edge_path_case(use_attention, dropout, wide)
        out, x_grad, grads = _run_layer(RGCNLayer.forward, layer, features, edges, cotangent)
        ref_out, ref_x_grad, ref_grads = _run_layer(gather_first_rgcn_forward, layer,
                                                    features, edges, cotangent)
        assert_within_rounding(out, ref_out)
        assert_within_rounding(x_grad, ref_x_grad)
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            assert_within_rounding(grads[name], ref_grads[name], err_msg=name)

    def test_tape_keeps_no_per_edge_feature_arrays(self):
        """No tape tensor of a training-mode layer has one row per edge and
        ``in_dim`` or more columns: the gathered sources, their projection
        and the messages live inside the fused node, not on the tape."""
        layer, features, edges, _ = _edge_path_case(True, 0.5, wide=True)
        out = layer(Tensor(features, requires_grad=True), edges)
        num_edges = len(edges)
        assert num_edges != len(features)
        per_edge, seen, stack = [], set(), [out]
        while stack:
            tensor = stack.pop()
            if id(tensor) in seen:
                continue
            seen.add(id(tensor))
            stack.extend(tensor._parents)
            if (tensor.ndim and tensor.shape[0] == num_edges
                    and tensor.size // num_edges >= layer.in_dim):
                per_edge.append(tensor.shape)
        assert len(seen) > 10  # the walk really covered the layer's graph
        assert per_edge == []

    def test_message_passing_closure_keeps_no_per_edge_feature_arrays(self):
        """The fused node's backward closure holds no array with one row per
        edge and ``in_dim`` or more columns: it keeps the ``(N, B·out)`` node
        projection and gathers ``P[sources]`` only while backward runs."""
        layer, features, edges, _ = _edge_path_case(True, 0.5, wide=True)
        out = layer(Tensor(features, requires_grad=True), edges)
        num_edges = len(edges)
        nodes, seen, stack = [], set(), [out]
        while stack:
            tensor = stack.pop()
            if id(tensor) in seen:
                continue
            seen.add(id(tensor))
            stack.extend(tensor._parents)
            if getattr(tensor._backward, "__qualname__", "").startswith("basis_message_passing."):
                nodes.append(tensor)
        assert len(nodes) == 1
        captured = []
        for cell in nodes[0]._backward.__closure__:
            value = cell.cell_contents
            array = value.data if isinstance(value, Tensor) else value
            if (getattr(array, "ndim", 0) and array.shape[0] == num_edges
                    and array.size // num_edges >= layer.in_dim):
                captured.append(array.shape)
        assert captured == []

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_dropout_mask_moves_to_the_compute_backend(self, monkeypatch, use_attention):
        """The mask is drawn as a host array; it must pass the backend's
        ``asarray`` before it meets the device-side degree norm (on numpy the
        two are the same kind of array, so a missed conversion is silent)."""
        import repro.gnn.rgcn as rgcn_mod

        masks, converted = [], []
        draw_mask = rgcn_mod.counter_dropout_mask
        monkeypatch.setattr(rgcn_mod, "counter_dropout_mask",
                            lambda *args: masks.append(draw_mask(*args)) or masks[-1])
        backend = active_backend()
        to_device = backend.asarray
        monkeypatch.setattr(backend, "asarray",
                            lambda data: converted.append(data) or to_device(data))
        layer, features, edges, _ = _edge_path_case(use_attention, dropout=0.5)
        layer(Tensor(features), edges)
        assert len(masks) == 1
        assert any(data is masks[0] for data in converted)

    @pytest.mark.parametrize("use_attention,dropout", EDGE_PATH_CASES)
    def test_gradcheck_input_and_every_parameter(self, use_attention, dropout):
        layer, features, edges, cotangent = _edge_path_case(use_attention, dropout)

        def loss(x: Tensor) -> Tensor:
            return (layer(x, edges) * Tensor(cotangent)).sum()

        x = Tensor(features.copy(), requires_grad=True)
        layer.zero_grad()
        loss(x).backward()
        np.testing.assert_allclose(
            x.grad, numerical_gradient(lambda a: float(loss(Tensor(a)).data), features.copy()),
            atol=1e-6)
        for name, param in layer.named_parameters():
            if name == "relation_embedding" and not use_attention:
                assert param.grad is None  # read by the attention gate only
                continue

            def perturbed(value, param=param):
                saved = param.data
                param.data = value
                try:
                    return float(loss(Tensor(features)).data)
                finally:
                    param.data = saved

            numeric = numerical_gradient(perturbed, param.data.copy())
            np.testing.assert_allclose(param.grad, numeric, atol=1e-6, err_msg=name)


class TestSubgraphEncoder:
    def test_encode_shapes(self, toy_subgraph):
        encoder = SubgraphEncoder(input_dim=6, hidden_dim=8, num_relations=3,
                                  rng=np.random.default_rng(0))
        graph_vec, head_vec, tail_vec = encoder.encode(toy_subgraph)
        assert graph_vec.shape == (8,)
        assert head_vec.shape == (8,)
        assert tail_vec.shape == (8,)

    def test_layer_count_validation(self):
        with pytest.raises(ValueError):
            SubgraphEncoder(4, 4, 2, num_layers=0)

    def test_forward_matrix_shape(self, toy_subgraph):
        encoder = SubgraphEncoder(input_dim=6, hidden_dim=5, num_relations=3,
                                  num_layers=3, rng=np.random.default_rng(0))
        out = encoder(toy_subgraph)
        assert out.shape == (toy_subgraph.num_nodes, 5)

    def test_gradients_flow_through_encoder(self, toy_subgraph):
        encoder = SubgraphEncoder(input_dim=6, hidden_dim=4, num_relations=3,
                                  rng=np.random.default_rng(0))
        graph_vec, _, _ = encoder.encode(toy_subgraph)
        graph_vec.sum().backward()
        assert encoder.input_projection.weight.grad is not None

    def test_dropout_only_in_training(self, toy_subgraph):
        encoder = SubgraphEncoder(input_dim=6, hidden_dim=4, num_relations=3,
                                  dropout=0.9, rng=np.random.default_rng(0))
        encoder.eval()
        a = encoder(toy_subgraph).data
        b = encoder(toy_subgraph).data
        np.testing.assert_array_equal(a, b)

    def test_disconnected_subgraph_encodes(self):
        graph = KnowledgeGraph(6, 2, [Triple(0, 0, 1), Triple(3, 1, 4)])
        subgraph = extract_enclosing_subgraph(graph, Triple(1, 0, 3), hops=2)
        assert subgraph.is_disconnected()
        encoder = SubgraphEncoder(input_dim=6, hidden_dim=4, num_relations=2,
                                  rng=np.random.default_rng(0))
        graph_vec, head_vec, tail_vec = encoder.encode(subgraph)
        assert np.isfinite(graph_vec.data).all()
        assert np.isfinite(head_vec.data).all()
        assert np.isfinite(tail_vec.data).all()


class TestCounterEdgeDropout:
    """The (seed, epoch, layer, edge) counter behind training-time dropout."""

    def test_uniform_from_keys_deterministic_and_salted(self):
        from repro.gnn.edge_dropout import uniform_from_keys

        keys = np.arange(1000, dtype=np.uint64)
        first = uniform_from_keys(keys, 3, 1, 0)
        np.testing.assert_array_equal(first, uniform_from_keys(keys, 3, 1, 0))
        for other_salts in ((4, 1, 0), (3, 2, 0), (3, 1, 1)):
            assert not np.array_equal(first, uniform_from_keys(keys, *other_salts))
        assert first.min() >= 0.0 and first.max() < 1.0
        # Roughly uniform: the mean of 1000 variates sits near 0.5.
        assert abs(first.mean() - 0.5) < 0.05

    def test_edge_keys_are_global_identities(self):
        from repro.gnn.edge_dropout import edge_keys

        edges = np.array([[0, 1, 2], [1, 0, 0]], dtype=np.int64)
        # Different global node mappings must hash differently; the same
        # mapping must hash identically regardless of call site.
        nodes_a = [10, 11, 12]
        nodes_b = [10, 11, 13]
        np.testing.assert_array_equal(edge_keys(nodes_a, edges),
                                      edge_keys(nodes_a, edges))
        assert not np.array_equal(edge_keys(nodes_a, edges),
                                  edge_keys(nodes_b, edges))
        assert edge_keys(nodes_a, np.zeros((0, 3), dtype=np.int64)).shape == (0,)

    def test_mask_epoch_advances_redraw(self):
        from repro.gnn.edge_dropout import (DropoutClock, counter_dropout_mask,
                                            edge_keys)

        clock = DropoutClock(seed=7)
        edges = np.column_stack([np.arange(64), np.zeros(64, dtype=np.int64),
                                 np.arange(1, 65)]).astype(np.int64)
        keys = edge_keys(np.arange(65), edges)
        first = counter_dropout_mask(clock, 0, keys, rate=0.5)
        assert first.shape == (64, 1)
        np.testing.assert_array_equal(first, counter_dropout_mask(clock, 0, keys, 0.5))
        # Advancing the epoch redraws the masks for the very same edges.
        clock.epoch = 1
        redrawn = counter_dropout_mask(clock, 0, keys, rate=0.5)
        assert not np.array_equal(first, redrawn)
        # Inverted dropout: kept entries scale by 1 / (1 - rate).
        assert set(np.unique(first)).issubset({0.0, 2.0})

    def test_union_graph_masks_equal_per_subgraph_masks(self):
        """The property the whole trainer-parity guarantee rests on."""
        graph = KnowledgeGraph(8, 2, [Triple(0, 0, 1), Triple(1, 1, 2),
                                      Triple(2, 0, 3), Triple(4, 1, 5)])
        encoder = SubgraphEncoder(input_dim=6, hidden_dim=4, num_relations=2,
                                  dropout=0.5, rng=np.random.default_rng(0),
                                  dropout_seed=11)
        encoder.train()
        left = extract_enclosing_subgraph(graph, Triple(0, 0, 3), hops=2)
        right = extract_enclosing_subgraph(graph, Triple(4, 1, 5), hops=2)
        separate = [encoder(left).data.copy(), encoder(right).data.copy()]
        # Same subgraphs concatenated into one block-diagonal union graph.
        from repro.gnn.edge_dropout import edge_keys

        offset = left.num_nodes
        shifted = right.edges.copy()
        if shifted.size:
            shifted[:, 0] += offset
            shifted[:, 2] += offset
        union_edges = np.concatenate([left.edges, shifted])
        union_keys = np.concatenate([edge_keys(left.nodes, left.edges),
                                     edge_keys(right.nodes, right.edges)])
        features = Tensor(np.concatenate([left.node_features, right.node_features]))
        union = encoder.forward_features(features, union_edges,
                                         edge_identity=union_keys).data
        np.testing.assert_allclose(union[:offset], separate[0], atol=1e-12)
        np.testing.assert_allclose(union[offset:], separate[1], atol=1e-12)
