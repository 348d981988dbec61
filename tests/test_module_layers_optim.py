"""Tests for Module/Parameter, layers and optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import init
from repro.autodiff.layers import Dropout, Embedding, Linear, ReLU, Sequential, Sigmoid, Tanh
from repro.autodiff.module import Module, Parameter
from repro.autodiff.optim import SGD, Adam, clip_grad_norm
from repro.autodiff.tensor import Tensor


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.linear1 = Linear(3, 4, rng=np.random.default_rng(0))
        self.linear2 = Linear(4, 1, rng=np.random.default_rng(1))
        self.dropout = Dropout(0.5, seed=2)
        self.layers = [Linear(2, 2, rng=np.random.default_rng(3))]
        self.lookup = {"embed": Embedding(5, 3, rng=np.random.default_rng(4))}

    def forward(self, x):
        return self.linear2(self.dropout(self.linear1(x).relu()))


class TestModule:
    def test_parameters_discovered_recursively(self):
        net = TinyNet()
        names = dict(net.named_parameters())
        assert "linear1.weight" in names
        assert "linear1.bias" in names
        assert "layers.0.weight" in names
        assert "lookup.embed.weight" in names
        assert len(net.parameters()) == 7

    def test_num_parameters(self):
        net = TinyNet()
        expected = 3 * 4 + 4 + 4 * 1 + 1 + 2 * 2 + 2 + 5 * 3
        assert net.num_parameters() == expected

    def test_train_eval_toggle(self):
        net = TinyNet()
        net.eval()
        assert not net.dropout.training
        net.train()
        assert net.dropout.training

    def test_zero_grad(self):
        net = TinyNet()
        out = net(Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net = TinyNet()
        state = net.state_dict()
        other = TinyNet()
        other.load_state_dict(state)
        np.testing.assert_array_equal(other.linear1.weight.data, net.linear1.weight.data)

    def test_state_dict_copies(self):
        net = TinyNet()
        state = net.state_dict()
        state["linear1.weight"][:] = 0
        assert not np.all(net.linear1.weight.data == 0)

    def test_load_state_dict_shape_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state["linear1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_state_dict_key_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("linear1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(3, 5)
        out = layer(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 5)

    def test_linear_no_bias(self):
        layer = Linear(3, 5, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_gradients_flow(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((2, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_embedding_lookup(self):
        table = Embedding(4, 3, rng=np.random.default_rng(0))
        out = table(np.array([1, 3]))
        np.testing.assert_array_equal(out.data[0], table.weight.data[1])
        np.testing.assert_array_equal(out.data[1], table.weight.data[3])

    def test_embedding_out_of_range(self):
        table = Embedding(4, 3)
        with pytest.raises(IndexError):
            table(np.array([4]))

    def test_embedding_gradient_sparse(self):
        table = Embedding(4, 3, rng=np.random.default_rng(0))
        table(np.array([1, 1])).sum().backward()
        grad = table.weight.grad
        np.testing.assert_array_equal(grad[0], np.zeros(3))
        np.testing.assert_array_equal(grad[1], 2 * np.ones(3))

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_dropout_eval_identity(self):
        layer = Dropout(0.9, seed=0)
        layer.eval()
        x = Tensor(np.ones(100))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_activation_modules(self):
        assert ReLU()(Tensor([-1.0, 1.0])).data.tolist() == [0.0, 1.0]
        assert Sigmoid()(Tensor([0.0])).data[0] == pytest.approx(0.5)
        assert Tanh()(Tensor([0.0])).data[0] == 0.0

    def test_sequential(self):
        model = Sequential([Linear(2, 4, rng=np.random.default_rng(0)), ReLU(),
                            Linear(4, 1, rng=np.random.default_rng(1))])
        out = model(Tensor(np.ones((3, 2))))
        assert out.shape == (3, 1)
        assert len(model.parameters()) == 4


class TestInit:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        values = init.xavier_uniform((50, 60), rng=rng)
        limit = np.sqrt(6.0 / 110)
        assert np.all(np.abs(values) <= limit)

    def test_xavier_normal_std(self):
        rng = np.random.default_rng(0)
        values = init.xavier_normal((200, 300), rng=rng)
        assert values.std() == pytest.approx(np.sqrt(2.0 / 500), rel=0.1)

    def test_uniform_and_normal_and_zeros(self):
        rng = np.random.default_rng(0)
        assert np.all(np.abs(init.uniform((10,), -0.5, 0.5, rng=rng)) <= 0.5)
        assert init.normal((10000,), std=0.02, rng=rng).std() == pytest.approx(0.02, rel=0.1)
        assert np.all(init.zeros((3, 3)) == 0)


def quadratic_loss(parameter: Parameter) -> Tensor:
    return ((parameter - Tensor([3.0, -2.0])) ** 2).sum()


class TestOptimizers:
    def test_sgd_converges_on_quadratic(self):
        param = Parameter(np.zeros(2))
        optimizer = SGD([param], lr=0.1)
        for _ in range(100):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-3)

    def test_sgd_momentum_converges(self):
        param = Parameter(np.zeros(2))
        optimizer = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_adam_converges_on_quadratic(self):
        param = Parameter(np.zeros(2))
        optimizer = Adam([param], lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.array([10.0]))
        optimizer = SGD([param], lr=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        (param * 0.0).sum().backward()
        optimizer.step()
        assert abs(param.data[0]) < 10.0

    def test_skip_parameters_without_grad(self):
        used = Parameter(np.array([1.0]))
        unused = Parameter(np.array([5.0]))
        optimizer = Adam([used, unused], lr=0.1)
        (used * 2.0).sum().backward()
        optimizer.step()
        assert unused.data[0] == 5.0

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_clip_grad_norm(self):
        param = Parameter(np.array([1.0, 1.0]))
        param.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_no_grads(self):
        param = Parameter(np.array([1.0]))
        assert clip_grad_norm([param], 1.0) == 0.0

    def test_clip_grad_norm_zeroes_nan_gradients(self):
        # Regression: nan > max_norm is False, so poisoned gradients used to
        # pass through unclipped while the returned "norm" was NaN.
        param = Parameter(np.array([1.0, 1.0]))
        param.grad = np.array([np.nan, 1.0])
        norm = clip_grad_norm([param], max_norm=1.0)
        assert not np.isfinite(norm)
        np.testing.assert_array_equal(param.grad, np.zeros(2))

    def test_clip_grad_norm_zeroes_inf_gradients(self):
        healthy = Parameter(np.array([1.0]))
        healthy.grad = np.array([2.0])
        poisoned = Parameter(np.array([1.0]))
        poisoned.grad = np.array([np.inf])
        norm = clip_grad_norm([healthy, poisoned], max_norm=1.0)
        assert not np.isfinite(norm)
        # The whole step is skipped, not just the poisoned parameter.
        np.testing.assert_array_equal(healthy.grad, np.zeros(1))
        np.testing.assert_array_equal(poisoned.grad, np.zeros(1))

    def test_clip_grad_norm_error_if_nonfinite(self):
        param = Parameter(np.array([1.0]))
        param.grad = np.array([np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            clip_grad_norm([param], 1.0, error_if_nonfinite=True)

    def test_nonfinite_step_is_noop_through_optimizer(self):
        param = Parameter(np.array([1.0, 2.0]))
        optimizer = SGD([param], lr=0.5)
        param.grad = np.array([np.nan, np.inf])
        clip_grad_norm([param], max_norm=1.0)
        optimizer.step()
        np.testing.assert_array_equal(param.data, [1.0, 2.0])

    def test_adam_moves_on_zero_gradients(self):
        # Documents why Trainer must skip optimizer.step() outright when
        # clip_grad_norm reports a non-finite norm: Adam's momentum applies
        # a nonzero update even after the gradients are zeroed.
        param = Parameter(np.array([1.0]))
        optimizer = Adam([param], lr=0.1)
        param.grad = np.array([1.0])
        optimizer.step()
        moved = param.data.copy()
        param.grad = np.zeros(1)
        optimizer.step()
        assert param.data[0] != moved[0]
