"""Unit tests for the autodiff Tensor: forward values and numerical gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, no_grad


def numerical_gradient(fn, value: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        upper = fn(value)
        flat[i] = original - epsilon
        lower = fn(value)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * epsilon)
    return grad


def check_gradient(build, value: np.ndarray, atol: float = 1e-5):
    """Compare autodiff gradient of ``build(Tensor)`` against finite differences."""
    tensor = Tensor(value.copy(), requires_grad=True)
    output = build(tensor)
    output.backward()
    expected = numerical_gradient(lambda arr: float(build(Tensor(arr)).data), value.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol)


class TestForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0, 2.0]) + 5.0
        np.testing.assert_array_equal(out.data, [6.0, 7.0])

    def test_radd(self):
        out = 5.0 + Tensor([1.0, 2.0])
        np.testing.assert_array_equal(out.data, [6.0, 7.0])

    def test_sub(self):
        out = Tensor([3.0]) - Tensor([1.0])
        assert out.data[0] == 2.0

    def test_rsub(self):
        out = 10.0 - Tensor([3.0])
        assert out.data[0] == 7.0

    def test_mul(self):
        out = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
        np.testing.assert_array_equal(out.data, [8.0, 15.0])

    def test_div(self):
        out = Tensor([8.0]) / Tensor([2.0])
        assert out.data[0] == 4.0

    def test_rtruediv(self):
        out = 8.0 / Tensor([2.0])
        assert out.data[0] == 4.0

    def test_neg(self):
        np.testing.assert_array_equal((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        assert (Tensor([3.0]) ** 2).data[0] == 9.0

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((a @ b).data, np.array([[19, 22], [43, 50]], dtype=float))

    def test_matmul_vector(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([1.0, 1.0])
        np.testing.assert_array_equal((a @ v).data, [3.0, 7.0])

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.5])
        np.testing.assert_allclose(x.exp().log().data, x.data)

    def test_relu(self):
        np.testing.assert_array_equal(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_sigmoid_bounds(self):
        values = Tensor(np.linspace(-10, 10, 7)).sigmoid().data
        assert np.all(values > 0) and np.all(values < 1)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 5)
        np.testing.assert_allclose(Tensor(x).tanh().data, np.tanh(x))

    def test_sin_cos(self):
        x = np.linspace(0, np.pi, 5)
        np.testing.assert_allclose(Tensor(x).sin().data, np.sin(x))
        np.testing.assert_allclose(Tensor(x).cos().data, np.cos(x))

    def test_abs(self):
        np.testing.assert_array_equal(Tensor([-2.0, 3.0]).abs().data, [2.0, 3.0])

    def test_clamp_min(self):
        np.testing.assert_array_equal(Tensor([-2.0, 3.0]).clamp_min(0.0).data, [0.0, 3.0])

    def test_sum_axis(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(x.sum(axis=0).data, [4.0, 6.0])
        np.testing.assert_array_equal(x.sum(axis=1).data, [3.0, 7.0])

    def test_sum_keepdims(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        assert Tensor([2.0, 4.0]).mean().item() == 3.0

    def test_mean_axis(self):
        x = Tensor([[1.0, 3.0], [5.0, 7.0]])
        np.testing.assert_array_equal(x.mean(axis=0).data, [3.0, 5.0])

    def test_norm(self):
        assert Tensor([3.0, 4.0]).norm().item() == pytest.approx(5.0)

    def test_reshape(self):
        assert Tensor(np.arange(6.0)).reshape(2, 3).shape == (2, 3)

    def test_reshape_tuple_argument(self):
        assert Tensor(np.arange(6.0)).reshape((3, 2)).shape == (3, 2)

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3))).flatten().shape == (6,)

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.T.shape == (3, 2)

    def test_getitem_row(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(x[1].data, [3.0, 4.0, 5.0])

    def test_gather_rows(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = x.gather_rows(np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_concat(self):
        out = Tensor.concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=0)
        np.testing.assert_array_equal(out.data, [[1.0], [2.0]])

    def test_stack(self):
        out = Tensor.stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])])
        assert out.shape == (2, 2)

    def test_item_and_len(self):
        assert Tensor([42.0]).item() == 42.0
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_detach_drops_graph(self):
        x = Tensor([1.0], requires_grad=True)
        assert not (x * 2).detach().requires_grad


class TestBackward:
    def test_add_gradient(self, rng):
        check_gradient(lambda t: (t + t * 2.0).sum(), rng.normal(size=(3, 2)))

    def test_mul_gradient(self, rng):
        check_gradient(lambda t: (t * t).sum(), rng.normal(size=(4,)))

    def test_div_gradient(self, rng):
        check_gradient(lambda t: (t / 3.0 + 2.0 / (t + 5.0)).sum(), rng.uniform(1, 2, size=(3,)))

    def test_matmul_gradient(self, rng):
        fixed = rng.normal(size=(3, 2))
        check_gradient(lambda t: (t @ Tensor(fixed)).sum(), rng.normal(size=(2, 3)))

    def test_matmul_right_gradient(self, rng):
        fixed = rng.normal(size=(2, 3))
        check_gradient(lambda t: (Tensor(fixed) @ t).sum(), rng.normal(size=(3, 2)))

    def test_exp_gradient(self, rng):
        check_gradient(lambda t: t.exp().sum(), rng.normal(size=(3,)))

    def test_log_gradient(self, rng):
        check_gradient(lambda t: t.log().sum(), rng.uniform(0.5, 2.0, size=(3,)))

    def test_sigmoid_gradient(self, rng):
        check_gradient(lambda t: t.sigmoid().sum(), rng.normal(size=(3,)))

    def test_tanh_gradient(self, rng):
        check_gradient(lambda t: t.tanh().sum(), rng.normal(size=(3,)))

    def test_sin_cos_gradient(self, rng):
        check_gradient(lambda t: (t.sin() * t.cos()).sum(), rng.normal(size=(4,)))

    def test_relu_gradient(self, rng):
        value = rng.normal(size=(5,))
        value[np.abs(value) < 1e-2] = 0.5  # keep away from the kink
        check_gradient(lambda t: t.relu().sum(), value)

    def test_abs_gradient(self):
        check_gradient(lambda t: t.abs().sum(), np.array([1.5, -2.5, 3.0]))

    def test_clamp_min_gradient(self):
        check_gradient(lambda t: t.clamp_min(0.0).sum(), np.array([1.5, -2.5, 3.0]))

    def test_pow_gradient(self, rng):
        check_gradient(lambda t: (t ** 3).sum(), rng.uniform(0.5, 1.5, size=(3,)))

    def test_sum_axis_gradient(self, rng):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 2)))

    def test_mean_gradient(self, rng):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), rng.normal(size=(2, 4)))

    def test_reshape_gradient(self, rng):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), rng.normal(size=(2, 3)))

    def test_transpose_gradient(self, rng):
        fixed = rng.normal(size=(3, 2))
        check_gradient(lambda t: (t.T * Tensor(fixed)).sum(), rng.normal(size=(2, 3)))

    def test_getitem_gradient(self, rng):
        index = np.array([0, 2, 2])
        check_gradient(lambda t: (t.gather_rows(index) ** 2).sum(), rng.normal(size=(3, 2)))

    def test_concat_gradient(self, rng):
        value = rng.normal(size=(2, 2))

        def build(t):
            return (Tensor.concat([t, t * 2.0], axis=1) ** 2).sum()

        check_gradient(build, value)

    def test_stack_gradient(self, rng):
        value = rng.normal(size=(3,))

        def build(t):
            return (Tensor.stack([t, t * 3.0]) ** 2).sum()

        check_gradient(build, value)

    def test_broadcast_add_gradient(self, rng):
        fixed = rng.normal(size=(3, 4))
        check_gradient(lambda t: ((Tensor(fixed) + t) ** 2).sum(), rng.normal(size=(4,)))

    def test_broadcast_mul_gradient(self, rng):
        fixed = rng.normal(size=(3, 4))
        check_gradient(lambda t: ((Tensor(fixed) * t) ** 2).sum(), rng.normal(size=(1, 4)))

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None


class TestGraphMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2).backward(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (x * 2).requires_grad

    def test_diamond_graph_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x + 1
        ((a * b)).sum().backward()
        # d/dx (2x * (x+1)) = 4x + 2 = 14
        assert x.grad[0] == pytest.approx(14.0)

    def test_float32_input_promoted(self):
        x = Tensor(np.ones(2, dtype=np.float32))
        assert x.data.dtype == np.float64

    @staticmethod
    def _assert_leaf_grads_owned(leaves, tensors):
        for leaf in leaves:
            assert leaf.grad.flags.writeable
            for other in tensors:
                if other is not leaf and other.grad is not None:
                    assert not np.shares_memory(leaf.grad, other.grad)

    def test_leaf_grads_owned_after_add(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        total = a + b
        out = total.sum()
        out.backward()
        self._assert_leaf_grads_owned([a, b], [a, b, total, out])

    def test_leaf_grad_owned_after_sum(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = x.sum()
        out.backward()
        self._assert_leaf_grads_owned([x], [x, out])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 1.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(1.0)
