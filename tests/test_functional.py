"""Tests for repro.autodiff.functional."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 5))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_invariant_to_shift(self, rng):
        x = rng.normal(size=(3, 4))
        a = F.softmax(Tensor(x), axis=1).data
        b = F.softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x, axis=1).data, np.log(F.softmax(x, axis=1).data), atol=1e-10
        )

    def test_gradient_flows(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        F.softmax(x, axis=1).sum().backward()
        assert x.grad is not None
        # softmax rows sum to 1, so the gradient of the sum is ~0
        np.testing.assert_allclose(x.grad, np.zeros_like(x.data), atol=1e-8)


class TestDropout:
    def test_disabled_in_eval(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = F.dropout(x, 0.5, training=False, seed=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_rate_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = F.dropout(x, 0.0, training=True, seed=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, training=True)

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.5, training=True, seed=0)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_some_entries_zeroed(self):
        out = F.dropout(Tensor(np.ones(1000)), 0.5, training=True, seed=0)
        assert np.sum(out.data == 0.0) > 100


class TestLosses:
    def test_bce_with_logits_matches_reference(self, rng):
        logits = rng.normal(size=(8,))
        targets = (rng.random(8) > 0.5).astype(float)
        expected = np.mean(
            np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
        )
        result = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets))
        assert result.item() == pytest.approx(expected)

    def test_margin_ranking_loss_zero_when_satisfied(self):
        loss = F.margin_ranking_loss(Tensor([5.0]), Tensor([1.0]), margin=1.0)
        assert loss.item() == 0.0

    def test_margin_ranking_loss_positive_when_violated(self):
        loss = F.margin_ranking_loss(Tensor([0.0]), Tensor([1.0]), margin=1.0)
        assert loss.item() == pytest.approx(2.0)

    def test_triplet_margin_loss(self):
        loss = F.triplet_margin_loss(Tensor([1.0]), Tensor([3.0]), margin=1.0)
        assert loss.item() == 0.0
        loss = F.triplet_margin_loss(Tensor([3.0]), Tensor([1.0]), margin=1.0)
        assert loss.item() == pytest.approx(3.0)

    def test_euclidean_distance(self):
        a = Tensor([[0.0, 0.0], [1.0, 1.0]])
        b = Tensor([[3.0, 4.0], [1.0, 1.0]])
        np.testing.assert_allclose(F.euclidean_distance(a, b, axis=1).data, [5.0, 0.0], atol=1e-5)


class TestPoolingAndShape:
    def test_mean_pool(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(F.mean_pool(x, axis=0).data, [2.0, 3.0])

    def test_concat_and_stack_helpers(self):
        joined = F.concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=1)
        assert joined.shape == (1, 2)
        stacked = F.stack([Tensor([1.0]), Tensor([2.0])], axis=0)
        assert stacked.shape == (2, 1)

    def test_activation_helpers(self):
        x = Tensor([-1.0, 1.0])
        np.testing.assert_array_equal(F.relu(x).data, [0.0, 1.0])
        assert F.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)
        assert F.tanh(Tensor([0.0])).data[0] == 0.0
