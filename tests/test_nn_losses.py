"""Unit tests for loss functions."""

import numpy as np
import pytest

from repro import nn
from repro.nn.losses import HUBER_DELTA
from repro.nn.tensor import Tensor


class TestMSE:
    def test_value(self):
        loss = nn.MSELoss()(Tensor(np.array([1.0, 3.0])), np.array([0.0, 0.0]))
        assert abs(loss.item() - 5.0) < 1e-12

    def test_zero_at_match(self):
        x = np.random.default_rng(0).standard_normal(5)
        assert nn.MSELoss()(Tensor(x), x).item() == 0.0

    def test_gradient(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        nn.MSELoss()(p, np.array([0.0])).backward()
        assert np.allclose(p.grad, [4.0])


class TestHuber:
    def test_quadratic_region(self):
        loss = nn.HuberLoss()(Tensor(np.array([0.5])), np.array([0.0]))
        assert abs(loss.item() - 0.125) < 1e-12

    def test_linear_region(self):
        loss = nn.HuberLoss()(Tensor(np.array([3.0])), np.array([0.0]))
        assert abs(loss.item() - 2.5) < 1e-12

    def test_continuous_at_delta(self):
        delta = HUBER_DELTA
        eps = 1e-8
        below = nn.HuberLoss()(Tensor(np.array([delta - eps])), np.array([0.0]))
        above = nn.HuberLoss()(Tensor(np.array([delta + eps])), np.array([0.0]))
        assert abs(below.item() - above.item()) < 1e-6

    def test_bounded_by_mse_and_scaled_l1(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal(50) * 3
        target = rng.standard_normal(50)
        huber = nn.HuberLoss()(Tensor(pred), target).item()
        mse_half = 0.5 * float(np.mean((pred - target) ** 2))
        l1 = float(np.mean(np.abs(pred - target)))
        assert huber <= mse_half + 1e-12
        assert huber <= l1 + 1e-12

    def test_gradient_clipped_in_linear_region(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        nn.HuberLoss()(p, np.array([0.0])).backward()
        assert np.allclose(p.grad, [1.0])   # slope capped at delta


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = nn.CrossEntropyLoss()(logits, np.zeros(4, dtype=int))
        assert abs(loss.item() - np.log(10)) < 1e-9

    def test_confident_correct_near_zero(self):
        logits = np.full((1, 3), -50.0)
        logits[0, 1] = 50.0
        loss = nn.CrossEntropyLoss()(Tensor(logits), np.array([1]))
        assert loss.item() < 1e-6

    def test_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 4))
        targets = rng.integers(0, 4, 5)
        loss = nn.CrossEntropyLoss()(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(5), targets].mean()
        assert abs(loss - expected) < 1e-9

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        nn.CrossEntropyLoss()(logits, np.array([0])).backward()
        assert np.allclose(logits.grad, [[1 / 3 - 1, 1 / 3, 1 / 3]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss()(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss()(Tensor(np.zeros((2, 3))), np.array([0]))


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nn.accuracy(logits, np.array([0, 1])) == 1.0

    def test_half(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert nn.accuracy(logits, np.array([0, 1])) == 0.5

    def test_accepts_tensors(self):
        logits = Tensor(np.array([[2.0, 1.0]]))
        assert nn.accuracy(logits, np.array([0])) == 1.0
