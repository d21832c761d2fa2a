"""Unit tests for loss functions."""

import numpy as np
import pytest

from repro import nn
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


class TestL1:
    def test_value(self):
        loss = nn.L1Loss()(Tensor(np.array([1.0, -3.0])), np.array([0.0, 0.0]))
        assert abs(loss.item() - 2.0) < 1e-12


class TestHuber:
    def test_quadratic_region(self):
        loss = nn.HuberLoss(delta=1.0)(Tensor(np.array([0.5])), np.array([0.0]))
        assert abs(loss.item() - 0.125) < 1e-12

    def test_linear_region(self):
        loss = nn.HuberLoss(delta=1.0)(Tensor(np.array([3.0])), np.array([0.0]))
        assert abs(loss.item() - 2.5) < 1e-12

    def test_continuous_at_delta(self):
        delta = 1.3
        eps = 1e-8
        below = nn.HuberLoss(delta)(Tensor(np.array([delta - eps])), np.array([0.0]))
        above = nn.HuberLoss(delta)(Tensor(np.array([delta + eps])), np.array([0.0]))
        assert abs(below.item() - above.item()) < 1e-6

    def test_bounded_by_mse_and_scaled_l1(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal(50) * 3
        target = rng.standard_normal(50)
        huber = nn.HuberLoss(1.0)(Tensor(pred), target).item()
        mse_half = 0.5 * float(np.mean((pred - target) ** 2))
        l1 = float(np.mean(np.abs(pred - target)))
        assert huber <= mse_half + 1e-12
        assert huber <= l1 + 1e-12

    def test_gradient_clipped_in_linear_region(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        nn.HuberLoss(1.0)(p, np.array([0.0])).backward()
        assert np.allclose(p.grad, [1.0])   # slope capped at delta

    def test_delta_validation(self):
        for loss in (nn.HuberLoss, nn.VectorHuberLoss):
            for delta in (0.0, float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    loss(delta)


class TestVectorHuber:
    def test_quadratic_branch_matches_eq4(self):
        # ||diff||_1 = 0.6 <= delta=1 -> 0.5 * ||diff||_2^2
        pred = np.array([[0.3, 0.3]])
        loss = nn.VectorHuberLoss(1.0)(Tensor(pred), np.zeros((1, 2)))
        assert abs(loss.item() - 0.5 * (0.09 + 0.09)) < 1e-12

    def test_linear_branch_matches_eq4(self):
        # ||diff||_1 = 4 > delta=1 -> delta*||diff||_1 - delta^2/2
        pred = np.array([[2.0, 2.0]])
        loss = nn.VectorHuberLoss(1.0)(Tensor(pred), np.zeros((1, 2)))
        assert abs(loss.item() - (4.0 - 0.5)) < 1e-12

    def test_batch_mean(self):
        pred = np.array([[0.3, 0.3], [2.0, 2.0]])
        loss = nn.VectorHuberLoss(1.0)(Tensor(pred), np.zeros((2, 2)))
        expected = (0.09 + 3.5) / 2
        assert abs(loss.item() - expected) < 1e-12


class TestBCE:
    def test_perfect_prediction_near_zero(self):
        pred = Tensor(np.array([[0.999, 0.001]]))
        target = np.array([[1.0, 0.0]])
        assert nn.BCELoss()(pred, target).item() < 0.01

    def test_symmetric(self):
        loss = nn.BCELoss()
        a = loss(Tensor(np.array([0.8])), np.array([1.0])).item()
        b = loss(Tensor(np.array([0.2])), np.array([0.0])).item()
        assert abs(a - b) < 1e-9


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
