"""Loss functions.

The OrcoDCS paper trains its asymmetric autoencoder with the Huber loss
(eq. 4) rather than plain L2, arguing it makes reconstructions more
robust.  OrcoDCS trains with the standard elementwise Huber, or MSE as
its ablation (:data:`repro.core.config.LOSSES`); the DCSNet baseline
trains with MSE and the follow-up classifier with cross-entropy.  The
paper's literal norm-based Huber, L1 and binary cross-entropy are here
too, for direct use.
"""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from .tensor import Tensor, where


class Loss:
    """Base class; subclasses implement ``forward(prediction, target)``.

    Losses that support the stacked fleet engine additionally implement
    ``_per_cluster``: given ``(K, B, ...)`` stacks it returns a ``(K,)``
    tensor whose entry ``k`` equals ``forward`` applied to slice ``k``
    alone — the reduction the batched multi-cluster trainer needs to keep
    per-cluster trajectories exact.
    """

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, prediction: Tensor, target) -> Tensor:
        if not isinstance(target, Tensor):
            target = Tensor(target)
        return self.forward(prediction, target)

    def per_cluster(self, prediction: Tensor, target) -> Tensor:
        """Per-leading-slice loss for stacked ``(K, B, ...)`` batches."""
        if not isinstance(target, Tensor):
            target = Tensor(target)
        return self._per_cluster(prediction, target)

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        raise NotImplementedError(
            f"{type(self).__name__} does not define a per-cluster "
            "(stacked-batch) reduction")


def _slice_axes(tensor: Tensor) -> tuple:
    """All axes except the leading slice axis."""
    return tuple(range(1, tensor.ndim))


class MSELoss(Loss):
    """Mean squared error: ``mean((x - y)^2)``."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        diff = prediction - target
        return (diff * diff).mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        # Fused tape node (hot path of the fleet engine): exactly
        # ``((p - t) ** 2).mean_over_non_slice_axes`` with the composed
        # graph's gradient, 1 node instead of 4.
        diff = prediction.data - target.data
        axes = tuple(range(1, diff.ndim))
        count = int(np.prod([diff.shape[ax] for ax in axes]))
        value = (diff * diff).sum(axis=axes) * (1.0 / count)
        out = prediction._make_child(np.asarray(value), (prediction, target),
                                     "mse_per_cluster")
        if out.requires_grad:

            def backward(grad: np.ndarray) -> None:
                scaled = grad * (1.0 / count)
                elem = scaled.reshape(scaled.shape + (1,) * len(axes)) * diff
                elem = elem + elem      # d(d^2) = 2 d, as the composed graph
                if prediction.requires_grad:
                    prediction._accumulate(elem)
                if target.requires_grad:
                    target._accumulate(-elem)

            out._backward = backward
        return out


class L1Loss(Loss):
    """Mean absolute error: ``mean(|x - y|)``."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return (prediction - target).abs().mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        absolute = (prediction - target).abs()
        return absolute.mean(axis=_slice_axes(absolute))


class HuberLoss(Loss):
    """Elementwise Huber loss with threshold ``delta``.

    Quadratic for residuals below ``delta``, linear above — the standard
    robust-regression compromise between L2 and L1.  This is the form used
    throughout training in this reproduction (see also
    :class:`VectorHuberLoss` for the paper's literal eq. 4).
    """

    def __init__(self, delta: float = 1.0):
        if not 0.0 < delta < math.inf:
            raise ValueError(f"delta must be finite and positive, got {delta}")
        self.delta = delta

    def _elementwise(self, prediction: Tensor, target: Tensor) -> Tensor:
        diff = prediction - target
        abs_diff = diff.abs()
        quadratic = diff * diff * 0.5
        linear = abs_diff * self.delta - 0.5 * self.delta ** 2
        return where(abs_diff.data <= self.delta, quadratic, linear)

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._elementwise(prediction, target).mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        # Fused tape node (hot path of the fleet engine): identical
        # values/gradients to ``self._elementwise(...).mean(axis=...)``,
        # 1 node instead of ~8.
        delta = self.delta
        diff = prediction.data - target.data
        abs_diff = np.abs(diff)
        quadratic_mask = abs_diff <= delta
        quadratic = diff * diff
        quadratic *= 0.5
        linear = abs_diff                  # mask is done with abs_diff
        linear *= delta
        linear -= 0.5 * delta ** 2
        losses = np.where(quadratic_mask, quadratic, linear)
        axes = tuple(range(1, losses.ndim))
        count = int(np.prod([losses.shape[ax] for ax in axes]))
        value = losses.sum(axis=axes) * (1.0 / count)
        out = prediction._make_child(np.asarray(value), (prediction, target),
                                     "huber_per_cluster")
        if out.requires_grad:

            def backward(grad: np.ndarray) -> None:
                scaled = grad * (1.0 / count)
                scaled = scaled.reshape(scaled.shape + (1,) * len(axes))
                elem = scaled * np.where(quadratic_mask, diff,
                                         delta * np.sign(diff))
                if prediction.requires_grad:
                    prediction._accumulate(elem)
                if target.requires_grad:
                    target._accumulate(-elem)

            out._backward = backward
        return out


class VectorHuberLoss(Loss):
    """The paper's eq. (4): Huber applied to whole-vector norms.

    ``L = 0.5 * ||x - xr||_2^2``            if ``||x - xr||_1 <= delta``
    ``L = delta * ||x - xr||_1 - delta^2/2`` otherwise

    Each row (sample) of the batch contributes one term; the mean over the
    batch is returned.  Because the switch is on the L1 norm of the whole
    residual vector, ``delta`` must scale with the data dimension.
    """

    def __init__(self, delta: float = 1.0):
        if not 0.0 < delta < math.inf:
            raise ValueError(f"delta must be finite and positive, got {delta}")
        self.delta = delta

    def _per_sample(self, prediction: Tensor, target: Tensor,
                    start_axis: int) -> Tensor:
        diff = (prediction - target).flatten(start_axis=start_axis)
        l1 = diff.abs().sum(axis=start_axis)
        l2_sq = (diff * diff).sum(axis=start_axis)
        quadratic = l2_sq * 0.5
        linear = l1 * self.delta - 0.5 * self.delta ** 2
        return where(l1.data <= self.delta, quadratic, linear)

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._per_sample(prediction, target, start_axis=1).mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._per_sample(prediction, target, start_axis=2).mean(axis=1)


class BCELoss(Loss):
    """Binary cross-entropy on probabilities in (0, 1)."""

    def __init__(self, eps: float = 1e-7):
        self.eps = eps

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        p = prediction.clip(self.eps, 1.0 - self.eps)
        one = Tensor(np.ones_like(p.data))
        return -(target * p.log() + (one - target) * (one - p).log()).mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        p = prediction.clip(self.eps, 1.0 - self.eps)
        one = Tensor(np.ones_like(p.data))
        likelihood = target * p.log() + (one - target) * (one - p).log()
        return -likelihood.mean(axis=_slice_axes(likelihood))


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy from logits with integer class targets."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        targets = np.asarray(target.data).astype(np.int64).reshape(-1)
        if prediction.ndim != 2:
            raise ValueError("CrossEntropyLoss expects (batch, classes) logits")
        batch = prediction.shape[0]
        if targets.shape[0] != batch:
            raise ValueError("target length does not match batch size")
        logp = F.log_softmax(prediction, axis=1)
        picked = logp[np.arange(batch), targets]
        return -picked.mean()


def accuracy(logits, targets) -> float:
    """Fraction of argmax predictions matching integer targets."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    predictions = logits.argmax(axis=1)
    return float((predictions == targets.reshape(-1)).mean())
