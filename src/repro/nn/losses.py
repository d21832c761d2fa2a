"""Loss functions.

The OrcoDCS paper trains its asymmetric autoencoder with the Huber loss
(eq. 4) rather than plain L2, arguing it makes reconstructions more
robust.  OrcoDCS trains with the standard elementwise Huber, or MSE as
its ablation (:data:`repro.core.config.LOSSES`); the DCSNet baseline
trains with MSE and the follow-up classifier with cross-entropy.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor, where

#: The Huber loss's threshold between its quadratic and linear parts.
HUBER_DELTA = 1.0


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


class HuberLoss(Loss):
    """Elementwise Huber loss with threshold :data:`HUBER_DELTA`.

    Quadratic for residuals below the threshold, linear above — the
    standard robust-regression compromise between L2 and L1, and this
    reproduction's form of the paper's eq. (4), whose switch is on whole
    residual norms.
    """

    def _elementwise(self, prediction: Tensor, target: Tensor) -> Tensor:
        diff = prediction - target
        abs_diff = diff.abs()
        quadratic = diff * diff * 0.5
        linear = abs_diff * HUBER_DELTA - 0.5 * HUBER_DELTA ** 2
        return where(abs_diff.data <= HUBER_DELTA, quadratic, linear)

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._elementwise(prediction, target).mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        # Fused tape node (hot path of the fleet engine): identical
        # values/gradients to ``self._elementwise(...).mean(axis=...)``,
        # 1 node instead of ~8.
        delta = HUBER_DELTA
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
