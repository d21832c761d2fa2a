"""Follow-up DL application: a 2-convolutional-layer CNN classifier.

The paper's downstream task (Sec. IV-A): a "simple 2-layer convolutional
neural network" trained on *reconstructed* data; its testing accuracy and
loss (Fig. 5) measure how useful each framework's reconstructions are for
IoT data-driven applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..nn import layers as L
from ..nn.data import ArrayDataset, DataLoader
from ..nn.losses import CrossEntropyLoss, accuracy
from ..nn.optim import Adam
from ..nn.tensor import Tensor


def build_simple_cnn(image_shape: Tuple[int, int, int], num_classes: int,
                     rng: Optional[np.random.Generator] = None) -> L.Sequential:
    """Conv(3x3)-ReLU-Pool x2 -> Dense: the paper's follow-up classifier."""
    rng = rng or np.random.default_rng()
    channels, height, width = image_shape
    if height % 4 or width % 4:
        raise ValueError("image height/width must be divisible by 4")
    return L.Sequential(
        L.Conv2D(channels, 8, 3, padding=1, rng=rng),
        L.ReLU(),
        L.MaxPool2D(2),
        L.Conv2D(8, 16, 3, padding=1, rng=rng),
        L.ReLU(),
        L.MaxPool2D(2),
        L.Flatten(),
        L.Dense(16 * (height // 4) * (width // 4), num_classes, rng=rng),
    )


@dataclass
class ClassifierHistory:
    """Per-epoch test metrics (the series of the paper's Fig. 5)."""

    epochs: List[int] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    test_loss: List[float] = field(default_factory=list)
    train_loss: List[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        if not self.test_accuracy:
            raise ValueError("history is empty")
        return self.test_accuracy[-1]

    @property
    def best_accuracy(self) -> float:
        if not self.test_accuracy:
            raise ValueError("history is empty")
        return max(self.test_accuracy)


class ImageClassifier:
    """Train/evaluate wrapper around the simple CNN, in float32.

    The weights are drawn in float64 and rounded once, before Adam is
    built; every input is cast to float32 by :meth:`_to_nchw`.

    Parameters
    ----------
    image_shape:
        ``(channels, height, width)`` of the NCHW input.
    num_classes:
        Output classes (10 digits / 43 signs).
    """

    def __init__(self, image_shape: Tuple[int, int, int], num_classes: int,
                 learning_rate: float = 1e-3, seed: int = 0):
        self.image_shape = image_shape
        self.num_classes = num_classes
        self.rng = np.random.default_rng(seed)
        self.model = build_simple_cnn(image_shape, num_classes,
                                      self.rng).astype(np.float32)
        self.optimizer = Adam(self.model.parameters(), lr=learning_rate)
        self.loss = CrossEntropyLoss()

    # ------------------------------------------------------------------
    def _to_nchw(self, rows_or_images: np.ndarray) -> np.ndarray:
        """Accept flat rows or (B, H, W[, C]) images; return float32 NCHW."""
        data = np.asarray(rows_or_images, dtype=np.float32)
        channels, height, width = self.image_shape
        if data.ndim == 2:                      # flat rows
            if channels == 1:
                return data.reshape(-1, 1, height, width)
            return data.reshape(-1, height, width, channels).transpose(0, 3, 1, 2)
        if data.ndim == 3:                      # (B, H, W) grayscale
            return data[:, None, :, :]
        if data.ndim == 4:
            if data.shape[1] == channels:       # already NCHW
                return data
            return data.transpose(0, 3, 1, 2)   # NHWC -> NCHW
        raise ValueError(f"cannot interpret input of shape {data.shape}")

    def train_epoch(self, images: np.ndarray, labels: np.ndarray,
                    batch_size: int = 32) -> float:
        """One pass over the training data; returns mean train loss."""
        nchw = self._to_nchw(images)
        dataset = ArrayDataset(nchw, np.asarray(labels))
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=True,
                            rng=self.rng)
        losses: List[float] = []
        for batch_images, batch_labels in loader:
            logits = self.model(Tensor(batch_images))
            loss_value = self.loss(logits, batch_labels)
            self.optimizer.zero_grad()
            loss_value.backward()
            self.optimizer.step()
            losses.append(loss_value.item())
        return float(np.mean(losses))

    def evaluate(self, images: np.ndarray, labels: np.ndarray,
                 batch_size: int = 128) -> Tuple[float, float]:
        """Returns (accuracy, mean loss) on a held-out set."""
        nchw = self._to_nchw(images)
        labels = np.asarray(labels)
        correct_weighted = 0.0
        loss_weighted = 0.0
        for start in range(0, len(nchw), batch_size):
            batch = nchw[start:start + batch_size]
            batch_labels = labels[start:start + batch_size]
            logits = self.model(Tensor(batch))
            correct_weighted += accuracy(logits, batch_labels) * len(batch)
            loss_weighted += self.loss(logits, batch_labels).item() * len(batch)
        return correct_weighted / len(nchw), loss_weighted / len(nchw)

    def fit(self, train_images: np.ndarray, train_labels: np.ndarray,
            test_images: np.ndarray, test_labels: np.ndarray,
            epochs: int = 10, batch_size: int = 32,
            eval_epochs: Optional[List[int]] = None) -> ClassifierHistory:
        """Train and record test metrics each epoch (or at ``eval_epochs``)."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        history = ClassifierHistory()
        for epoch in range(1, epochs + 1):
            train_loss = self.train_epoch(train_images, train_labels, batch_size)
            if eval_epochs is None or epoch in eval_epochs:
                test_acc, test_loss = self.evaluate(test_images, test_labels)
                history.epochs.append(epoch)
                history.test_accuracy.append(test_acc)
                history.test_loss.append(test_loss)
                history.train_loss.append(train_loss)
        return history
