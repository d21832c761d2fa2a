"""DCSNet baseline (Zhang et al. [3]), as configured in the paper's Sec. IV.

DCSNet is an offline deep-compressed-sensing framework with a *fixed*
model structure — a learned dense encoder into a predefined
1024-dimensional latent space and a decoder of four convolutional
layers — trained on whatever fraction of historical data the cloud
happens to hold.  The paper evaluates an online-trained variant with the
same structure and 30/50/70 % of the training data, and that is the
variant this module provides: it shares the orchestrated trainer, so
time-to-loss comparisons are apples-to-apples.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import layers as L
from ..nn import losses as losses_mod
from ..core.orchestrator import OrchestratedTrainer, TrainingHistory
from ..core.timing import OrchestrationTimingModel, conv2d_flops, dense_flops

DCSNET_LATENT_DIM = 1024


def build_dcsnet_encoder(input_dim: int,
                         rng: Optional[np.random.Generator] = None) -> L.Sequential:
    """DCSNet's learned encoder: dense projection to the fixed 1024 code."""
    rng = rng or np.random.default_rng()
    return L.Sequential(
        L.Dense(input_dim, DCSNET_LATENT_DIM, rng=rng, weight_init="he_uniform"),
        L.ReLU(),
    )


def build_dcsnet_decoder(image_shape: Tuple[int, int, int],
                         rng: Optional[np.random.Generator] = None) -> L.Sequential:
    """DCSNet's fixed 4-convolutional-layer decoder.

    ``image_shape`` is ``(channels, height, width)`` with height and
    width divisible by 4.  Architecture: dense seed -> reshape to
    ``(32, H/4, W/4)`` -> upsample+conv -> upsample+conv -> conv -> conv
    -> sigmoid -> flatten (rows out, to match the trainer interface).
    """
    rng = rng or np.random.default_rng()
    channels, height, width = image_shape
    if height % 4 or width % 4:
        raise ValueError("image height/width must be divisible by 4")
    seed_h, seed_w = height // 4, width // 4
    return L.Sequential(
        L.Dense(DCSNET_LATENT_DIM, 32 * seed_h * seed_w, rng=rng,
                weight_init="he_uniform"),
        L.ReLU(),
        L.Reshape((32, seed_h, seed_w)),
        L.Upsample2D(2),
        L.Conv2D(32, 16, 3, padding=1, rng=rng),
        L.ReLU(),
        L.Upsample2D(2),
        L.Conv2D(16, 8, 3, padding=1, rng=rng),
        L.ReLU(),
        L.Conv2D(8, 8, 3, padding=1, rng=rng),
        L.ReLU(),
        L.Conv2D(8, channels, 3, padding=1, rng=rng),
        L.Sigmoid(),
        L.Flatten(),
    )


def dcsnet_decoder_flops(image_shape: Tuple[int, int, int]) -> float:
    """Per-sample forward FLOPs of the fixed DCSNet decoder."""
    channels, height, width = image_shape
    seed_h, seed_w = height // 4, width // 4
    total = dense_flops(DCSNET_LATENT_DIM, 32 * seed_h * seed_w)
    total += conv2d_flops(32, 16, (3, 3), (height // 2, width // 2))
    total += conv2d_flops(16, 8, (3, 3), (height, width))
    total += conv2d_flops(8, 8, (3, 3), (height, width))
    total += conv2d_flops(8, channels, (3, 3), (height, width))
    return total


class DCSNetOnline(OrchestratedTrainer):
    """The paper's comparison point: DCSNet structure trained online.

    Same orchestrated protocol as OrcoDCS but with the fixed 1024-dim
    latent, the 4-conv decoder, plain L2 loss and no latent noise.  Its
    data handicap (30/50/70 %) is applied via :meth:`fit_fraction`.
    Like the published network, it trains in float32: its weights are
    drawn in float64 and rounded once, before Adam is built.
    """

    def __init__(self, image_shape: Tuple[int, int, int],
                 timing: Optional[OrchestrationTimingModel] = None,
                 learning_rate: float = 3e-3,
                 seed: int = 0,
                 data_fraction: float = 0.5):
        if not 0.0 < data_fraction <= 1.0:
            raise ValueError("data_fraction must be in (0, 1]")
        channels, height, width = image_shape
        input_dim = channels * height * width
        rng = np.random.default_rng(seed)
        encoder = build_dcsnet_encoder(input_dim, rng).astype(np.float32)
        decoder = build_dcsnet_decoder(image_shape, rng).astype(np.float32)
        super().__init__(
            encoder, decoder,
            input_dim=input_dim, latent_dim=DCSNET_LATENT_DIM,
            loss=losses_mod.MSELoss(), noise=None,
            encoder_forward_flops=dense_flops(input_dim, DCSNET_LATENT_DIM),
            decoder_forward_flops=dcsnet_decoder_flops(image_shape),
            timing=timing, learning_rate=learning_rate, rng=rng,
            name=f"DCSNet-{int(data_fraction * 100)}%")
        self.image_shape = image_shape
        self.data_fraction = data_fraction

    def fit_fraction(self, train_rows: np.ndarray, epochs: int = 10,
                     batch_size: int = 32,
                     val_rows: Optional[np.ndarray] = None,
                     **kwargs) -> TrainingHistory:
        """Train on the framework's data fraction of ``train_rows`` —
        the offline-data handicap of the paper's setup."""
        train_rows = np.atleast_2d(np.asarray(train_rows, dtype=self.dtype))
        count = max(1, int(round(self.data_fraction * len(train_rows))))
        subset = train_rows[self.rng.choice(len(train_rows), count, replace=False)]
        return self.fit(subset, epochs=epochs, batch_size=batch_size,
                        val_rows=val_rows, **kwargs)

    @classmethod
    def for_digits(cls, **kwargs) -> "DCSNetOnline":
        """28x28 grayscale configuration (the MNIST-class task)."""
        return cls(image_shape=(1, 28, 28), **kwargs)

