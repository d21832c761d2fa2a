"""Configuration for the OrcoDCS framework.

The whole point of OrcoDCS (vs. offline DCDA) is that these knobs —
latent dimension, decoder depth, noise level — are chosen *per sensing
task* instead of being fixed in the cloud, so they live in one explicit
config object that experiments sweep over.  The paper fixes the rest: a
sigmoid encoder (eq. 1) and decoder output (eq. 3), Adam on both sides,
and the Huber loss of eq. (4), with MSE as its ablation (:data:`LOSSES`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..nn.losses import HuberLoss, Loss, MSELoss

#: The dtypes a model may train in.
TRAINING_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: The reconstruction losses a config may name: eq. (4)'s Huber loss
#: (threshold 1) and plain MSE for ablations.
LOSSES: Dict[str, Callable[[], Loss]] = {"huber": HuberLoss, "mse": MSELoss}


@dataclass
class OrcoDCSConfig:
    """Hyperparameters of one OrcoDCS deployment.

    Attributes
    ----------
    input_dim:
        Raw data dimension ``N`` (number of IoT devices in the cluster,
        i.e. flattened pixel count for the image tasks).
    latent_dim:
        Latent dimension ``M`` — the paper uses 128 for MNIST-class and
        512 for GTSRB-class tasks.
    noise_sigma:
        Standard deviation of the Gaussian noise added to latent vectors
        during training (eq. 2 uses variance sigma^2; this is sigma).
    decoder_layers:
        Number of trainable layers in the decoder (1 = the paper's
        single dense layer; 3/5 are the Fig. 8 sensitivity points).
        Deeper decoders have hidden layers of :attr:`hidden_width`.
    loss:
        Reconstruction loss: ``"huber"`` (eq. 4) or ``"mse"`` for
        ablations, the names of :data:`LOSSES`.
    learning_rate / batch_size:
        Online-training knobs shared by aggregator and edge, which each
        train their side with Adam.
    seed:
        Seed for parameter init and noise draws.
    dtype:
        float32 or float64 (stored as a ``numpy.dtype``): the dtype of
        the model's parameters, Adam state and every array a round
        computes.  The initial weights and the noise are drawn in
        float64 either way, so a float32 model is the float64 one
        rounded.  Fleets stack only clusters of one dtype.
    """

    input_dim: int
    latent_dim: int = 128
    noise_sigma: float = 0.1
    decoder_layers: int = 1
    loss: str = "huber"
    learning_rate: float = 3e-3
    batch_size: int = 32
    seed: int = 0
    dtype: np.dtype = TRAINING_DTYPES[1]

    def __post_init__(self):
        for name in ("input_dim", "latent_dim", "decoder_layers",
                     "batch_size"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {value!r}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and "
                             f"non-negative, got {self.noise_sigma}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {sorted(LOSSES)}, "
                             f"got {self.loss!r}")
        self.dtype = _training_dtype(self.dtype)

    @property
    def compression_ratio(self) -> float:
        """N / M — how many times smaller the latent is than the raw data.

        Values below 1 mean the code is *larger* than the input; the
        paper's Fig. 6 sensitivity sweep deliberately includes such
        settings (M=1024 on the 784-dimensional digits task).
        """
        return self.input_dim / self.latent_dim

    @property
    def hidden_width(self) -> int:
        """Hidden width of multi-layer decoders:
        ``max(latent_dim, input_dim // 2)``."""
        return max(self.latent_dim, self.input_dim // 2)


def _training_dtype(value) -> np.dtype:
    """``value`` as one of :data:`TRAINING_DTYPES`, or ``ValueError``.

    ``None`` is refused before NumPy sees it: ``np.dtype(None)`` is
    float64, and float64 compares equal to ``None``.
    """
    try:
        dtype = None if value is None else np.dtype(value)
    except TypeError:
        dtype = None
    if dtype is None or dtype not in TRAINING_DTYPES:
        raise ValueError(f"dtype must be float32 or float64, got {value!r}")
    return dtype
