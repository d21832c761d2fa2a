"""Latent-space Gaussian noise injection (eq. 2 of the paper).

OrcoDCS perturbs latent vectors with zero-mean Gaussian noise during
training so the decoder learns to reconstruct from a *neighbourhood* of
each code, improving robustness and downstream-classifier diversity
(Sec. III-B).  The noise is treated as a constant w.r.t. the autograd
graph — gradients flow through the identity, exactly as in denoising
autoencoders.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..nn.tensor import Tensor


class GaussianNoiseInjector:
    """Adds ``N(0, sigma^2)`` noise to latent tensors during training.

    Parameters
    ----------
    sigma:
        Noise standard deviation; 0 disables injection.
    rng:
        Generator for the draws (seeded by the orchestrator).
    """

    def __init__(self, sigma: float, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= sigma < math.inf:
            raise ValueError(f"sigma must be finite and non-negative, "
                             f"got {sigma}")
        self.sigma = float(sigma)
        self.rng = rng or np.random.default_rng()

    def __call__(self, latent: Tensor) -> Tensor:
        """Return ``latent + noise`` (``latent`` itself when sigma is 0).

        Callers inject only while training.  The noise is drawn in
        float64 whatever the latent's dtype (so float32 and float64
        models see one stream), then cast to it.
        """
        if self.sigma == 0.0:
            return latent
        noise = self.rng.normal(0.0, self.sigma, latent.shape)
        return latent + Tensor(noise.astype(latent.dtype, copy=False))
