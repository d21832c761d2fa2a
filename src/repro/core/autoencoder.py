"""The asymmetric autoencoder at the heart of OrcoDCS (Sec. III-B).

*Asymmetric* means the two halves are sized for where they run: the
encoder is a single fully-connected layer (eq. 1) cheap enough for a
battery-powered data aggregator, while the decoder (eq. 3) runs on the
edge server and may grow as deep as the reconstruction task demands.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn import layers as L
from ..nn.tensor import Tensor
from .config import OrcoDCSConfig
from .noise import GaussianNoiseInjector


def build_encoder(config: OrcoDCSConfig,
                  rng: Optional[np.random.Generator] = None) -> L.Sequential:
    """One dense layer + sigmoid: the paper's eq. (1), in
    ``config.dtype``."""
    rng = rng or np.random.default_rng(config.seed)
    return L.Sequential(
        L.Dense(config.input_dim, config.latent_dim, rng=rng),
        L.Sigmoid(),
    ).astype(config.dtype)


def build_decoder(config: OrcoDCSConfig,
                  rng: Optional[np.random.Generator] = None) -> L.Sequential:
    """Decoder of ``config.decoder_layers`` dense layers (eq. 3).

    One layer reproduces the paper's default; deeper variants interleave
    ReLU hidden layers (Fig. 8's 3L/5L sensitivity points).  The output
    layer is always sigmoid so reconstructions live in [0, 1].  The
    parameters are in ``config.dtype``.
    """
    rng = rng or np.random.default_rng(config.seed + 1)
    layers: List[L.Module] = []
    if config.decoder_layers == 1:
        layers.append(L.Dense(config.latent_dim, config.input_dim, rng=rng))
    else:
        hidden = config.hidden_width
        layers.append(L.Dense(config.latent_dim, hidden, rng=rng,
                              weight_init="he_uniform"))
        layers.append(L.ReLU())
        for _ in range(config.decoder_layers - 2):
            layers.append(L.Dense(hidden, hidden, rng=rng,
                                  weight_init="he_uniform"))
            layers.append(L.ReLU())
        layers.append(L.Dense(hidden, config.input_dim, rng=rng))
    layers.append(L.Sigmoid())
    return L.Sequential(*layers).astype(config.dtype)


class AsymmetricAutoencoder(L.Module):
    """Encoder + noisy latent + decoder, wired as one trainable module.

    The module is *logically* split across two machines — the
    orchestrator keeps separate optimisers for :attr:`encoder`
    (aggregator-side) and :attr:`decoder` (edge-side) — but shares one
    autograd graph, which computes updates mathematically identical to
    the paper's distributed ping-pong protocol.
    """

    def __init__(self, config: OrcoDCSConfig,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        self.encoder = build_encoder(config, rng)
        self.decoder = build_decoder(config, rng)
        self.noise = GaussianNoiseInjector(config.noise_sigma, rng)

    def decode(self, y: Tensor) -> Tensor:
        """Eq. (3): latent rows -> reconstructed rows ``(B, N)``."""
        return self.decoder(y)

    def encoder_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(We, be)`` in the paper's orientation.

        Eq. (1) uses ``We in R^{M x N}`` acting on the stacked device
        vector; our Dense stores ``W in R^{N x M}`` for row-vector
        batches, so ``We = W.T``.
        """
        dense = self.encoder[0]
        return dense.weight.data.T.copy(), dense.bias.data.copy()
