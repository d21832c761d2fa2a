"""`repro.baselines` — comparison systems re-implemented from their
published descriptions.

DCSNet, the paper's baseline, trained online as the paper evaluates it.
"""

from .dcsnet import (
    DCSNET_LATENT_DIM,
    DCSNetOnline,
    build_dcsnet_decoder,
    build_dcsnet_encoder,
    dcsnet_decoder_flops,
)

__all__ = [
    "DCSNET_LATENT_DIM", "DCSNetOnline",
    "build_dcsnet_decoder", "build_dcsnet_encoder", "dcsnet_decoder_flops",
]
