"""Weight initialisation schemes.

Each function returns a freshly drawn numpy array; layers wrap the result
in a :class:`~repro.nn.tensor.Tensor` with ``requires_grad=True``.  All
schemes take an explicit :class:`numpy.random.Generator` so that model
construction is reproducible.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional weights.

    Dense weights are ``(in, out)``; convolutional weights are
    ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    if len(shape) == 1:
        return shape[0], shape[0]
    raise ValueError(f"unsupported weight shape {shape}")


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform: variance balanced between fan-in and fan-out.

    Suited to tanh/sigmoid activations (the paper's autoencoders use
    sigmoid outputs).
    """
    fan_in, fan_out = _fan_in_out(tuple(shape))
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def he_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform: suited to ReLU-family activations."""
    fan_in, _ = _fan_in_out(tuple(shape))
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


_SCHEMES = {
    "xavier_uniform": xavier_uniform,
    "he_uniform": he_uniform,
}


def get_initializer(name: str):
    """Look up an initialiser by name; raises ``KeyError`` with options."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown initializer {name!r}; choose from {sorted(_SCHEMES)}")
