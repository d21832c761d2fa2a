"""Reconstruction-quality metrics.

Figure 2 of the paper compares reconstructions visually; for a
reproducible harness we quantify the same comparison with PSNR, SSIM and
normalised MSE, computed on [0, 1]-scaled images.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error."""
    original, reconstructed = _aligned(original, reconstructed)
    return float(np.mean((original - reconstructed) ** 2))


def nmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """MSE normalised by signal power; 0 is perfect, 1 matches predicting 0."""
    original, reconstructed = _aligned(original, reconstructed)
    power = float(np.mean(original ** 2))
    if power == 0:
        return 0.0 if np.allclose(reconstructed, 0) else float("inf")
    return mse(original, reconstructed) / power


def psnr(original: np.ndarray, reconstructed: np.ndarray,
         data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (infinite for exact matches)."""
    error = mse(original, reconstructed)
    if error == 0:
        return float("inf")
    return float(10.0 * np.log10(data_range ** 2 / error))


def ssim(original: np.ndarray, reconstructed: np.ndarray,
         data_range: float = 1.0, sigma: float = 1.5) -> float:
    """Structural similarity index using Gaussian-weighted local stats.

    Operates on one grayscale image; colour images are averaged over
    channels.  Matches the standard Wang et al. formulation with
    ``k1=0.01, k2=0.03``.
    """
    original = np.asarray(original, dtype=float)
    reconstructed = np.asarray(reconstructed, dtype=float)
    if original.shape != reconstructed.shape:
        raise ValueError("shape mismatch")
    if original.ndim == 3:
        channels = [ssim(original[..., c], reconstructed[..., c], data_range, sigma)
                    for c in range(original.shape[-1])]
        return float(np.mean(channels))
    if original.ndim != 2:
        raise ValueError("ssim expects 2-D or 3-D (H, W[, C]) images")

    # Imported on use, so that importing the package does not load scipy.
    from scipy import ndimage

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    def blur(img: np.ndarray) -> np.ndarray:
        return ndimage.gaussian_filter(img, sigma)

    mu_x = blur(original)
    mu_y = blur(reconstructed)
    xx = blur(original * original) - mu_x * mu_x
    yy = blur(reconstructed * reconstructed) - mu_y * mu_y
    xy = blur(original * reconstructed) - mu_x * mu_y
    numerator = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
    denominator = (mu_x ** 2 + mu_y ** 2 + c1) * (xx + yy + c2)
    return float(np.mean(numerator / denominator))


def batch_psnr(originals: np.ndarray, reconstructions: np.ndarray,
               data_range: float = 1.0) -> np.ndarray:
    """Per-sample PSNR over a batch of images/rows."""
    originals = np.asarray(originals, dtype=float)
    reconstructions = np.asarray(reconstructions, dtype=float)
    if originals.shape != reconstructions.shape:
        raise ValueError("shape mismatch")
    flat_o = originals.reshape(originals.shape[0], -1)
    flat_r = reconstructions.reshape(reconstructions.shape[0], -1)
    errors = np.mean((flat_o - flat_r) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        values = 10.0 * np.log10(data_range ** 2 / errors)
    return values


def _aligned(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b
