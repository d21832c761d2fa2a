"""Synthetic MNIST-like digit dataset.

The reproduction environment has no network access, so MNIST itself
cannot be downloaded.  This module procedurally renders the ten digit
glyphs from a 5x7 seed font onto 28x28 grayscale canvases with random
affine warps, stroke-thickness changes and pixel noise — a 10-class
grayscale family whose reconstruction difficulty and classifiability
respond to latent dimension / noise the same way MNIST does (see the
README's "Substitutions" section).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

IMAGE_SIZE = 28
NUM_CLASSES = 10

_FONT = {
    0: ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00010", "00100", "01000", "11111"],
    3: ["11111", "00010", "00100", "00010", "00001", "10001", "01110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}


def glyph_bitmap(digit: int) -> np.ndarray:
    """Return the 7x5 binary seed bitmap for ``digit``."""
    if digit not in _FONT:
        raise ValueError(f"digit must be 0-9, got {digit}")
    return np.array([[int(c) for c in row] for row in _FONT[digit]], dtype=float)


@dataclass
class DigitConfig:
    """Rendering knobs for the synthetic digit generator.

    The defaults are deliberately generous: enough within-class
    variability (rotation, scale, aspect, shear, thickness) that a small
    subset of a class does NOT cover its appearance distribution —
    matching MNIST's role in the paper's data-fraction experiments.
    """

    image_size: int = IMAGE_SIZE
    max_rotation_deg: float = 18.0
    max_shift_px: float = 3.0
    scale_jitter: float = 0.2
    aspect_jitter: float = 0.15
    shear: float = 0.15
    thickness_prob: float = 0.5
    blur_sigma: float = 0.6
    noise_std: float = 0.04


def render_digit(digit: int, rng: np.random.Generator,
                 config: Optional[DigitConfig] = None) -> np.ndarray:
    """Render one randomised digit image in [0, 1]."""
    # Imported on use, so that importing the package does not load scipy.
    from scipy import ndimage

    config = config or DigitConfig()
    size = config.image_size
    bitmap = glyph_bitmap(digit)

    target = int(size * 0.68 * (1.0 + rng.uniform(-config.scale_jitter,
                                                  config.scale_jitter)))
    target = max(8, min(size - 2, target))
    aspect = 0.72 * (1.0 + rng.uniform(-config.aspect_jitter,
                                       config.aspect_jitter))
    zoom_factors = (target / bitmap.shape[0],
                    max(0.3, target * aspect) / bitmap.shape[1])
    glyph = ndimage.zoom(bitmap, zoom_factors, order=1)
    glyph = np.clip(glyph, 0.0, 1.0)

    if rng.random() < config.thickness_prob:
        glyph = ndimage.grey_dilation(glyph, size=(2, 2))

    canvas = np.zeros((size, size))
    gh, gw = glyph.shape
    top = (size - gh) // 2
    left = (size - gw) // 2
    canvas[top:top + gh, left:left + gw] = glyph

    if config.shear > 0:
        shear = rng.uniform(-config.shear, config.shear)
        matrix = np.array([[1.0, shear], [0.0, 1.0]])
        offset = np.array([-shear * size / 2.0, 0.0])
        canvas = ndimage.affine_transform(canvas, matrix, offset=offset,
                                          order=1, mode="constant")
    angle = rng.uniform(-config.max_rotation_deg, config.max_rotation_deg)
    canvas = ndimage.rotate(canvas, angle, reshape=False, order=1, mode="constant")
    shift = rng.uniform(-config.max_shift_px, config.max_shift_px, size=2)
    canvas = ndimage.shift(canvas, shift, order=1, mode="constant")
    if config.blur_sigma > 0:
        canvas = ndimage.gaussian_filter(canvas, config.blur_sigma)
    if config.noise_std > 0:
        canvas = canvas + rng.normal(0, config.noise_std, canvas.shape)
    return np.clip(canvas, 0.0, 1.0)


def generate_digits(count: int, rng: Optional[np.random.Generator] = None,
                    config: Optional[DigitConfig] = None,
                    balanced: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a labelled digit dataset.

    Parameters
    ----------
    count:
        Number of images.
    balanced:
        Cycle through classes (True) or sample labels uniformly (False).

    Returns
    -------
    (images, labels):
        ``images`` is ``(count, 28, 28)`` float in [0, 1]; ``labels`` is
        ``(count,)`` int.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = rng or np.random.default_rng()
    config = config or DigitConfig()
    if balanced:
        labels = np.arange(count) % NUM_CLASSES
        rng.shuffle(labels)
    else:
        labels = rng.integers(0, NUM_CLASSES, count)
    images = np.stack([render_digit(int(d), rng, config) for d in labels])
    return images, labels.astype(np.int64)


def flatten_images(images: np.ndarray) -> np.ndarray:
    """``(n, h, w[, c])`` -> ``(n, h*w[*c])`` row vectors.

    In the paper's cluster model the flattened pixel vector is the stacked
    reading vector ``X`` of ``N = h*w*c`` IoT devices.
    """
    images = np.asarray(images)
    return images.reshape(images.shape[0], -1)


def unflatten_images(rows: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`flatten_images` for a known image shape."""
    rows = np.asarray(rows)
    return rows.reshape((rows.shape[0],) + tuple(shape))
