"""Synthetic GTSRB-like traffic-sign dataset.

GTSRB cannot be downloaded offline, so this module renders 32x32 RGB
sign images: a sign shape (circle / triangle / inverted triangle /
octagon / diamond / square) with a coloured border, an inner glyph, and —
matching the paper's description of GTSRB — varying light conditions and
colourful, cluttered backgrounds.  Exactly 43 classes are enumerated from
shape x colour x glyph combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

IMAGE_SIZE = 32
NUM_CLASSES = 43

_COLORS = {
    "red": (0.85, 0.10, 0.12),
    "blue": (0.10, 0.25, 0.85),
    "yellow": (0.95, 0.85, 0.10),
    "white": (0.92, 0.92, 0.92),
    "black": (0.05, 0.05, 0.05),
    "gray": (0.55, 0.55, 0.55),
}

_SHAPES = ("circle", "triangle", "triangle_down", "octagon", "diamond", "square")
_GLYPHS = ("none", "hbar", "vbar", "cross", "dot", "chevron", "ring")


def class_table() -> List[Tuple[str, str, str, str]]:
    """Deterministic table of the 43 (shape, border, fill, glyph) classes."""
    combos: List[Tuple[str, str, str, str]] = []
    for shape in _SHAPES:
        for border in ("red", "blue", "yellow"):
            for glyph in _GLYPHS:
                fill = "white" if border != "yellow" else "black"
                combos.append((shape, border, fill, glyph))
    # 6 shapes x 3 colours x 7 glyphs = 126 possibilities; take an evenly
    # spaced selection so adjacent class ids differ in several attributes.
    table = [combos[i * len(combos) // NUM_CLASSES] for i in range(NUM_CLASSES)]
    return table


_CLASS_TABLE = class_table()


def _shape_masks(shape: str, grid: Tuple[np.ndarray, np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Return (border_mask, inner_mask) on the [-1, 1]^2 grid."""
    yy, xx = grid
    if shape == "circle":
        r = np.sqrt(xx ** 2 + yy ** 2)
        return (r <= 0.88) & (r > 0.62), r <= 0.62
    if shape == "triangle":
        inside = (yy <= 0.75) & (yy >= -0.85 + 1.9 * np.abs(xx))
        inner = (yy <= 0.55) & (yy >= -0.45 + 1.9 * np.abs(xx))
        return inside & ~inner, inner
    if shape == "triangle_down":
        inside = (yy >= -0.75) & (yy <= 0.85 - 1.9 * np.abs(xx))
        inner = (yy >= -0.55) & (yy <= 0.45 - 1.9 * np.abs(xx))
        return inside & ~inner, inner
    if shape == "octagon":
        inside = (np.maximum(np.abs(xx), np.abs(yy)) <= 0.85) & \
                 (np.abs(xx) + np.abs(yy) <= 1.2)
        inner = (np.maximum(np.abs(xx), np.abs(yy)) <= 0.6) & \
                (np.abs(xx) + np.abs(yy) <= 0.9)
        return inside & ~inner, inner
    if shape == "diamond":
        inside = np.abs(xx) + np.abs(yy) <= 0.95
        inner = np.abs(xx) + np.abs(yy) <= 0.65
        return inside & ~inner, inner
    if shape == "square":
        inside = np.maximum(np.abs(xx), np.abs(yy)) <= 0.82
        inner = np.maximum(np.abs(xx), np.abs(yy)) <= 0.56
        return inside & ~inner, inner
    raise ValueError(f"unknown shape {shape!r}")


def _glyph_mask(glyph: str, grid: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    yy, xx = grid
    if glyph == "none":
        return np.zeros_like(xx, dtype=bool)
    if glyph == "hbar":
        return (np.abs(yy) <= 0.14) & (np.abs(xx) <= 0.45)
    if glyph == "vbar":
        return (np.abs(xx) <= 0.14) & (np.abs(yy) <= 0.45)
    if glyph == "cross":
        return ((np.abs(yy) <= 0.12) & (np.abs(xx) <= 0.4)) | \
               ((np.abs(xx) <= 0.12) & (np.abs(yy) <= 0.4))
    if glyph == "dot":
        return np.sqrt(xx ** 2 + yy ** 2) <= 0.22
    if glyph == "chevron":
        return (np.abs(yy - 0.8 * np.abs(xx) + 0.2) <= 0.12) & (np.abs(xx) <= 0.4)
    if glyph == "ring":
        r = np.sqrt(xx ** 2 + yy ** 2)
        return (r <= 0.4) & (r > 0.24)
    raise ValueError(f"unknown glyph {glyph!r}")


@dataclass
class SignConfig:
    """Rendering knobs for the synthetic traffic-sign generator."""

    image_size: int = IMAGE_SIZE
    min_brightness: float = 0.45
    max_brightness: float = 1.1
    background_smoothness: float = 3.0
    noise_std: float = 0.03
    max_shift_px: float = 1.5
    max_rotation_deg: float = 8.0


def render_sign(label: int, rng: np.random.Generator,
                config: Optional[SignConfig] = None) -> np.ndarray:
    """Render one randomised sign image: ``(size, size, 3)`` in [0, 1]."""
    if not 0 <= label < NUM_CLASSES:
        raise ValueError(f"label must be in [0, {NUM_CLASSES}), got {label}")
    # Imported on use, so that importing the package does not load scipy.
    from scipy import ndimage

    config = config or SignConfig()
    size = config.image_size
    shape, border_name, fill_name, glyph_name = _CLASS_TABLE[label]

    axis = np.linspace(-1.3, 1.3, size)
    grid = np.meshgrid(axis, axis, indexing="ij")
    border_mask, inner_mask = _shape_masks(shape, grid)
    glyph_mask = _glyph_mask(glyph_name, grid) & inner_mask

    # Colourful cluttered background: smoothed RGB noise.
    background = np.stack([
        ndimage.gaussian_filter(rng.random((size, size)),
                                config.background_smoothness)
        for _ in range(3)], axis=-1)
    background = 0.25 + 0.5 * (background - background.min()) / \
        max(float(np.ptp(background)), 1e-9)

    image = background.copy()
    border_rgb = np.array(_COLORS[border_name])
    fill_rgb = np.array(_COLORS[fill_name])
    glyph_rgb = np.array(_COLORS["black" if fill_name == "white" else "white"])
    image[inner_mask] = fill_rgb
    image[border_mask] = border_rgb
    image[glyph_mask] = glyph_rgb

    angle = rng.uniform(-config.max_rotation_deg, config.max_rotation_deg)
    shift = rng.uniform(-config.max_shift_px, config.max_shift_px, 2)
    for channel in range(3):
        image[..., channel] = ndimage.rotate(image[..., channel], angle,
                                             reshape=False, order=1, mode="nearest")
        image[..., channel] = ndimage.shift(image[..., channel], shift,
                                            order=1, mode="nearest")

    brightness = rng.uniform(config.min_brightness, config.max_brightness)
    image = image * brightness
    if config.noise_std > 0:
        image = image + rng.normal(0, config.noise_std, image.shape)
    return np.clip(image, 0.0, 1.0)


def generate_signs(count: int, rng: Optional[np.random.Generator] = None,
                   config: Optional[SignConfig] = None,
                   balanced: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a labelled sign dataset: ``(count, 32, 32, 3)`` images."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = rng or np.random.default_rng()
    config = config or SignConfig()
    if balanced:
        labels = np.arange(count) % NUM_CLASSES
        rng.shuffle(labels)
    else:
        labels = rng.integers(0, NUM_CLASSES, count)
    images = np.stack([render_sign(int(label), rng, config) for label in labels])
    return images, labels.astype(np.int64)
