"""Correlated sensor-field generator with environmental drift.

This is the paper's native scenario: a cluster of IoT devices regularly
reads a physical quantity (temperature, humidity, ...).  The field is a
spatially smooth Gaussian random field evolving as an AR(1) process in
time, with optional moving "hotspots" and regime changes — the
environmental drift that triggers OrcoDCS's fine-tuning (Sec. III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class FieldRegime:
    """Statistical regime of the sensed field."""

    mean: float = 22.0
    amplitude: float = 4.0
    correlation_length: float = 8.0
    temporal_rho: float = 0.9
    hotspot_strength: float = 0.0


class SensorField:
    """A spatio-temporally correlated scalar field over a 2-D area.

    Parameters
    ----------
    area:
        ``(width, height)`` of the field in metres.
    resolution:
        Grid cells per axis used for the underlying field.
    regime:
        Initial :class:`FieldRegime`.
    rng:
        Generator driving the stochastic evolution.
    """

    def __init__(self, area: Tuple[float, float] = (100.0, 100.0),
                 resolution: int = 64,
                 regime: Optional[FieldRegime] = None,
                 rng: Optional[np.random.Generator] = None):
        if resolution < 4:
            raise ValueError("resolution must be at least 4")
        self.area = area
        self.resolution = resolution
        self.regime = regime or FieldRegime()
        self.rng = rng or np.random.default_rng()
        self._hotspot_pos = np.array([area[0] * 0.5, area[1] * 0.5])
        self._hotspot_vel = self.rng.normal(0, 1.0, 2)
        self._field = self._draw_innovation()
        self.time_step = 0

    def _draw_innovation(self) -> np.ndarray:
        """Fresh smooth zero-mean unit-ish variance field."""
        # Imported on use, so that importing the package does not load scipy.
        from scipy import ndimage

        white = self.rng.standard_normal((self.resolution, self.resolution))
        sigma = self.regime.correlation_length / \
            (self.area[0] / self.resolution)
        smooth = ndimage.gaussian_filter(white, sigma, mode="wrap")
        std = smooth.std()
        return smooth / (std if std > 0 else 1.0)

    def step(self) -> None:
        """Advance the field one time step (AR(1) + hotspot motion)."""
        rho = self.regime.temporal_rho
        innovation = self._draw_innovation()
        self._field = rho * self._field + np.sqrt(max(1 - rho ** 2, 0.0)) * innovation
        if self.regime.hotspot_strength > 0:
            self._hotspot_vel += self.rng.normal(0, 0.3, 2)
            self._hotspot_vel = np.clip(self._hotspot_vel, -2.0, 2.0)
            self._hotspot_pos = (self._hotspot_pos + self._hotspot_vel) % \
                np.asarray(self.area)
        self.time_step += 1

    def set_regime(self, regime: FieldRegime) -> None:
        """Switch statistical regime (an environmental change)."""
        self.regime = regime
        # Redraw with the new correlation structure so the change is real.
        self._field = self._draw_innovation()

    def _grid_values(self) -> np.ndarray:
        field = self.regime.mean + self.regime.amplitude * self._field
        if self.regime.hotspot_strength > 0:
            axis_x = np.linspace(0, self.area[0], self.resolution)
            axis_y = np.linspace(0, self.area[1], self.resolution)
            gx, gy = np.meshgrid(axis_x, axis_y, indexing="ij")
            dist_sq = (gx - self._hotspot_pos[0]) ** 2 + (gy - self._hotspot_pos[1]) ** 2
            field = field + self.regime.hotspot_strength * \
                np.exp(-dist_sq / (2 * (self.area[0] * 0.08) ** 2))
        return field

    def read(self, positions: np.ndarray,
             noise_std: float = 0.0) -> np.ndarray:
        """Sample the field at ``(n, 2)`` positions (bilinear interpolation)."""
        from scipy import ndimage

        positions = np.asarray(positions, dtype=float)
        grid = self._grid_values()
        scale_x = (self.resolution - 1) / self.area[0]
        scale_y = (self.resolution - 1) / self.area[1]
        coords = np.vstack([positions[:, 0] * scale_x,
                            positions[:, 1] * scale_y])
        values = ndimage.map_coordinates(grid, coords, order=1, mode="nearest")
        if noise_std > 0:
            values = values + self.rng.normal(0, noise_std, values.shape)
        return values

    def generate_rounds(self, positions: np.ndarray, num_rounds: int,
                        noise_std: float = 0.05) -> np.ndarray:
        """Collect ``num_rounds`` sensing rounds: returns ``(T, N)``."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        rounds = np.zeros((num_rounds, len(positions)))
        for t in range(num_rounds):
            self.step()
            rounds[t] = self.read(positions, noise_std)
        return rounds


def normalized_rounds(rounds: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """Scale sensing rounds to [0, 1]; returns (scaled, low, high).

    The paper's autoencoders use sigmoid outputs, so data is normalised
    into the unit interval before training; `low/high` let callers invert
    the scaling for reporting in physical units.
    """
    rounds = np.asarray(rounds, dtype=float)
    low = float(rounds.min())
    high = float(rounds.max())
    span = high - low
    if span == 0:
        return np.zeros_like(rounds), low, high
    return (rounds - low) / span, low, high


def denormalize_rounds(scaled: np.ndarray, low: float, high: float) -> np.ndarray:
    """Invert :func:`normalized_rounds`."""
    return np.asarray(scaled, dtype=float) * (high - low) + low
