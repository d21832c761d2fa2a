"""Node placement and geometric helpers for WSN simulation.

Positions are 2-D coordinates in metres, stored as ``(n, 2)`` float
arrays.  The paper's cluster model (Sec. II) places N IoT devices and one
data aggregator inside a field; the aggregator is chosen close to the
other devices (Sec. III-E).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def place_uniform(count: int, area: Tuple[float, float] = (100.0, 100.0),
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Scatter ``count`` nodes uniformly over a ``width x height`` field."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = rng or np.random.default_rng()
    width, height = area
    return np.column_stack([rng.uniform(0, width, count),
                            rng.uniform(0, height, count)])


def place_grid(count: int, area: Tuple[float, float] = (100.0, 100.0),
               jitter: float = 0.0,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Place nodes on a near-square grid covering ``area``.

    ``jitter`` adds uniform positional noise (metres) to each node, which
    keeps grid deployments from producing degenerate equal distances.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    width, height = area
    cols = int(np.ceil(np.sqrt(count * width / height)))
    rows = int(np.ceil(count / cols))
    xs = (np.arange(cols) + 0.5) * (width / cols)
    ys = (np.arange(rows) + 0.5) * (height / rows)
    grid = np.array([(x, y) for y in ys for x in xs])[:count]
    if jitter > 0:
        rng = rng or np.random.default_rng()
        grid = grid + rng.uniform(-jitter, jitter, grid.shape)
    return grid


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix for ``(n, 2)`` positions."""
    positions = np.asarray(positions, dtype=float)
    deltas = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=-1))


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two points."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(((a - b) ** 2).sum()))
