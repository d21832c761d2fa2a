"""Cluster-head (data aggregator) selection.

The paper assumes the aggregator "is usually chosen based on its proximity
to other IoT devices within the same cluster" (Sec. III-E) and cites the
cluster-head-selection literature [18]-[20].  We provide that proximity
rule and two energy-aware variants.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .geometry import pairwise_distances


def select_aggregator(positions: np.ndarray, method: str = "proximity",
                      energies: Optional[Sequence[float]] = None,
                      alpha: float = 0.5) -> int:
    """Pick the data-aggregator node for one cluster.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates.
    method:
        ``"proximity"`` — minimise total distance to all other nodes
        (the paper's rule); ``"energy"`` — maximise remaining energy;
        ``"hybrid"`` — rank by ``alpha * distance_rank + (1-alpha) *
        energy_rank``.
    energies:
        Remaining battery energy per node; required by ``"energy"`` and
        ``"hybrid"``.

    Returns
    -------
    int
        Index of the selected node.
    """
    positions = np.asarray(positions, dtype=float)
    total_distance = pairwise_distances(positions).sum(axis=1)
    if method == "proximity":
        return int(np.argmin(total_distance))
    if energies is None:
        raise ValueError(f"method {method!r} requires energies")
    energies = np.asarray(energies, dtype=float)
    if energies.shape[0] != positions.shape[0]:
        raise ValueError("energies length must match positions")
    if method == "energy":
        return int(np.argmax(energies))
    if method == "hybrid":
        distance_rank = np.argsort(np.argsort(total_distance))
        energy_rank = np.argsort(np.argsort(-energies))
        score = alpha * distance_rank + (1.0 - alpha) * energy_rank
        return int(np.argmin(score))
    raise ValueError(f"unknown method {method!r}")
