"""Cluster-head (data aggregator) selection.

The paper assumes the aggregator "is usually chosen based on its proximity
to other IoT devices within the same cluster" (Sec. III-E) and cites the
cluster-head-selection literature [18]-[20].  That proximity rule is the
one this module provides.
"""

from __future__ import annotations

import numpy as np

from .geometry import pairwise_distances


def select_aggregator(positions: np.ndarray) -> int:
    """Index of the data aggregator among ``(n, 2)`` node ``positions``:
    the node with the least total distance to all the others."""
    positions = np.asarray(positions, dtype=float)
    return int(np.argmin(pairwise_distances(positions).sum(axis=1)))
