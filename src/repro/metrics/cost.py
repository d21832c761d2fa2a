"""Transmission-cost bookkeeping helpers (Fig. 3 units and ratios)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


def bytes_to_kb(n_bytes: float) -> float:
    """Bytes -> kilobytes (1 KB = 1024 B), the unit of the paper's Fig. 3."""
    return n_bytes / 1024.0


@dataclass
class CostBreakdown:
    """Itemised transmission cost of one framework on one workload.

    ``setup_bytes`` covers one-time costs (raw-data round for training,
    encoder distribution); ``per_image_bytes`` is the steady-state cost of
    shipping one compressed sample; ``images`` scales it.
    """

    name: str
    setup_bytes: float = 0.0
    per_image_bytes: float = 0.0
    images: int = 0
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return self.setup_bytes + self.per_image_bytes * self.images

    @property
    def total_kb(self) -> float:
        return bytes_to_kb(self.total_bytes)

    def scaled(self, images: int) -> "CostBreakdown":
        """Same cost model evaluated at a different image count."""
        return CostBreakdown(self.name, self.setup_bytes,
                             self.per_image_bytes, images,
                             dict(self.components))


def savings_factor(baseline: CostBreakdown, ours: CostBreakdown) -> float:
    """How many times cheaper ``ours`` is than ``baseline`` (>1 = win)."""
    if ours.total_bytes == 0:
        return float("inf")
    return baseline.total_bytes / ours.total_bytes
