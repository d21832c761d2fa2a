"""First-order radio energy model.

The standard WSN energy model (Heinzelman et al., used throughout the
cluster-head literature the paper cites [18]-[20]): transmitting ``k``
bits over distance ``d`` costs electronics energy plus amplifier energy
that grows as d^2 in free space and d^4 beyond the crossover distance;
receiving costs electronics energy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class RadioEnergyModel:
    """Energy cost model for one radio (immutable).

    Attributes
    ----------
    electronics_j_per_bit:
        Energy to run the TX/RX circuitry, per bit (default 50 nJ).
    amp_free_space_j_per_bit_m2:
        Free-space amplifier coefficient (default 10 pJ/bit/m^2).
    amp_multipath_j_per_bit_m4:
        Multipath amplifier coefficient (default 0.0013 pJ/bit/m^4).
    """

    electronics_j_per_bit: float = 50e-9
    amp_free_space_j_per_bit_m2: float = 10e-12
    amp_multipath_j_per_bit_m4: float = 0.0013e-12

    @cached_property
    def crossover_distance_m(self) -> float:
        """Distance at which free-space and multipath amp energies match
        (computed once: the model is frozen)."""
        return math.sqrt(self.amp_free_space_j_per_bit_m2
                         / self.amp_multipath_j_per_bit_m4)

    def tx_energy(self, n_bits: int, distance_m: float) -> float:
        """Energy (J) to transmit ``n_bits`` over ``distance_m``."""
        if n_bits < 0 or distance_m < 0:
            raise ValueError("bits and distance must be non-negative")
        electronics = self.electronics_j_per_bit * n_bits
        if distance_m < self.crossover_distance_m:
            amplifier = self.amp_free_space_j_per_bit_m2 * n_bits * distance_m ** 2
        else:
            amplifier = self.amp_multipath_j_per_bit_m4 * n_bits * distance_m ** 4
        return electronics + amplifier

    def rx_energy(self, n_bits: int) -> float:
        """Energy (J) to receive ``n_bits``."""
        if n_bits < 0:
            raise ValueError("bits must be non-negative")
        return self.electronics_j_per_bit * n_bits


@dataclass
class Battery:
    """A simple energy store with drain tracking.

    Draining below zero raises :class:`BatteryDepletedError`; the WSN
    simulator uses this to detect node death under heavy raw aggregation.
    """

    capacity_j: float = 2.0
    remaining_j: float = field(default=None)

    def __post_init__(self):
        if not self.capacity_j > 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_j}")
        if self.remaining_j is None:
            self.remaining_j = self.capacity_j

    @property
    def consumed_j(self) -> float:
        return self.capacity_j - self.remaining_j

    def drain(self, joules: float) -> None:
        if joules < 0:
            raise ValueError("cannot drain negative energy")
        if joules > self.remaining_j + 1e-18:
            raise BatteryDepletedError(
                f"needed {joules:.3e} J but only {self.remaining_j:.3e} J remain")
        self.remaining_j -= joules


class BatteryDepletedError(RuntimeError):
    """Raised when a node attempts to spend more energy than it has."""
