"""Network-lifetime simulation: how long until batteries die?

The WSN literature's standard summary metric — rounds until the first
node depletes (and until a fraction of nodes deplete) — applied to the
three aggregation modes of this reproduction.  This quantifies the
paper's energy motivation: hybrid/trained-encoder aggregation extends
cluster lifetime by capping per-node transmissions at ``M`` scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .aggregation import (
    AggregationTree,
    build_aggregation_tree,
    simulate_hybrid_aggregation,
    simulate_raw_aggregation,
)
from .clustering import select_aggregator
from .energy import BatteryDepletedError
from .network import WSNetwork


@dataclass
class LifetimeReport:
    """Outcome of one lifetime simulation."""

    mode: str
    rounds_to_first_death: int
    rounds_to_fraction_dead: Optional[int]
    death_fraction: float
    total_rounds_simulated: int
    energy_spread: float   # max/mean consumed energy at end (hotspot factor)


def _run_rounds(network: WSNetwork, tree: AggregationTree,
                round_fn: Callable[[], None], max_rounds: int,
                death_fraction: float) -> LifetimeReport:
    first_death = max_rounds
    fraction_round: Optional[int] = None
    completed = 0
    for round_index in range(1, max_rounds + 1):
        try:
            round_fn()
        except BatteryDepletedError:
            first_death = min(first_death, round_index)
            break
        completed = round_index
        alive = network.alive_fraction()
        if first_death == max_rounds and alive < 1.0:
            first_death = round_index
        if fraction_round is None and (1.0 - alive) >= death_fraction:
            fraction_round = round_index
    consumed = [n.battery.consumed_j for n in network.nodes.values()]
    mean = float(np.mean(consumed)) if consumed else 0.0
    spread = float(np.max(consumed) / mean) if mean > 0 else 1.0
    return LifetimeReport(
        mode="", rounds_to_first_death=first_death,
        rounds_to_fraction_dead=fraction_round,
        death_fraction=death_fraction,
        total_rounds_simulated=completed, energy_spread=spread)


def simulate_lifetime(positions: np.ndarray, mode: str,
                      latent_dim: int = 16, battery_j: float = 0.05,
                      comm_range_m: float = 30.0,
                      max_rounds: int = 10_000,
                      death_fraction: float = 0.2,
                      values_per_node: int = 1) -> LifetimeReport:
    """Run data-collection rounds until batteries give out.

    Parameters
    ----------
    mode:
        ``"raw"`` — every round ships all readings raw to the aggregator;
        ``"hybrid"`` — hybrid CS aggregation with ``latent_dim`` (this is
        also the cost profile of OrcoDCS's trained-encoder collection).
    battery_j:
        Initial battery energy; small values keep the simulation short.
    values_per_node:
        Readings each device contributes per collection round.  Values
        above 1 model batched sensing, where payloads (not per-frame
        headers) dominate and compression pays off most.

    Returns
    -------
    LifetimeReport
    """
    if mode not in ("raw", "hybrid"):
        raise ValueError("mode must be 'raw' or 'hybrid'")
    positions = np.asarray(positions, dtype=float)
    network = WSNetwork(positions, comm_range_m=comm_range_m,
                        battery_capacity_j=battery_j)
    network.set_aggregator(select_aggregator(positions))
    tree = build_aggregation_tree(network)

    if mode == "raw":
        def round_fn():
            simulate_raw_aggregation(network, tree,
                                     values_per_node=values_per_node)
    else:
        def round_fn():
            simulate_hybrid_aggregation(network, tree, latent_dim,
                                        values_per_node=values_per_node)

    report = _run_rounds(network, tree, round_fn, max_rounds, death_fraction)
    report.mode = mode
    return report


def compare_lifetime(positions: np.ndarray, latent_dim: int = 16,
                     battery_j: float = 0.05,
                     comm_range_m: float = 30.0,
                     max_rounds: int = 10_000,
                     values_per_node: int = 1) -> Dict[str, LifetimeReport]:
    """Lifetime of raw vs hybrid collection on the same deployment."""
    return {
        mode: simulate_lifetime(positions, mode, latent_dim, battery_j,
                                comm_range_m, max_rounds,
                                values_per_node=values_per_node)
        for mode in ("raw", "hybrid")
    }


def lifetime_extension_factor(reports: Dict[str, LifetimeReport]) -> float:
    """How many times longer the cluster lives under hybrid collection."""
    raw = reports["raw"].rounds_to_first_death
    hybrid = reports["hybrid"].rounds_to_first_death
    if raw <= 0:
        return float("inf")
    return hybrid / raw
