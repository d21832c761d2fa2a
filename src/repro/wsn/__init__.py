"""`repro.wsn` — wireless sensor network simulation substrate.

Provides node geometry, the first-order radio energy model, link models,
cluster-head selection, aggregation trees and the three aggregation modes
used by OrcoDCS (raw, hybrid compressed-sensing, trained-encoder latent
aggregation), with full byte/energy/time accounting.
"""

from .aggregation import (
    AggregationReport,
    AggregationTree,
    build_aggregation_tree,
    hybrid_encode,
    hybrid_encode_partial,
    reachable_nodes,
    simulate_encoder_distribution,
    simulate_hybrid_aggregation,
    simulate_masked_hybrid_aggregation,
    simulate_raw_aggregation,
)
from .clustering import select_aggregator
from .energy import Battery, BatteryDepletedError, RadioEnergyModel
from .geometry import distance, pairwise_distances, place_grid, place_uniform
from .lifetime import (
    LifetimeReport,
    compare_lifetime,
    lifetime_extension_factor,
    simulate_lifetime,
)
from .link import LinkModel, downlink, sensor_link, uplink
from .network import (
    EDGE_SERVER_ID,
    DeadNodeError,
    Node,
    NodeRole,
    TransmissionLedger,
    TransmissionRecord,
    WSNetwork,
)

__all__ = [
    "AggregationReport", "AggregationTree",
    "build_aggregation_tree", "hybrid_encode", "hybrid_encode_partial",
    "reachable_nodes", "simulate_encoder_distribution",
    "simulate_hybrid_aggregation", "simulate_masked_hybrid_aggregation",
    "simulate_raw_aggregation",
    "select_aggregator",
    "Battery", "BatteryDepletedError", "RadioEnergyModel",
    "distance", "pairwise_distances", "place_grid", "place_uniform",
    "LifetimeReport", "compare_lifetime", "lifetime_extension_factor",
    "simulate_lifetime",
    "LinkModel", "downlink", "sensor_link", "uplink",
    "EDGE_SERVER_ID", "DeadNodeError", "Node", "NodeRole",
    "TransmissionLedger", "TransmissionRecord", "WSNetwork",
]
