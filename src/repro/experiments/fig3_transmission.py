"""Figure 3 — transmission cost for 1,000 and 10,000 images.

The paper's primary objective (Sec. II) is minimising the transmission
cost *from the data aggregator to the edge server*; Fig. 3 plots
transmitted KB against the number of images and finds OrcoDCS "can save
up to 10x transmission cost than DCSNet".

Headline metric (the figure's bars): backhaul uplink KB for shipping K
compressed images — ``K x M`` scalars for OrcoDCS (M=128 digits / 512
signs) vs ``K x 1024`` for DCSNet's fixed latent, including frame
headers.  The savings factor is the latent-dimension ratio amplified by
framing overhead (DCSNet fragments across several frames per image).

Secondary accounting (rows): the full sensor-side pipeline measured on a
simulated cluster with one WSN node per vector element — intra-cluster
aggregation (trained-encoder hybrid for OrcoDCS vs raw tree aggregation
feeding DCSNet's aggregator-side encoder) plus each framework's one-time
training/deployment traffic.

Expected shape: cost linear in image count; OrcoDCS cheaper everywhere;
digits savings approach an order of magnitude on the backhaul.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..baselines.dcsnet import DCSNET_LATENT_DIM
from ..metrics import CostBreakdown, savings_factor
from ..wsn import (
    WSNetwork,
    build_aggregation_tree,
    place_uniform,
    select_aggregator,
    simulate_encoder_distribution,
    simulate_hybrid_aggregation,
    simulate_raw_aggregation,
)
from ..wsn.link import uplink
from ..wsn.network import VALUE_BYTES
from .common import ExperimentResult

_TASKS = {
    # name -> (vector dim N, OrcoDCS latent M)
    "digits": (784, 128),
    "signs": (3072, 512),
}


def backhaul_bytes_per_image(latent_dim: int) -> int:
    """Wire bytes to uplink one compressed image (the Fig. 3 metric)."""
    return uplink().wire_bytes(latent_dim * VALUE_BYTES)


def _cluster_for(dim: int, seed: int) -> Tuple[WSNetwork, object]:
    """One WSN node per vector element, sized so the range graph connects."""
    rng = np.random.default_rng(seed)
    side = float(np.sqrt(dim)) * 4.0
    positions = place_uniform(dim, (side, side), rng)
    network = WSNetwork(positions, comm_range_m=side * 0.12,
                        battery_capacity_j=1e6)
    network.set_aggregator(select_aggregator(positions))
    return network, build_aggregation_tree(network)


def pipeline_cost_models(dim: int, latent_dim: int, seed: int = 0,
                         training_rounds: int = 100, training_batch: int = 32,
                         raw_training_rounds: int = 64
                         ) -> Tuple[CostBreakdown, CostBreakdown]:
    """Full sensor-side accounting: (OrcoDCS, DCSNet) breakdowns.

    Sensor-side = intra-cluster transmissions + backhaul uplink; the
    edge->aggregator downlink is excluded, as the paper's overhead
    analysis treats it as nearly free.
    """
    network, tree = _cluster_for(dim, seed)
    hybrid = simulate_hybrid_aggregation(network, tree, latent_dim)
    raw = simulate_raw_aggregation(network, tree)
    distribution = simulate_encoder_distribution(network, tree, latent_dim)
    up = uplink()

    orco_train_up = training_rounds * up.wire_bytes(
        training_batch * latent_dim * VALUE_BYTES)
    orco = CostBreakdown(
        "OrcoDCS",
        setup_bytes=(raw_training_rounds * raw.wire_bytes
                     + orco_train_up + distribution.wire_bytes),
        per_image_bytes=hybrid.wire_bytes
        + backhaul_bytes_per_image(latent_dim),
        components={
            "raw_training_rounds": float(raw_training_rounds * raw.wire_bytes),
            "training_uplink": float(orco_train_up),
            "encoder_distribution": float(distribution.wire_bytes),
            "intra_cluster_per_image": float(hybrid.wire_bytes),
        })

    dcs_train_up = training_rounds * up.wire_bytes(
        training_batch * DCSNET_LATENT_DIM * VALUE_BYTES)
    dcsnet = CostBreakdown(
        "DCSNet",
        setup_bytes=raw_training_rounds * raw.wire_bytes + dcs_train_up,
        per_image_bytes=raw.wire_bytes
        + backhaul_bytes_per_image(DCSNET_LATENT_DIM),
        components={
            "raw_training_rounds": float(raw_training_rounds * raw.wire_bytes),
            "training_uplink": float(dcs_train_up),
            "intra_cluster_per_image": float(raw.wire_bytes),
        })
    return orco, dcsnet


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 3: transmitted KB at 1,000 and 10,000 images."""
    result = ExperimentResult(
        "Figure 3 — transmission cost",
        "Backhaul KB to ship image batches (headline, as in the figure) "
        "plus full sensor-side pipeline accounting (rows).")
    image_counts = [1000, 10000]
    if scale < 1.0:
        image_counts = [max(10, int(c * scale)) for c in image_counts]

    for task, (dim, latent) in _TASKS.items():
        # --- headline: backhaul-only, exactly linear ------------------
        per_orco = backhaul_bytes_per_image(latent)
        per_dcs = backhaul_bytes_per_image(DCSNET_LATENT_DIM)
        xs = image_counts
        orco_kb = [per_orco * c / 1024.0 for c in xs]
        dcs_kb = [per_dcs * c / 1024.0 for c in xs]
        result.add_series(f"OrcoDCS/{task}", xs, orco_kb, "images", "KB")
        result.add_series(f"DCSNet/{task}", xs, dcs_kb, "images", "KB")
        backhaul_savings = per_dcs / per_orco
        result.summary[f"{task}_backhaul_savings"] = round(backhaul_savings, 2)

        # --- secondary: full sensor-side pipeline on a simulated WSN --
        sim_dim = dim if scale >= 1.0 else max(64, int(dim * max(scale, 0.05)))
        sim_latent = latent if scale >= 1.0 else max(8, int(latent * max(scale, 0.05)))
        orco_model, dcs_model = pipeline_cost_models(sim_dim, sim_latent, seed)
        for count in image_counts:
            orco_total = orco_model.scaled(count)
            dcs_total = dcs_model.scaled(count)
            pipeline_savings = savings_factor(dcs_total, orco_total)
            result.add_row(dataset=task, images=count,
                           backhaul_orco_kb=round(per_orco * count / 1024.0, 1),
                           backhaul_dcsnet_kb=round(per_dcs * count / 1024.0, 1),
                           backhaul_savings=round(backhaul_savings, 2),
                           pipeline_orco_kb=round(orco_total.total_kb, 1),
                           pipeline_dcsnet_kb=round(dcs_total.total_kb, 1),
                           pipeline_savings=round(pipeline_savings, 2))
            result.summary[f"{task}_{count}_pipeline_savings"] = round(
                pipeline_savings, 2)

        result.check(f"{task}: OrcoDCS cheaper on the backhaul",
                     per_orco < per_dcs)
        result.check(f"{task}: OrcoDCS cheaper on the full pipeline",
                     all(orco_model.scaled(c).total_bytes
                         < dcs_model.scaled(c).total_bytes
                         for c in image_counts))
        result.check(f"{task}: cost linear in image count",
                     abs(orco_kb[-1] / orco_kb[0]
                         - image_counts[-1] / image_counts[0]) < 1e-6)

    result.check("digits: backhaul savings approach an order of magnitude (>5x)",
                 result.summary["digits_backhaul_savings"] > 5.0)
    result.check("digits savings exceed signs savings (task-sized latents)",
                 result.summary["digits_backhaul_savings"]
                 > result.summary["signs_backhaul_savings"])
    return result


if __name__ == "__main__":
    print(run().format_report())
