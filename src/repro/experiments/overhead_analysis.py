"""Section III-E — overhead analysis, quantified.

The paper argues (without a figure) that OrcoDCS's training overhead on
the data aggregator is minimal: the encoder is one dense layer, latent
uplinks are small, and the edge server absorbs the decoder plus the
cheap downlink.  This experiment quantifies each claim for both tasks
and contrasts with DCSNet's fixed structure.

Expected shape: the edge carries the overwhelming share of compute in
deep-decoder configurations; the aggregator's FLOPs and uplink bytes are
small multiples of the raw data size; DCSNet's aggregator-side cost is
~8x OrcoDCS's on digits (1024 vs 128-wide projection).
"""

from __future__ import annotations

from ..baselines.dcsnet import DCSNET_LATENT_DIM, dcsnet_decoder_flops
from ..core import OrcoDCSConfig, config_overhead, dense_flops
from .common import ExperimentResult

_TASKS = {
    "digits": {"input_dim": 784, "latent": 128, "image_shape": (1, 28, 28)},
    "signs": {"input_dim": 3072, "latent": 512, "image_shape": (3, 32, 32)},
}


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Quantify Sec. III-E for both tasks (scale is accepted for harness
    uniformity; the analysis is analytic and cheap at any scale)."""
    result = ExperimentResult(
        "Section III-E — overhead analysis",
        "Per-round FLOP and byte breakdown of orchestrated training; "
        "aggregator vs edge shares for OrcoDCS (1L and 5L decoders) and "
        "DCSNet's fixed structure.")
    for task, spec in _TASKS.items():
        for depth in (1, 5):
            config = OrcoDCSConfig(input_dim=spec["input_dim"],
                                   latent_dim=spec["latent"],
                                   decoder_layers=depth, seed=seed)
            report = config_overhead(config)
            label = f"OrcoDCS-{depth}L"
            result.add_row(
                dataset=task, framework=label,
                aggregator_mflops=round(report.aggregator_flops_per_round / 1e6, 2),
                edge_mflops=round(report.edge_flops_per_round / 1e6, 2),
                edge_share=round(report.edge_compute_share, 3),
                uplink_kb=round(report.uplink_bytes_per_round / 1024, 1),
                downlink_kb=round(report.downlink_bytes_per_round / 1024, 1))
            result.summary[f"{task}_{label}_edge_share"] = round(
                report.edge_compute_share, 3)
            if depth == 5:
                result.check(f"{task}: deep decoder runs mostly on the edge",
                             report.edge_compute_share > 0.8)
            result.check(
                f"{task}-{depth}L: downlink bigger than uplink (cheap link absorbs it)",
                report.downlink_bytes_per_round > report.uplink_bytes_per_round)

        batch = 32
        dcs_aggregator = 3.0 * dense_flops(spec["input_dim"], DCSNET_LATENT_DIM) * batch
        orco_aggregator = 3.0 * dense_flops(spec["input_dim"], spec["latent"]) * batch
        ratio = dcs_aggregator / orco_aggregator
        result.add_row(dataset=task, framework="DCSNet",
                       aggregator_mflops=round(dcs_aggregator / 1e6, 2),
                       edge_mflops=round(3.0 * dcsnet_decoder_flops(spec["image_shape"]) * batch / 1e6, 2),
                       uplink_kb=round(batch * DCSNET_LATENT_DIM * 4 / 1024, 1))
        result.summary[f"{task}_aggregator_cost_ratio_dcsnet_over_orco"] = round(ratio, 2)
        result.check(f"{task}: OrcoDCS aggregator cheaper than DCSNet's",
                     ratio > 1.5)
    return result


if __name__ == "__main__":
    print(run().format_report())
