"""Figure 8 — sensitivity to the number of decoder layers.

OrcoDCS with decoders of 1, 3 and 5 layers (the flexibility DCSNet's
fixed structure lacks) against a time-fair DCSNet reference, common
held-out MSE over epochs.

Expected shape: all depths beat DCSNet; deeper decoders reach lower loss
with diminishing returns (3L->5L buys less than 1L->3L).
"""

from __future__ import annotations

from ..core import OrcoDCSConfig
from .common import (
    IMAGE_DTYPE,
    ExperimentResult,
    ImageWorkload,
    digits_workload,
    epochs_for_scale,
    signs_workload,
    sweep_with_dcsnet_reference,
)

DECODER_DEPTHS = [1, 3, 5]


def run_task(workload: ImageWorkload, epochs: int, seed: int,
             result: ExperimentResult, strict: bool = True) -> None:
    configs = {
        f"OrcoDCS-{depth}L": OrcoDCSConfig(input_dim=workload.input_dim,
                                           latent_dim=workload.default_latent,
                                           decoder_layers=depth,
                                           noise_sigma=0.1, seed=seed,
                                           dtype=IMAGE_DTYPE)
        for depth in DECODER_DEPTHS
    }
    finals, dcs_at_time = sweep_with_dcsnet_reference(workload, configs,
                                                      epochs, seed, result)

    for label, loss in finals.items():
        result.add_row(dataset=workload.name, framework=label,
                       final_val_mse=round(loss, 6))
    result.summary.update({f"{workload.name}_{k}": round(v, 6)
                           for k, v in finals.items()})

    depth_losses = [finals[f"OrcoDCS-{d}L"] for d in DECODER_DEPTHS]
    if workload.name == "digits":
        result.check(f"{workload.name}: every depth beats DCSNet",
                     all(finals[label] < dcs_at_time[label]
                         for label in configs))
        if strict:
            # Deeper decoders start slower but converge lower; the
            # ordering only stabilises with a full training budget.
            result.check(f"{workload.name}: deeper decoder converges lower",
                         min(depth_losses[1:]) <= depth_losses[0])
    else:
        # On the 3072-dim signs task deep dense decoders (hidden width
        # ~1.5k, >10M params) are undertrained within the paper's
        # 10-epoch budget; only the default 1L variant is asserted to
        # beat DCSNet (see EXPERIMENTS.md).
        result.check(f"{workload.name}: default depth beats DCSNet",
                     finals["OrcoDCS-1L"] < dcs_at_time["OrcoDCS-1L"])


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 8 on both tasks."""
    result = ExperimentResult(
        "Figure 8 — impact of decoder depth",
        "Held-out MSE vs epochs for OrcoDCS with 1/3/5-layer decoders "
        "and a time-fair DCSNet reference.")
    epochs = epochs_for_scale(10, scale)
    strict = scale >= 0.5
    run_task(digits_workload(scale, seed), epochs, seed, result, strict)
    run_task(signs_workload(scale, seed), epochs, seed, result, strict)
    return result


if __name__ == "__main__":
    print(run().format_report())
