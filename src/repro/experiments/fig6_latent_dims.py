"""Figure 6 — sensitivity to the dimension of latent vectors.

OrcoDCS with M in {256, 512, 1024} vs a time-fair DCSNet-50% reference,
common held-out MSE over training epochs.  The paper finds (i) every
OrcoDCS variant beats DCSNet, and (ii) larger latents help with
*diminishing rewards* — the step from 512 to 1024 buys far less than
256 to 512 (and can overfit).

Expected shape: final losses ordered OrcoDCS-1024 <= OrcoDCS-512 <=
OrcoDCS-256 < DCSNet, with gap(512->1024) < gap(256->512).
"""

from __future__ import annotations

from typing import List

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

LATENT_DIMS = [256, 512, 1024]


def run_task(workload: ImageWorkload, epochs: int, seed: int,
             result: ExperimentResult, latent_dims: List[int],
             strict: bool = True) -> None:
    configs = {
        f"OrcoDCS-{latent}": OrcoDCSConfig(input_dim=workload.input_dim,
                                           latent_dim=latent,
                                           noise_sigma=0.1, seed=seed,
                                           dtype=IMAGE_DTYPE)
        for latent in latent_dims
    }
    finals, dcs_at_time = sweep_with_dcsnet_reference(workload, configs,
                                                      epochs, seed, result)

    for label, loss in finals.items():
        row = {"dataset": workload.name, "framework": label,
               "final_val_mse": round(loss, 6)}
        if label in dcs_at_time:
            row["dcsnet_at_same_time"] = round(dcs_at_time[label], 6)
        result.add_row(**row)
    result.summary.update({f"{workload.name}_{k}": round(v, 6)
                           for k, v in finals.items()})

    orco_losses = [finals[f"OrcoDCS-{m}"] for m in latent_dims]
    # Time-fair comparison: each variant vs DCSNet *at that variant's
    # end-of-run time* (a small latent finishes sooner).
    result.check(f"{workload.name}: every OrcoDCS dim beats DCSNet",
                 all(finals[label] < dcs_at_time[label]
                     for label in configs))
    if strict:
        # Trend claims are only stable at (near-)paper scale.
        result.check(f"{workload.name}: larger latents converge lower",
                     orco_losses[-1] <= orco_losses[0])
        if workload.name == "digits":
            # Diminishing returns requires the latent to approach the
            # data dimension (saturation); only the digits task gets
            # there (M up to 1024 on N=784).  The signs task (N=3072)
            # is still in the steep regime at M=1024 — see
            # EXPERIMENTS.md.
            gain_first = orco_losses[0] - orco_losses[1]
            gain_second = orco_losses[1] - orco_losses[2]
            result.check(f"{workload.name}: diminishing returns",
                         gain_second <= gain_first + 1e-5)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 6 on both tasks."""
    result = ExperimentResult(
        "Figure 6 — impact of latent-vector dimension",
        "Held-out MSE vs epochs for OrcoDCS at M=256/512/1024 and a "
        "time-fair DCSNet reference.")
    epochs = epochs_for_scale(10, scale)
    dims = LATENT_DIMS if scale >= 1.0 else \
        [max(8, int(m * max(scale, 0.1))) for m in LATENT_DIMS]
    strict = scale >= 0.5
    run_task(digits_workload(scale, seed), epochs, seed, result, dims, strict)
    run_task(signs_workload(scale, seed), epochs, seed, result, dims, strict)
    return result


if __name__ == "__main__":
    print(run().format_report())
