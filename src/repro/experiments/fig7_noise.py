"""Figure 7 — sensitivity to the amount of latent noise.

OrcoDCS trained with Gaussian noise of variance sigma^2 on the latent
vectors (eq. 2): sigma^2 in {0.1, 0.2, 0.3} for digits and
{0, 0.3, 0.6, 0.9} for signs (the paper's panel legends), against a
time-fair DCSNet reference.  Curves report the common held-out MSE.

Expected shape: every noise level still beats DCSNet; moderate noise is
close to noiseless, and heavy noise degrades gracefully rather than
collapsing.
"""

from __future__ import annotations

import math
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

DIGIT_VARIANCES = [0.1, 0.2, 0.3]
SIGN_VARIANCES = [0.0, 0.3, 0.6, 0.9]


def run_task(workload: ImageWorkload, variances: List[float], epochs: int,
             seed: int, result: ExperimentResult) -> None:
    configs = {
        f"OrcoDCS(s2={variance:g})": OrcoDCSConfig(
            input_dim=workload.input_dim,
            latent_dim=workload.default_latent,
            noise_sigma=math.sqrt(variance), seed=seed, dtype=IMAGE_DTYPE)
        for variance in variances
    }
    finals, dcs_at_time = sweep_with_dcsnet_reference(workload, configs,
                                                      epochs, seed, result)

    for label, loss in finals.items():
        result.add_row(dataset=workload.name, framework=label,
                       final_val_mse=round(loss, 6))
    result.summary.update({f"{workload.name}_{k}": round(v, 6)
                           for k, v in finals.items()})

    orco_losses = [v for k, v in finals.items() if k != "DCSNet"]
    result.check(f"{workload.name}: all noise levels beat DCSNet",
                 all(finals[label] < dcs_at_time[label]
                     for label in configs))
    # Heavy noise should cost something but not collapse: worst OrcoDCS
    # stays within an order of magnitude of the best.
    result.check(f"{workload.name}: graceful degradation under noise",
                 max(orco_losses) < 10 * max(min(orco_losses), 1e-7))


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Reproduce Fig. 7 on both tasks."""
    result = ExperimentResult(
        "Figure 7 — impact of latent noise",
        "Held-out MSE vs epochs for OrcoDCS at several noise variances "
        "(eq. 2) and a time-fair DCSNet reference.")
    epochs = epochs_for_scale(10, scale)
    run_task(digits_workload(scale, seed), DIGIT_VARIANCES, epochs, seed, result)
    run_task(signs_workload(scale, seed), SIGN_VARIANCES, epochs, seed, result)
    return result


if __name__ == "__main__":
    print(run().format_report())
