"""Figure 2 — reconstruction quality, OrcoDCS vs DCSNet.

The paper shows three digits and three traffic signs reconstructed by
each framework and argues OrcoDCS's outputs are "much clearer".  We
quantify the identical comparison: train both frameworks on each task,
reconstruct three held-out samples per dataset, and report per-image
PSNR and SSIM plus dataset means.

Expected shape: OrcoDCS beats DCSNet on mean PSNR and SSIM on both
datasets (it trains on all the data, task-sized latents, and noise
regularisation; DCSNet has the fixed 1024 code and half the data).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..baselines import DCSNetOnline
from ..core import OrcoDCSConfig, OrcoDCSFramework
from ..metrics import psnr, ssim
from .common import (
    IMAGE_DTYPE,
    ExperimentResult,
    ImageWorkload,
    digits_workload,
    epochs_for_scale,
    signs_workload,
)


def _train_pair(workload: ImageWorkload, epochs: int, seed: int
                ) -> Tuple[OrcoDCSFramework, DCSNetOnline]:
    """Train both frameworks online under the SAME modeled time budget.

    The paper's comparison is online training over the WSN: wall-clock,
    not epochs, is the shared resource.  DCSNet's rounds are several
    times slower on the modeled clock (1024-wide projection on the weak
    aggregator, 8x larger latent uplink), so it completes fewer passes —
    exactly the handicap the paper reports.
    """
    config = OrcoDCSConfig(input_dim=workload.input_dim,
                           latent_dim=workload.default_latent,
                           noise_sigma=0.1, seed=seed,
                           dtype=IMAGE_DTYPE)
    orco = OrcoDCSFramework(config)
    orco_history = orco.fit_config(workload.train_rows, epochs=epochs)
    dcsnet = DCSNetOnline(image_shape=workload.image_shape, seed=seed,
                          data_fraction=0.5)
    dcsnet.fit_fraction(workload.train_rows, epochs=epochs * 10,
                        batch_size=32,
                        time_budget_s=orco_history.total_time_s)
    return orco, dcsnet


def _image_from_row(row: np.ndarray, workload: ImageWorkload) -> np.ndarray:
    channels, height, width = workload.image_shape
    if channels == 1:
        return row.reshape(height, width)
    return row.reshape(height, width, channels)


def run(scale: float = 1.0, seed: int = 0,
        samples_per_dataset: int = 3) -> ExperimentResult:
    """Reproduce Fig. 2 as a PSNR/SSIM table."""
    result = ExperimentResult(
        "Figure 2 — quality of the reconstructions",
        "Per-image PSNR/SSIM of OrcoDCS vs DCSNet reconstructions "
        "(3 digits + 3 traffic signs, as in the paper).")
    epochs = epochs_for_scale(25, scale, minimum=4)
    means: Dict[str, Dict[str, float]] = {}
    for workload in (digits_workload(scale, seed), signs_workload(scale, seed)):
        orco, dcsnet = _train_pair(workload, epochs, seed)
        rows = workload.test_rows[:samples_per_dataset]
        recon_orco = orco.reconstruct(rows)
        recon_dcs = dcsnet.reconstruct(rows)
        psnrs = {"OrcoDCS": [], "DCSNet": []}
        ssims = {"OrcoDCS": [], "DCSNet": []}
        for index in range(len(rows)):
            original = _image_from_row(rows[index], workload)
            for label, recon in (("OrcoDCS", recon_orco), ("DCSNet", recon_dcs)):
                image = _image_from_row(recon[index], workload)
                value_psnr = psnr(original, image)
                value_ssim = ssim(original, image)
                psnrs[label].append(value_psnr)
                ssims[label].append(value_ssim)
                result.add_row(dataset=workload.name, sample=index,
                               framework=label, psnr_db=round(value_psnr, 2),
                               ssim=round(value_ssim, 4))
        means[workload.name] = {
            "orco_psnr": float(np.mean(psnrs["OrcoDCS"])),
            "dcs_psnr": float(np.mean(psnrs["DCSNet"])),
            "orco_ssim": float(np.mean(ssims["OrcoDCS"])),
            "dcs_ssim": float(np.mean(ssims["DCSNet"])),
        }
        result.summary[f"{workload.name}_mean_psnr_orco"] = means[workload.name]["orco_psnr"]
        result.summary[f"{workload.name}_mean_psnr_dcsnet"] = means[workload.name]["dcs_psnr"]
        result.check(f"{workload.name}: OrcoDCS PSNR > DCSNet",
                     means[workload.name]["orco_psnr"] > means[workload.name]["dcs_psnr"])
        if scale >= 0.5:
            # SSIM differences on three samples are only stable near
            # paper scale.
            result.check(f"{workload.name}: OrcoDCS SSIM > DCSNet",
                         means[workload.name]["orco_ssim"] > means[workload.name]["dcs_ssim"])
    return result


if __name__ == "__main__":
    print(run().format_report())
