"""`repro.experiments` — the figure-reproduction harness.

One module per paper figure (plus the two no-figure behavioural claims).
Each exposes ``run(scale=1.0, seed=0) -> ExperimentResult``; ``scale``
shrinks workloads for quick runs.  CLI::

    python -m repro.experiments fig4 --scale 0.2
    python -m repro.experiments all --scale 0.1 --out results/
"""

from . import (
    fig2_reconstruction,
    fig3_transmission,
    fig4_time_to_loss,
    fig5_classifier,
    fig6_latent_dims,
    fig7_noise,
    fig8_decoder_depth,
    finetune_drift,
    multicluster_scaling,
    overhead_analysis,
    resilience,
)
from .common import (
    ExperimentResult,
    ImageWorkload,
    digits_workload,
    signs_workload,
)

EXPERIMENTS = {
    "fig2": fig2_reconstruction.run,
    "fig3": fig3_transmission.run,
    "fig4": fig4_time_to_loss.run,
    "fig5": fig5_classifier.run,
    "fig6": fig6_latent_dims.run,
    "fig7": fig7_noise.run,
    "fig8": fig8_decoder_depth.run,
    "overhead": overhead_analysis.run,
    "finetune": finetune_drift.run,
    "multicluster": multicluster_scaling.run,
    "resilience": resilience.run,
}

__all__ = [
    "EXPERIMENTS", "ExperimentResult", "ImageWorkload",
    "digits_workload", "signs_workload",
    "fig2_reconstruction", "fig3_transmission", "fig4_time_to_loss",
    "fig5_classifier", "fig6_latent_dims", "fig7_noise",
    "fig8_decoder_depth", "finetune_drift", "overhead_analysis",
    "resilience",
]
