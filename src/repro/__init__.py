"""OrcoDCS reproduction: IoT-Edge orchestrated online deep compressed sensing.

Full reproduction of "OrcoDCS: An IoT-Edge Orchestrated Online Deep
Compressed Sensing Framework" (ICDCS 2023).  See README.md for the
architecture overview and its "Substitutions" section for what stands
in for the paper's datasets and hardware.

Subpackages
-----------
``repro.nn``
    From-scratch autograd + neural-network framework (numpy).
``repro.wsn``
    Wireless sensor network simulator (energy, links, aggregation trees).
``repro.sim``
    Discrete-event runtime: unreliable channels (loss/ARQ/FEC),
    fault injection and the simulation kernel behind ``engine="event"``.
``repro.datasets``
    Synthetic digit / traffic-sign / sensor-field generators.
``repro.core``
    The OrcoDCS framework itself.
``repro.baselines``
    DCSNet, re-implemented from its published description.
``repro.apps``
    Follow-up applications (the 2-conv-layer classifier).
``repro.metrics``
    PSNR / SSIM / NMSE and transmission-cost accounting.
``repro.experiments``
    One module per paper figure; CLI: ``python -m repro.experiments``.
``repro.obs``
    Fleet observability: telemetry bus, metrics, JSONL exporters and
    the live console (zero-cost when no subscriber is attached).
"""

from . import apps, baselines, core, datasets, metrics, nn, obs, sim, wsn
from .core import (
    AsymmetricAutoencoder,
    EncoderDeployment,
    FineTuningMonitor,
    OrcoDCSConfig,
    OrcoDCSFramework,
)

__version__ = "1.0.0"

__all__ = [
    "apps", "baselines", "core", "datasets", "metrics", "nn", "obs",
    "sim", "wsn",
    "AsymmetricAutoencoder", "EncoderDeployment", "FineTuningMonitor",
    "OrcoDCSConfig", "OrcoDCSFramework", "__version__",
]
