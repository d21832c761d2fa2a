"""`repro.core` — the OrcoDCS framework (the paper's contribution).

Asymmetric autoencoder (Sec. III-B), latent Gaussian noise (eq. 2),
IoT-Edge orchestrated online trainer with compute/byte accounting,
trained-encoder deployment into the WSN (Sec. III-C) and the
fine-tuning monitor (Sec. III-D).
"""

from .autoencoder import AsymmetricAutoencoder, build_decoder, build_encoder
from .config import OrcoDCSConfig
from .deployment import CompressedRound, EncoderDeployment
from .finetune import (
    AdaptationEvent,
    AdaptationLog,
    FineTuningMonitor,
    OnlineAdaptationLoop,
)
from .fleet import (
    FleetIncompatibilityError,
    FleetSubset,
    FleetTrainer,
    fleet_compatible,
    stacking_key,
)
from .noise import GaussianNoiseInjector
from .rounds import (
    IdealRoundLoop,
    InlineRoundExecutor,
    SegmentedFleetExecutor,
    contributor_batch,
    epoch_of,
)
from .scheduler import (
    EdgeTrainingScheduler,
    ExecutionPlan,
    ResilientOrchestrationPolicy,
    ScheduledCluster,
    ScheduleReport,
)
from .orchestrator import (
    EpochRecord,
    OrchestratedTrainer,
    OrcoDCSFramework,
    RoundRecord,
    TrainingHistory,
    config_overhead,
)
from .timing import (
    DeviceProfile,
    OrchestrationTimingModel,
    OverheadReport,
    RoundTiming,
    conv2d_flops,
    dense_flops,
    dense_stack_flops,
    edge_server_profile,
    iot_aggregator_profile,
    overhead_report,
    training_flops,
)

__all__ = [
    "AsymmetricAutoencoder", "build_decoder", "build_encoder",
    "OrcoDCSConfig",
    "CompressedRound", "EncoderDeployment",
    "AdaptationEvent", "AdaptationLog", "FineTuningMonitor",
    "OnlineAdaptationLoop",
    "FleetIncompatibilityError", "FleetSubset", "FleetTrainer",
    "fleet_compatible", "stacking_key",
    "GaussianNoiseInjector",
    "IdealRoundLoop", "InlineRoundExecutor", "SegmentedFleetExecutor",
    "contributor_batch", "epoch_of",
    "EdgeTrainingScheduler", "ExecutionPlan",
    "ResilientOrchestrationPolicy",
    "ScheduledCluster", "ScheduleReport",
    "EpochRecord", "OrchestratedTrainer", "OrcoDCSFramework", "RoundRecord",
    "TrainingHistory", "config_overhead",
    "DeviceProfile", "OrchestrationTimingModel", "OverheadReport",
    "RoundTiming", "conv2d_flops", "dense_flops",
    "dense_stack_flops", "edge_server_profile", "iot_aggregator_profile",
    "overhead_report", "training_flops",
]
