"""`repro.sim` — discrete-event runtime for unreliable-network scenarios.

Three layers, each usable on its own:

* :mod:`repro.sim.events` — the simulation kernel (monotonic event
  queue, simulated clock, generator-based processes);
* :mod:`repro.sim.channel` — unreliable links (Bernoulli /
  Gilbert-Elliott frame loss, ARQ retransmission budgets, erasure-coded
  FEC priced by :mod:`repro.sim.coding`) wrapped around the ideal
  :class:`~repro.wsn.link.LinkModel`, with :mod:`repro.sim.sampler` as
  their vectorized block-sampling kernel;
* :mod:`repro.sim.faults` — declarative fault schedules (node death,
  battery brownout, aggregator failover, stragglers, churn) injected at
  simulated times.

The scheduler's ``engine="event"`` mode composes all three; with zero
faults and zero loss it reproduces the sequential engine's ledger and
modeled clock exactly.
"""

from .channel import (
    ARQConfig,
    BernoulliLoss,
    ChannelSpec,
    ChannelTrace,
    ChannelTraceDigest,
    ChannelTraceExhausted,
    GILBERT_ELLIOTT_PRESETS,
    GILBERT_ELLIOTT_TRACE_DIGESTS,
    GilbertElliottLoss,
    RecoveryStrategy,
    TransmitResult,
    UnreliableChannel,
    as_loss_model,
    digest_gilbert_elliott,
    fit_gilbert_elliott,
    ideal_transmit_result,
)
from .coding import (
    CodingSpec,
    delivery_probability,
    expected_frames_per_delivery,
)
from .events import Event, EventScheduler, SimulationError
from .sampler import (
    BernoulliSampler,
    GilbertElliottSampler,
    LossSampler,
    make_loss_sampler,
    parse_arq_stream,
)
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    NetworkFaultTarget,
    apply_fault,
    apply_fault_to_network,
)

__all__ = [
    "ARQConfig", "BernoulliLoss", "ChannelSpec", "ChannelTrace",
    "ChannelTraceDigest", "ChannelTraceExhausted", "CodingSpec",
    "GILBERT_ELLIOTT_PRESETS", "GILBERT_ELLIOTT_TRACE_DIGESTS",
    "GilbertElliottLoss", "RecoveryStrategy", "TransmitResult",
    "UnreliableChannel", "as_loss_model", "delivery_probability",
    "digest_gilbert_elliott", "expected_frames_per_delivery",
    "fit_gilbert_elliott", "ideal_transmit_result",
    "BernoulliSampler", "GilbertElliottSampler", "LossSampler",
    "make_loss_sampler", "parse_arq_stream",
    "Event", "EventScheduler", "SimulationError",
    "FAULT_KINDS", "FaultEvent", "FaultInjector", "FaultSchedule",
    "NetworkFaultTarget", "apply_fault", "apply_fault_to_network",
]
