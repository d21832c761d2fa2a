"""Edge-side scheduling of many concurrent OrcoDCS training sessions.

The paper's conclusion names this as the open problem: "optimization of
training overhead on edge servers when a large number of data
aggregators need to perform training procedures of OrcoDCS".  This
module implements that layer: an :class:`EdgeTrainingScheduler` that
owns one edge compute budget and time-shares it across the orchestrated
trainers of many clusters, under pluggable policies:

* ``fifo`` — clusters train to completion in arrival order;
* ``round_robin`` — one minibatch round per cluster per cycle;
* ``loss_priority`` — the cluster with the highest current loss gets the
  next round (greedy max-improvement);
* ``deadline`` — earliest-deadline-first over per-cluster time budgets.

The scheduler advances a shared modeled clock: while the edge decodes
for one cluster, other clusters' *aggregator-side* compute and uplinks
proceed in parallel (they are independent devices), but edge compute
serialises — the contention the paper worries about.

Execution engines
-----------------
The *modeled* clock above is independent of how fast this Python process
can simulate the rounds, and a cluster's weight/loss trajectory depends
only on its own data stream, weights and noise draws — never on when the
edge got around to serving it.  Every engine drives the one shared
per-round lifecycle in :mod:`repro.core.rounds` (select contributors ->
run training step -> account clock/ledger/energy -> apply policy); they
differ only in which world they assume and where the training math runs:

* ``sequential`` — the literal loop: pick a cluster, run one
  :meth:`~repro.core.orchestrator.OrchestratedTrainer.step`, advance
  the clocks.  O(K) Python-level autograd passes per cycle.
* ``batched`` — execute every cluster's rounds up front through a
  :class:`~repro.core.fleet.FleetTrainer` (one stacked tensor program
  per cycle for all K clusters), then **replay** the scheduling policy
  over the recorded per-round losses and the per-cluster round timings
  through the same :class:`~repro.core.rounds.IdealRoundLoop` the
  sequential engine uses — identical modeled clock, ledger and deadline
  accounting.  Wall-clock cost drops by roughly the cluster count; the
  per-cluster loss trajectories match the sequential engine to <= 1e-6
  (observed ~1e-12) for identical seeds.

``engine="auto"`` (the default) picks ``batched`` whenever the
registered clusters are architecture-homogeneous with a uniform batch
size, and falls back to ``sequential`` otherwise (heterogeneous models,
exotic losses, data shorter than one batch).

* ``event`` — the unreliable-world engine: rounds execute on the
  :mod:`repro.sim.events` discrete-event kernel, completing
  asynchronously at simulated-clock times.  Uplinks/downlinks may run
  over lossy :class:`~repro.sim.channel.UnreliableChannel`\\ s (ARQ
  retransmissions lengthen rounds, radiate extra ledger bytes and drain
  the aggregator battery; a round whose transfer exhausts its ARQ
  budget *fails* — time and energy spent, no training update), a
  declarative :class:`~repro.sim.faults.FaultSchedule` can kill
  devices/aggregators, brown out batteries and straggle clusters
  mid-run, and a :class:`ResilientOrchestrationPolicy` decides how
  training proceeds with degraded clusters (failover vs. retire,
  straggler tolerance, fleet-wide quorum, per-cluster ARQ budgets,
  and the loss-recovery strategy itself: ``recovery="arq"|"fec"|
  "hybrid"`` selects stop-and-wait retransmission, open-loop erasure
  coding with per-cluster/per-direction adaptive parity, or the coded
  burst with ARQ repair — see :mod:`repro.sim.coding`).
  With zero faults and zero loss this engine reproduces the sequential
  engine's per-cluster trajectories, transmission ledger and modeled
  clock exactly — the correctness anchor mirroring the batched engine's
  contract.

  The event engine **fuses with the fleet engine** whenever at least
  one homogeneous group of clusters stacks (mixed fleets batch group
  by group; the unstackable rest runs per cluster): between
  consecutive scheduled fault times the surviving clusters' rounds are
  pre-executed as :class:`~repro.core.fleet.FleetTrainer` waves and
  replayed into the kernel's clock, ledger and RNG streams
  (:class:`~repro.core.rounds.SegmentedFleetExecutor`); rounds
  straddling a fault boundary fall back to per-cluster execution at
  their true kernel times.  Unreliable channels are no barrier: their
  whole horizon of loss draws is pre-sampled into replayable
  :class:`~repro.sim.channel.ChannelTrace`\\ s, making lossy rounds
  plan-time computable.  ``loss_priority`` — whose picks depend on
  losses the planner cannot foresee — runs the unfused loop.  A fused
  run is bit-identical in clock, ledger, delivered/attempt counts and
  report to the unfused loop (losses match to stacked-GEMM reduction
  noise); pass ``segment_batching=False`` to force the unfused loop.
  The resolved strategy is introspectable via
  :meth:`EdgeTrainingScheduler.execution_plan`, which routes every
  engine gate through one :class:`ExecutionPlan` object.

* ``analytic`` — the ensemble-pricing engine
  (:mod:`repro.scale.analytic`): no rounds execute at all.  Expected
  delivered rounds, radio energy, battery lifetime and deadline-miss
  probabilities are folded from the closed-form channel/coding/battery
  math (truncated-geometric ARQ attempts, binomial FEC delivery,
  Gilbert-Elliott stationary loss) per cluster in O(frames) — the mode
  that answers 1000-cluster "what if" sweeps interactively.  The
  report carries expectations (``expected_values=True``, losses NaN);
  fault schedules are refused (out of the validity envelope — see the
  module docstring and README "Scaling out").

Determinism note: each cluster draws its minibatches from its own
``stream_rng`` (seeded from the scheduler RNG at registration), so the
data a cluster sees does not depend on the policy's interleaving — the
property that makes the two engines exactly comparable and makes policy
comparisons measure *scheduling*, not data-order luck.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.telemetry import (
    NULL_BUS,
    ArqRederived,
    ClusterRetired,
    ParityChosen,
    QuorumCheck,
    RoundCompleted,
    TelemetryBus,
)
from ..sim.channel import (ARQConfig, ChannelSpec, as_loss_model,
                           ideal_transmit_result)
from ..sim.coding import (
    CodingSpec,
    delivery_probability,
    expected_frames_per_delivery,
)
from ..sim.events import EventScheduler
from ..sim.faults import FaultEvent, FaultInjector, FaultSchedule
from ..wsn.clustering import select_aggregator
from ..wsn.energy import Battery, BatteryDepletedError, RadioEnergyModel
from .fleet import (
    FleetTrainer,
    fleet_compatible,
    stacking_key,
)
from .orchestrator import OrchestratedTrainer, RoundRecord, TrainingHistory
from .rounds import (
    IdealRoundLoop,
    InlineRoundExecutor,
    PickQueue,
    ScheduleReport,
    SegmentedFleetExecutor,
    contributor_batch,
    epoch_of,
    spend_round,
)

__all__ = [
    "EdgeTrainingScheduler", "ExecutionPlan",
    "ResilientOrchestrationPolicy", "ScheduledCluster", "ScheduleReport",
]

_POLICIES = ("fifo", "round_robin", "loss_priority", "deadline")
_ENGINES = ("auto", "sequential", "batched", "event", "analytic")


@dataclass
class ScheduledCluster:
    """One cluster's training session under the scheduler.

    ``positions`` (optional ``(input_dim, 2)`` device coordinates) let
    the event engine re-run the paper's proximity rule when the
    aggregator dies; ``aggregator_battery_j`` bounds the radio energy
    the aggregator can spend on backhaul traffic before the cluster
    drops out (event engine only — the ideal engines never drain it).
    """

    name: str
    trainer: OrchestratedTrainer
    data: np.ndarray
    batch_size: int = 32
    deadline_s: Optional[float] = None
    rounds_completed: int = 0
    history: TrainingHistory = None
    stream_rng: Optional[np.random.Generator] = None
    positions: Optional[np.ndarray] = None
    aggregator_battery_j: float = 1e9
    _cursor: int = 0

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.history is None:
            self.history = TrainingHistory(self.name)
        if self.stream_rng is None:
            self.stream_rng = np.random.default_rng()
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=float)
            if self.positions.shape != (self.trainer.input_dim, 2):
                raise ValueError(
                    f"positions must be ({self.trainer.input_dim}, 2), got "
                    f"{self.positions.shape}")
        self._order = np.arange(len(self.data))

    def next_batch(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Cycle minibatches; reshuffle at each epoch boundary.

        Draws from this cluster's own ``stream_rng`` by default, so the
        stream is independent of scheduling order.  Shuffling permutes an
        index vector rather than the data rows (same RNG draws, same row
        sequence, far cheaper per epoch).
        """
        rng = rng or self.stream_rng
        if self._cursor + self.batch_size > len(self.data):
            rng.shuffle(self._order)
            self._cursor = 0
        batch = self.data[self._order[self._cursor:self._cursor + self.batch_size]]
        self._cursor += self.batch_size
        return batch

    @property
    def rounds_per_epoch(self) -> int:
        return max(1, len(self.data) // self.batch_size)

    @property
    def current_loss(self) -> float:
        if not self.history.rounds:
            return float("inf")
        return self.history.rounds[-1].train_loss


@dataclass(frozen=True)
class ResilientOrchestrationPolicy:
    """How the event engine keeps training when clusters degrade.

    Parameters
    ----------
    on_aggregator_death:
        ``"replace"`` — fail over by re-running the paper's proximity
        rule (:func:`~repro.wsn.clustering.select_aggregator`) over the
        surviving devices, paying ``failover_downtime_s``;
        ``"skip"`` — retire the cluster.
    on_straggler:
        ``"wait"`` — keep scheduling a straggling cluster (its rounds
        just take ``slow_factor`` longer); ``"skip"`` — retire it once
        its slowdown reaches ``straggler_cutoff``.
    min_device_fraction:
        A cluster whose live-device fraction drops below this is
        retired (too few contributors for a meaningful partial sum).
    quorum:
        Fleet-wide rule: halt the whole run when the fraction of
        clusters still alive falls below this (0 disables).
    max_consecutive_failures:
        Retire a cluster after this many consecutive round failures
        (uplink/downlink never delivered within the ARQ budget).
    failover_downtime_s:
        Simulated seconds a cluster is unavailable while a replacement
        aggregator is elected and re-provisioned.
    adaptive_arq:
        Override the fleet-uniform retransmission budget per cluster
        from its deadline slack and battery headroom (see
        :meth:`arq_retries_for`).  Off by default: every cluster keeps
        the :class:`~repro.sim.channel.ChannelSpec`'s budget.
    arq_min_retries / arq_max_retries:
        The budget clamp adaptive ARQ moves between: deadline-tight or
        battery-poor clusters drop to ``arq_min_retries`` (each retry
        costs airtime they cannot afford), slack-rich healthy clusters
        rise to ``arq_max_retries`` (a retried frame is cheaper than a
        lost round).
    arq_slack_rich:
        Deadline-over-ideal-completion ratio above which a cluster
        counts as slack-rich (no deadline is infinitely rich).
    arq_battery_margin:
        Battery-over-ideal-radio-spend ratio below which a cluster
        conserves energy (shared by the adaptive-ARQ and adaptive-FEC
        rules: both adapt to the same headroom signal).
    recovery:
        Uplink/downlink loss-recovery strategy the scheduler stamps
        onto every cluster's channels: ``"arq"`` (default — the
        channel spec's stop-and-wait budget, exactly the pre-FEC
        behaviour), ``"fec"`` (open-loop erasure coding: ``k`` parity
        frames per message, decodable from any ``F`` of ``F+k``, no
        retransmissions) or ``"hybrid"`` (the coded burst plus
        ARQ-repair of a shortfall).  For ``fec``/``hybrid`` the parity
        budget ``k`` is derived **per cluster** from the channel's
        observed mean loss rate and the cluster's battery headroom
        (:meth:`coding_parity_for`), separately per link direction
        (each link's parity protects its own message length); the
        uplink budget is reported in
        :attr:`~repro.core.rounds.ScheduleReport.coding_budgets`.  A
        spec that already carries an explicit
        :class:`~repro.sim.coding.CodingSpec` is left untouched.
    fec_max_parity:
        Upper clamp on the adaptive parity budget ``k``.
    fec_target_residual:
        Residual message-failure probability the reliability-first rule
        provisions for: slack clusters pick the smallest ``k`` whose
        binomial failure tail is at or below this.
    """

    on_aggregator_death: str = "replace"
    on_straggler: str = "wait"
    straggler_cutoff: float = 8.0
    min_device_fraction: float = 0.5
    quorum: float = 0.0
    max_consecutive_failures: int = 8
    failover_downtime_s: float = 5.0
    adaptive_arq: bool = False
    arq_min_retries: int = 0
    arq_max_retries: int = 6
    arq_slack_rich: float = 2.0
    arq_battery_margin: float = 2.0
    recovery: str = "arq"
    fec_max_parity: int = 8
    fec_target_residual: float = 1e-2

    def __post_init__(self):
        if self.recovery not in ("arq", "fec", "hybrid"):
            raise ValueError("recovery must be 'arq', 'fec' or 'hybrid'")
        for name in ("fec_max_parity", "arq_min_retries", "arq_max_retries"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 0):
                raise ValueError(f"{name} must be an integer >= 0, "
                                 f"got {value!r}")
        if not 0.0 < self.fec_target_residual <= 1.0:
            raise ValueError("fec_target_residual must be in (0, 1]")
        if self.on_aggregator_death not in ("replace", "skip"):
            raise ValueError("on_aggregator_death must be 'replace' or 'skip'")
        if self.on_straggler not in ("wait", "skip"):
            raise ValueError("on_straggler must be 'wait' or 'skip'")
        if not 0.0 <= self.min_device_fraction <= 1.0:
            raise ValueError("min_device_fraction must be in [0, 1]")
        if not 0.0 <= self.quorum <= 1.0:
            raise ValueError("quorum must be in [0, 1]")
        if self.max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be >= 1")
        # Written as negated comparisons so that NaN fails them too.
        if not 0.0 <= self.failover_downtime_s < math.inf:
            raise ValueError(f"failover_downtime_s must be finite and >= 0, "
                             f"got {self.failover_downtime_s!r}")
        if not self.straggler_cutoff >= 1.0:
            raise ValueError(f"straggler_cutoff must be >= 1, "
                             f"got {self.straggler_cutoff!r}")
        if not self.arq_min_retries <= self.arq_max_retries:
            raise ValueError("need 0 <= arq_min_retries <= arq_max_retries")
        if not (self.arq_slack_rich >= 1.0 and self.arq_battery_margin >= 0.0):
            raise ValueError("arq_slack_rich must be >= 1 and "
                             "arq_battery_margin >= 0")

    def arq_retries_for(self, base_retries: int, deadline_slack: float,
                        battery_headroom: float) -> int:
        """Per-cluster retransmission budget from slack and battery.

        Parameters
        ----------
        base_retries:
            The fleet-uniform budget from the channel spec.
        deadline_slack:
            Cluster deadline over its ideal (uncontended, lossless)
            completion time; ``inf`` when it has no deadline.  Below 1
            the deadline is missed even without retries, so spending
            airtime on them only makes the miss worse.
        battery_headroom:
            Aggregator battery over the whole run's ideal backhaul
            radio energy; below ``arq_battery_margin`` the cluster
            cannot afford retransmission airtime.
        """
        if not self.adaptive_arq:
            return base_retries
        if battery_headroom < self.arq_battery_margin or deadline_slack < 1.0:
            return min(base_retries, self.arq_min_retries)
        if deadline_slack >= self.arq_slack_rich:
            return max(base_retries, self.arq_max_retries)
        return base_retries

    def coding_parity_for(self, data_frames: int, loss_rate: float,
                          battery_headroom: float) -> int:
        """Adaptive erasure-code redundancy ``k`` for one cluster.

        Two candidate budgets, both priced in closed form from the
        channel's observed mean frame-loss rate:

        * the **energy-optimal** ``k`` minimises expected radiated
          frames per *delivered* message, ``(F+k) / P[deliver]`` —
          more parity burns airtime every round, less parity wastes
          whole rounds (:func:`~repro.sim.coding.
          expected_frames_per_delivery`);
        * the **reliability-first** ``k`` is the smallest whose
          residual failure tail is at or below
          ``fec_target_residual``.

        Battery-poor clusters (headroom below ``arq_battery_margin``)
        take the energy-optimal budget; clusters with energy to spare
        take whichever is larger, buying failure-free rounds with
        airtime they can afford.  Ties in the energy rule break toward
        smaller ``k``.

        The budget is additionally clamped so ``data_frames + k`` never
        exceeds the GF(256) code's 256-shard limit; a message already
        fragmenting into 256+ frames cannot be coded at all and falls
        back to the uncoded path (``k = 0``).
        """
        if self.recovery == "arq":
            return 0
        max_parity = min(self.fec_max_parity, max(0, 256 - data_frames))
        if max_parity == 0:
            return 0
        candidates = range(max_parity + 1)
        energy_k = min(candidates, key=lambda k: (
            expected_frames_per_delivery(data_frames, k, loss_rate), k))
        if battery_headroom < self.arq_battery_margin:
            return energy_k
        reliability_k = next(
            (k for k in candidates
             if 1.0 - delivery_probability(data_frames, k, loss_rate)
             <= self.fec_target_residual), max_parity)
        return max(energy_k, reliability_k)


class _EventClusterState:
    """Mutable per-cluster world state under the event engine.

    Implements the :class:`repro.sim.faults.FaultTarget` protocol, so a
    :class:`~repro.sim.faults.FaultInjector` mutates it directly when
    the simulated clock reaches each scheduled fault.
    """

    def __init__(self, cluster: ScheduledCluster,
                 resilience: ResilientOrchestrationPolicy,
                 sim: EventScheduler,
                 channels: Tuple[Optional[ChannelSpec], Optional[ChannelSpec]],
                 rng: np.random.Generator,
                 backhaul_distance_m: float,
                 bus: TelemetryBus = NULL_BUS):
        self.cluster = cluster
        self.resilience = resilience
        self.sim = sim
        self.bus = bus
        trainer = cluster.trainer
        self.alive_mask = np.ones(trainer.input_dim, dtype=bool)
        self.aggregator_device = (
            int(select_aggregator(cluster.positions))
            if cluster.positions is not None else 0)
        self.slow_factor = 1.0
        self.dead = False
        self.dead_reason: Optional[str] = None
        self.consecutive_failures = 0
        self.failed_rounds = 0
        self.failovers = 0
        self.ready_at = 0.0
        self.round_end_s = 0.0
        self.battery = Battery(cluster.aggregator_battery_j)
        self.radio = RadioEnergyModel()
        self.radio_energy_j = 0.0
        self.backhaul_m = backhaul_distance_m
        up_spec, down_spec = channels
        if up_spec is not None:
            self.up_channel = up_spec.build(
                trainer.timing.up, np.random.default_rng(rng.integers(2 ** 63)))
            self.down_channel = down_spec.build(
                trainer.timing.down,
                np.random.default_rng(rng.integers(2 ** 63)))
            self.up_channel.bus = bus
            self.down_channel.bus = bus
        else:
            self.up_channel = None
            self.down_channel = None

    @property
    def num_devices(self) -> int:
        return self.alive_mask.size

    # -- transmissions -------------------------------------------------
    def transmit_up(self, payload_bytes: int):
        return self._transmit(self.up_channel, self.cluster.trainer.timing.up,
                              payload_bytes)

    def transmit_down(self, payload_bytes: int):
        return self._transmit(self.down_channel,
                              self.cluster.trainer.timing.down, payload_bytes)

    @staticmethod
    def _transmit(channel, link, payload_bytes: int):
        if channel is not None:
            return channel.transmit(payload_bytes)
        return ideal_transmit_result(link, payload_bytes)

    # -- energy --------------------------------------------------------
    def charge_backhaul(self, tx_wire_bytes: int, rx_wire_bytes: int) -> None:
        """Drain the aggregator battery for radiated + received bytes."""
        joules = (self.radio.tx_energy(tx_wire_bytes * 8, self.backhaul_m)
                  + self.radio.rx_energy(rx_wire_bytes * 8))
        self.radio_energy_j += joules
        try:
            self.battery.drain(joules)
        except BatteryDepletedError:
            self.battery.remaining_j = 0.0
            self.retire("aggregator battery depleted")

    # -- round-failure bookkeeping ------------------------------------
    def round_failed(self) -> None:
        self.failed_rounds += 1
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.resilience.max_consecutive_failures:
            self.retire("link unusable (consecutive round failures)")

    def round_succeeded(self) -> None:
        self.consecutive_failures = 0

    def end_round(self, time_s: float) -> None:
        """A round, delivered or failed, ended at ``time_s``.  A later
        failover delays :attr:`ready_at`, never :attr:`round_end_s`."""
        self.ready_at = self.round_end_s = time_s

    @property
    def device_fraction(self) -> float:
        return float(self.alive_mask.mean())

    def retire(self, reason: str) -> None:
        if not self.dead:
            self.dead = True
            self.dead_reason = reason
            if self.bus.wants(ClusterRetired.kind):
                self.bus.emit(ClusterRetired(cluster=self.cluster.name,
                                             reason=reason,
                                             time_s=self.sim.now))

    # -- FaultTarget protocol ------------------------------------------
    def kill_device(self, device: int) -> None:
        if not 0 <= device < self.alive_mask.size:
            raise IndexError(f"cluster {self.cluster.name!r} has no device "
                             f"{device}")
        self.alive_mask[device] = False
        if device == self.aggregator_device:
            self._aggregator_failover()
        if self.device_fraction < self.resilience.min_device_fraction:
            self.retire("device attrition below quorum")

    def revive_device(self, device: int) -> None:
        self.alive_mask[device] = True

    def kill_aggregator(self) -> None:
        self.kill_device(self.aggregator_device)

    def brownout(self, fraction: float) -> None:
        self.battery.remaining_j *= fraction
        if self.battery.remaining_j <= 0.0:
            self.retire("brownout drained the aggregator battery")

    def set_slow_factor(self, factor: float) -> None:
        self.slow_factor = factor
        if (self.resilience.on_straggler == "skip"
                and factor >= self.resilience.straggler_cutoff):
            self.retire("straggling beyond cutoff")

    def kill_cluster(self) -> None:
        self.retire("cluster killed by fault schedule")

    def _aggregator_failover(self) -> None:
        if self.resilience.on_aggregator_death == "skip":
            self.retire("aggregator died (policy: skip)")
            return
        alive = np.flatnonzero(self.alive_mask)
        if alive.size == 0:
            self.retire("no surviving device to promote")
            return
        if self.cluster.positions is not None:
            local = select_aggregator(self.cluster.positions[alive])
            self.aggregator_device = int(alive[local])
        else:
            self.aggregator_device = int(alive[0])
        self.failovers += 1
        # Re-election + re-provisioning keeps the cluster off the air.
        self.ready_at = max(self.ready_at, self.sim.now) \
            + self.resilience.failover_downtime_s


@dataclass(frozen=True)
class ExecutionPlan:
    """Resolved execution strategy for one scheduling run.

    Every engine choice the scheduler used to make through scattered
    boolean gates is routed through this one object, computed by
    :meth:`EdgeTrainingScheduler.execution_plan` before the run and
    introspectable by tests and experiments.

    Attributes
    ----------
    engine:
        The engine that will actually execute: ``sequential``,
        ``batched`` or ``event`` (``auto`` is resolved here).
    groups:
        Homogeneous stacking groups as tuples of cluster indices
        (registration order).  Multi-member groups run as stacked
        fleet programs; singletons execute per cluster.
    fused:
        Event engine only: fault-free/channel-safe spans pre-execute as
        fleet waves (:class:`~repro.core.rounds.SegmentedFleetExecutor`).
    traced:
        Channel randomness is pre-sampled into replayable
        :class:`~repro.sim.channel.ChannelTrace`\\ s so the planner can
        price lossy rounds (requires ``fused``).
    reason:
        Why fusion (or batching) is off — empty when it is on.  Human
        prose; when several gates block at once they are joined with
        ``"; "``.
    reasons:
        The same gates as machine-readable slugs, one per blocker —
        ``"segment-batching-disabled"``, ``"no-stackable-group"``,
        ``"loss-coupled-policy"``, ``"non-rerecordable-channel"``,
        ``"analytic-engine"`` — empty when fusion (or batching) is on.
        Tests and experiments match on these instead of parsing the
        prose.
    """

    engine: str
    groups: Tuple[Tuple[int, ...], ...] = ()
    fused: bool = False
    traced: bool = False
    reason: str = ""
    reasons: Tuple[str, ...] = ()


class EdgeTrainingScheduler:
    """Time-shares one edge server across many cluster training sessions.

    Parameters
    ----------
    policy:
        One of ``fifo``, ``round_robin``, ``loss_priority``, ``deadline``.
    rng:
        Root generator; per-cluster minibatch streams are seeded from it
        at registration.
    engine:
        ``auto`` (default), ``sequential``, ``batched`` or ``event`` —
        see the module docstring.  ``batched`` raises if the clusters
        cannot be stacked; ``auto`` silently falls back to
        ``sequential``.  Faults and unreliable channels require
        ``event``.
    fault_schedule:
        Declarative :class:`~repro.sim.faults.FaultSchedule` injected at
        simulated times (event engine only).
    resilience:
        :class:`ResilientOrchestrationPolicy` governing degraded-cluster
        decisions; defaults to replace-and-wait with no quorum.
    channels:
        :class:`~repro.sim.channel.ChannelSpec` wrapping every cluster's
        uplink and downlink in unreliable channels (event engine only;
        ``None`` keeps links ideal).  With ``resilience.adaptive_arq``
        the spec's retransmission budget becomes per-cluster.
    backhaul_distance_m:
        Modeled aggregator <-> edge distance used to price backhaul
        radio energy under the event engine.
    segment_batching:
        Event engine only: fuse fault-free segments into
        :class:`~repro.core.fleet.FleetTrainer` waves whenever the
        clusters stack and the policy is not ``loss_priority`` (see the
        module docstring).  ``False`` forces the per-round unfused loop
        — the reference the fused path is validated against.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetryBus` receiving
        structured run events (rounds, segments, faults, channel
        batches, retirements, deadline misses) and phase spans.  The
        bus never draws randomness and never perturbs accumulation
        order, so a run is bit-identical with telemetry on or off;
        ``None`` keeps every instrumented site on a no-subscriber bus
        that elides event construction entirely.
    """

    def __init__(self, policy: str = "round_robin",
                 rng: Optional[np.random.Generator] = None,
                 engine: str = "auto",
                 fault_schedule: Optional[FaultSchedule] = None,
                 resilience: Optional[ResilientOrchestrationPolicy] = None,
                 channels: Optional[ChannelSpec] = None,
                 backhaul_distance_m: float = 100.0,
                 segment_batching: bool = True,
                 telemetry: Optional[TelemetryBus] = None,
                 control=None):
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {_POLICIES}")
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        resilience = resilience or ResilientOrchestrationPolicy()
        degraded = bool(fault_schedule) or (
            channels is not None and (not channels.ideal
                                      or resilience.recovery != "arq"))
        if degraded and engine not in ("event", "analytic"):
            raise ValueError(
                "fault schedules, unreliable channels and coded recovery "
                "require engine='event' (or engine='analytic' for "
                "closed-form channel pricing); the sequential/batched "
                "engines model an ideal synchronous world")
        if engine == "analytic" and bool(fault_schedule):
            raise ValueError(
                "engine='analytic' prices rounds from closed-form channel/"
                "coding/battery math and cannot apply fault schedules; "
                "use engine='event' for fault injection")
        self.policy = policy
        self.engine = engine
        self.rng = rng or np.random.default_rng()
        self.clusters: List[ScheduledCluster] = []
        self.fault_schedule = fault_schedule or FaultSchedule()
        self.resilience = resilience
        self.channels = channels
        self.backhaul_distance_m = backhaul_distance_m
        self.segment_batching = segment_batching
        self.telemetry = telemetry
        # Optional run controller (duck-typed; see repro.serve.commands)
        # checked at every between-round boundary: pause points and
        # cancellation.  None costs one ``is not None`` per round.
        self.control = control
        # The session bus every instrumented site reads.  ``run()``
        # swaps in a tapped bus (ScheduleReport's deadline/retirement
        # fields are folded from bus events) and restores this default.
        self._bus: TelemetryBus = (telemetry if telemetry is not None
                                   else NULL_BUS)

    def add_cluster(self, name: str, trainer: OrchestratedTrainer,
                    data: np.ndarray, batch_size: int = 32,
                    deadline_s: Optional[float] = None,
                    positions: Optional[np.ndarray] = None,
                    aggregator_battery_j: float = 1e9) -> ScheduledCluster:
        """Register a cluster's training session.

        ``batch_size`` is an integer >= 1.  ``deadline_s`` may be any
        number but NaN, which has no place in the earliest-deadline-first
        order; a zero or negative deadline is already expired.
        ``aggregator_battery_j`` must be positive (not NaN).
        """
        if any(c.name == name for c in self.clusters):
            raise ValueError(f"duplicate cluster name {name!r}")
        if not (isinstance(batch_size, numbers.Integral) and batch_size >= 1):
            raise ValueError(f"batch_size must be an integer >= 1, "
                             f"got {batch_size!r}")
        if deadline_s is not None and deadline_s != deadline_s:
            raise ValueError(f"cluster {name!r} has a NaN deadline")
        if not aggregator_battery_j > 0:
            raise ValueError(f"cluster {name!r} aggregator_battery_j must be "
                             f"positive, got {aggregator_battery_j!r}")
        stream = np.random.default_rng(self.rng.integers(2 ** 63))
        cluster = ScheduledCluster(name, trainer, data, batch_size, deadline_s,
                                   stream_rng=stream, positions=positions,
                                   aggregator_battery_j=aggregator_battery_j)
        self.clusters.append(cluster)
        return cluster

    # ------------------------------------------------------------------
    def _stacking_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """Partition clusters into homogeneous stacking groups.

        Clusters sharing an architecture signature (and a viable batch
        geometry) group together; each candidate group is validated
        with :func:`~repro.core.fleet.fleet_compatible` before being
        trusted with a stacked program, falling apart into singletons
        otherwise.  A mixed fleet therefore batches group by group —
        one odd cluster no longer disables fusion for the rest.
        """
        groups: List[List[int]] = []
        group_keys: List[object] = []
        for index, cluster in enumerate(self.clusters):
            key: object = None
            if len(cluster.data) >= cluster.batch_size:
                trainer_key = stacking_key(cluster.trainer)
                if trainer_key is not None:
                    key = (cluster.batch_size, trainer_key)
            if key is not None and key in group_keys:
                groups[group_keys.index(key)].append(index)
                continue
            groups.append([index])
            # Unstackable clusters carry a unique key: never merged.
            group_keys.append(key if key is not None
                              else ("__unstackable__", index))
        validated: List[List[int]] = []
        for group in groups:
            if len(group) >= 2 and not fleet_compatible(
                    [self.clusters[k].trainer for k in group]):
                validated.extend([k] for k in group)
            else:
                validated.append(group)
        return tuple(tuple(group) for group in validated)

    def execution_plan(self) -> ExecutionPlan:
        """Resolve how the registered fleet will actually execute.

        One decision point instead of scattered boolean gates: computes
        the homogeneous stacking groups, resolves ``auto``, and decides
        whether (and how) the event engine fuses — including whether
        channel randomness must be pre-sampled into traces.
        """
        groups = self._stacking_groups()
        stackable = any(len(group) >= 2 for group in groups)
        if self.engine == "analytic":
            return ExecutionPlan(
                "analytic", groups,
                reason="closed-form ensemble pricing — no per-round "
                       "execution",
                reasons=("analytic-engine",))
        if self.engine == "event":
            blockers: List[Tuple[str, str]] = []
            if not self.segment_batching:
                blockers.append(("segment-batching-disabled",
                                 "segment batching disabled"))
            if not stackable:
                blockers.append((
                    "no-stackable-group",
                    "no homogeneous group of >= 2 clusters to stack"))
            if self.policy == "loss_priority":
                blockers.append((
                    "loss-coupled-policy",
                    "loss_priority picks depend on losses the planner "
                    "cannot foresee"))
            lossy = self.channels is not None and not self.channels.ideal
            # Coded channels must be trace-priced even when lossless:
            # parity frames radiate extra bytes and airtime the
            # planner's ideal closed forms do not know about.  The
            # resilience policy may stamp coding on per cluster, so the
            # base spec being uncoded is not enough to skip tracing.
            traced = lossy or (self.channels is not None
                               and self.resilience.recovery != "arq")
            # Adaptive budgets re-derive at fault boundaries; a traced
            # channel then re-records its remaining horizon, which
            # requires a rewindable draw stream: a block-samplable loss
            # model on the vectorized path.  Channels that cannot rewind
            # (``vectorize=False``, or a loss model make_loss_sampler
            # refuses) keep the unfused loop — the only remaining
            # fault/loss coupling gate.
            rederives = bool(self.fault_schedule) and self._adapts_budgets()
            if rederives and traced and not self.channels.rerecordable:
                blockers.append((
                    "non-rerecordable-channel",
                    "budget re-derivation at fault boundaries needs a "
                    "re-recordable draw stream (scalar-path channels "
                    "cannot rewind)"))
            if blockers:
                return ExecutionPlan(
                    "event", groups,
                    reason="; ".join(human for _, human in blockers),
                    reasons=tuple(slug for slug, _ in blockers))
            return ExecutionPlan("event", groups, fused=True, traced=traced)
        if self.engine == "batched":
            # Mixed fleets batch group by group, exactly like ``auto``
            # — the strict one-homogeneous-fleet contract is gone;
            # singleton groups (odd architectures, short data) step
            # their own trainer per round inside the same replay.
            return ExecutionPlan("batched", groups)
        if self.engine == "auto" and stackable:
            return ExecutionPlan("batched", groups)
        if self.engine == "sequential":
            return ExecutionPlan("sequential", groups)
        return ExecutionPlan(
            "sequential", groups,
            reason="no homogeneous group of >= 2 clusters to stack",
            reasons=("no-stackable-group",))

    def run(self, rounds_per_cluster: int = 50) -> ScheduleReport:
        """Execute training until every cluster has its round budget.

        Returns a report with edge-busy time, makespan, final losses and
        per-round scheduled completion times.  The makespan model: the
        edge serialises its decode work, while each cluster's
        aggregator-side compute + transfers overlap with other clusters'
        work.  Both engines produce identical reports (modulo
        floating-point reduction noise in the losses).
        ``rounds_per_cluster`` is an integer >= 1.
        """
        if not self.clusters:
            raise RuntimeError("no clusters registered")
        if not (isinstance(rounds_per_cluster, numbers.Integral)
                and rounds_per_cluster >= 1):
            raise ValueError(f"rounds_per_cluster must be an integer >= 1, "
                             f"got {rounds_per_cluster!r}")
        plan = self.execution_plan()
        if plan.engine == "analytic":
            # Lazy import: repro.scale imports core, so the gate must
            # not close the cycle at module load.
            from ..scale.analytic import run_analytic
            return run_analytic(self, rounds_per_cluster)
        if plan.engine == "event":
            return self._run_event(rounds_per_cluster, plan)
        if plan.engine == "batched":
            records = self._execute_batched(rounds_per_cluster, plan.groups)
            return self._replay_policy(rounds_per_cluster, records,
                                       engine="batched")
        return self._run_sequential(rounds_per_cluster)

    # ------------------------------------------------------------------
    # Sequential engine: the shared ideal loop, rounds stepped inline
    # ------------------------------------------------------------------
    def _run_sequential(self, rounds_per_cluster: int) -> ScheduleReport:
        loop = IdealRoundLoop(self.clusters, rounds_per_cluster, self.policy,
                              bus=self._bus, control=self.control)

        def live_round(cluster: ScheduledCluster) -> RoundRecord:
            batch = contributor_batch(cluster)
            return cluster.trainer.step(
                batch, epoch=epoch_of(cluster, cluster.rounds_completed))

        loop.run(live_round)
        return loop.report(self.policy, "sequential")

    # ------------------------------------------------------------------
    # Event engine: asynchronous rounds on the discrete-event kernel
    # ------------------------------------------------------------------
    def _adapts_budgets(self) -> bool:
        """Whether this run derives per-cluster channel budgets: adaptive
        ARQ, or adaptive erasure coding over an uncoded fleet spec."""
        policy = self.resilience
        return self.channels is not None and (
            policy.adaptive_arq
            or (policy.recovery in ("fec", "hybrid")
                and self.channels.coding is None))

    def _derive_budgets(self, cluster: ScheduledCluster, battery_j: float,
                        remaining: int, now: float
                        ) -> Tuple[int, Optional[Tuple[float, int, int]]]:
        """One cluster's channel budgets for its ``remaining`` rounds.

        Returns the ARQ retry budget and, when the run codes adaptively,
        ``(loss_rate, uplink_parity, downlink_parity)`` (else ``None``).
        Battery headroom is ``battery_j`` over the remaining rounds'
        ideal backhaul radio energy; deadline slack is the deadline left
        after ``now`` over the remaining rounds' ideal (uncontended)
        time (:meth:`ResilientOrchestrationPolicy.arq_retries_for`).  The
        parity budget ``k`` protects whole messages, so it is derived
        **per link direction** from that direction's own frame count (a
        25-frame reconstruction downlink needs more parity than a
        4-frame latent uplink), the spec's mean loss rate and the
        headroom (:meth:`ResilientOrchestrationPolicy.coding_parity_for`).
        Run start is ``now = 0`` with the full battery and round budget.
        """
        spec, policy = self.channels, self.resilience
        costs = cluster.trainer.round_costs(cluster.batch_size)
        radio = RadioEnergyModel()
        round_j = (radio.tx_energy(costs.up_wire_bytes * 8,
                                   self.backhaul_distance_m)
                   + radio.rx_energy(costs.down_wire_bytes * 8))
        headroom = battery_j / (round_j * remaining)
        retries = spec.arq.max_retries
        if policy.adaptive_arq:
            slack = (float("inf") if cluster.deadline_s is None
                     else (cluster.deadline_s - now)
                     / (costs.timing.total_s * remaining))
            retries = policy.arq_retries_for(retries, slack, headroom)
        if policy.recovery == "arq" or spec.coding is not None:
            return retries, None
        model = as_loss_model(spec.loss() if callable(spec.loss)
                              else spec.loss)
        rate = model.mean_loss_rate if model is not None else 0.0
        timing = cluster.trainer.timing
        return retries, (
            rate,
            policy.coding_parity_for(timing.up.frames_for(costs.up_bytes),
                                     rate, headroom),
            policy.coding_parity_for(
                timing.down.frames_for(costs.down_bytes), rate, headroom))

    def _channel_specs_for(self, cluster: ScheduledCluster,
                           rounds_per_cluster: int
                           ) -> Tuple[Optional[ChannelSpec],
                                      Optional[ChannelSpec]]:
        """The cluster's (uplink, downlink) recipes with adaptive budgets.

        With ``resilience.adaptive_arq`` the fleet-uniform spec's retry
        budget is overridden per cluster; with ``resilience.recovery``
        of ``"fec"``/``"hybrid"`` an erasure-coding recipe is stamped on
        per link direction (:meth:`_derive_budgets` at ``now = 0``).  A
        spec already carrying explicit coding keeps it on both links.
        """
        spec = self.channels
        if not self._adapts_budgets():
            return spec, spec
        retries, coding = self._derive_budgets(
            cluster, cluster.aggregator_battery_j, rounds_per_cluster, 0.0)
        if retries != spec.arq.max_retries:
            spec = spec.with_arq(ARQConfig(
                max_retries=retries, ack_timeout_s=spec.arq.ack_timeout_s))
        if coding is None:
            return spec, spec
        rate, up_parity, down_parity = coding
        hybrid = self.resilience.recovery == "hybrid"
        if self._bus.wants(ParityChosen.kind):
            for direction, parity in (("up", up_parity),
                                      ("down", down_parity)):
                self._bus.emit(ParityChosen(
                    cluster=cluster.name, direction=direction,
                    parity=parity, loss_rate=rate,
                    headroom_j=cluster.aggregator_battery_j))
        return (spec.with_coding(CodingSpec(up_parity, hybrid)),
                spec.with_coding(CodingSpec(down_parity, hybrid)))

    def _record_channel_traces(self, states: Dict[str, "_EventClusterState"],
                               rounds_per_cluster: int) -> None:
        """Pre-sample every channel's horizon of transmit outcomes.

        Each channel records ``rounds_per_cluster`` fixed-payload
        transmits from its own RNG stream and then replays them — bit
        -identical to the live draws under the same seed, since a
        channel's draw sequence never depends on the simulated clock.
        A channel is consulted at most once per round (failed uplinks
        skip the downlink), so surplus entries simply go unused.

        Recording runs on the channels' vectorized batch kernel and
        keeps the whole horizon in one
        :class:`~repro.sim.channel.ChannelTrace` per channel.
        """
        with self._bus.span("trace_record"):
            for cluster in self.clusters:
                state = states[cluster.name]
                if state.up_channel is None:
                    continue
                costs = cluster.trainer.round_costs(cluster.batch_size)
                state.up_channel.replay(state.up_channel.record_trace(
                    costs.up_bytes, rounds_per_cluster))
                state.down_channel.replay(state.down_channel.record_trace(
                    costs.down_bytes, rounds_per_cluster))

    def _budget_rederiver(self, states: Dict[str, "_EventClusterState"],
                          budget: Dict[str, int], sim: EventScheduler):
        """Per-fault budget re-derivation hook (adaptive ARQ + FEC).

        Run-start budgets price each cluster's *initial* deadline slack
        and battery headroom; a brownout, failover or straggler changes
        both.  This callback re-runs :meth:`_derive_budgets` with the
        cluster's *remaining* rounds, remaining deadline and current
        battery at every fault application and swaps the channel's
        budgets in place.  A channel whose budget changed then
        **re-records** the remaining horizon of its trace from the
        cursor's resume point
        (:meth:`~repro.sim.channel.UnreliableChannel.rerecord_trace`),
        so fused planning keeps pricing past the fault boundary from
        the exact draw stream a live run would consume.
        """
        by_name = {c.name: c for c in self.clusters}
        policy = self.resilience
        hybrid = policy.recovery == "hybrid"

        def rederive(event: FaultEvent) -> None:
            cluster = by_name.get(event.cluster)
            state = states.get(event.cluster)
            if cluster is None or state is None or state.up_channel is None:
                return
            remaining = budget[event.cluster]
            if state.dead or remaining <= 0:
                return
            retries, coding = self._derive_budgets(
                cluster, state.battery.remaining_j, remaining, sim.now)
            channels = (("up", state.up_channel),
                        ("down", state.down_channel))
            changed = set()
            if policy.adaptive_arq:
                for direction, channel in channels:
                    if channel.arq.max_retries != retries:
                        if self._bus.wants(ArqRederived.kind):
                            self._bus.emit(ArqRederived(
                                cluster=event.cluster, direction=direction,
                                old_retries=channel.arq.max_retries,
                                new_retries=retries, time_s=sim.now))
                        channel.set_arq(ARQConfig(
                            max_retries=retries,
                            ack_timeout_s=channel.arq.ack_timeout_s))
                        changed.add(direction)
            if coding is not None:
                rate, *parities = coding
                for (direction, channel), parity in zip(channels, parities):
                    current = (channel.coding.parity_frames
                               if channel.coding is not None else 0)
                    if parity != current:
                        if self._bus.wants(ParityChosen.kind):
                            self._bus.emit(ParityChosen(
                                cluster=event.cluster, direction=direction,
                                parity=parity, loss_rate=rate,
                                headroom_j=state.battery.remaining_j))
                        channel.set_coding(CodingSpec(parity, hybrid))
                        changed.add(direction)
            for direction, channel in channels:
                if direction in changed:
                    channel.rerecord_trace()

        return rederive

    def _run_event(self, rounds_per_cluster: int,
                   plan: ExecutionPlan) -> ScheduleReport:
        """Drive training on the :mod:`repro.sim.events` kernel.

        The edge server is one simulated process; fault injections are
        independent events interleaved by the kernel at their scheduled
        times.  Clock bookkeeping mirrors :meth:`_run_sequential`'s
        arithmetic exactly (an exact ``edge_clock`` mirror is kept
        alongside the kernel clock, so the zero-fault run is bit-equal,
        not merely close) while degraded rounds stretch, fail or retire
        clusters per the resilience policy.  The training math itself is
        produced by a :mod:`repro.core.rounds` executor — per-cluster
        steps, or segment-batched fleet waves as the
        :class:`ExecutionPlan` dictates.
        """
        # The session bus: the user's (when given) or a private one —
        # real either way, because the report's ``retirement_reasons``
        # are folded from ClusterRetired bus events by the tap below.
        # Hot-path kinds stay unsubscribed on a private bus, so their
        # event construction is still elided.
        bus = self.telemetry if self.telemetry is not None else TelemetryBus()
        retirement_reasons: Dict[str, int] = {}

        def _count_retired(event) -> None:
            retirement_reasons[event.reason] = (
                retirement_reasons.get(event.reason, 0) + 1)

        unsubscribe = bus.subscribe(_count_retired,
                                    kinds=(ClusterRetired.kind,))
        self._bus = bus
        try:
            return self._run_event_session(
                rounds_per_cluster, plan, bus, retirement_reasons)
        finally:
            unsubscribe()
            self._bus = (self.telemetry if self.telemetry is not None
                         else NULL_BUS)

    def _run_event_session(self, rounds_per_cluster: int,
                           plan: ExecutionPlan, bus: TelemetryBus,
                           retirement_reasons: Dict[str, int]
                           ) -> ScheduleReport:
        sim = EventScheduler()
        states: Dict[str, _EventClusterState] = {
            c.name: _EventClusterState(
                c, self.resilience, sim,
                self._channel_specs_for(c, rounds_per_cluster),
                self.rng, self.backhaul_distance_m, bus=bus)
            for c in self.clusters}
        if plan.traced:
            self._record_channel_traces(states, rounds_per_cluster)
        injector = FaultInjector(self.fault_schedule, states, bus=bus)
        budget = {c.name: rounds_per_cluster for c in self.clusters}
        if self._adapts_budgets():
            injector.on_applied = self._budget_rederiver(states, budget, sim)
        injector.arm(sim)

        completion: Dict[str, List[float]] = {c.name: [] for c in self.clusters}
        misses: List[str] = []
        miss_rounds: Dict[str, int] = {}
        edge_busy = [0.0]
        edge_clock = [0.0]       # exact mirror of the sequential arithmetic
        halted = [False]
        control = self.control
        if plan.fused:
            executor = SegmentedFleetExecutor(
                self.clusters, states, injector, budget, edge_clock,
                self.policy, self.resilience, groups=plan.groups, bus=bus,
                command_gate=(control.has_pending
                              if control is not None else None))
        else:
            executor = InlineRoundExecutor()
        picks = PickQueue(self.policy, self.clusters)
        by_index = [(c, states[c.name]) for c in self.clusters]
        quorum = self.resilience.quorum
        total = len(self.clusters)

        def pending(index: int) -> bool:
            cluster, state = by_index[index]
            return not state.dead and budget[cluster.name] > 0

        def edge_process():
            while True:
                # Between-round control checkpoint: the safe boundary
                # where pause blocks and a cancel stops the run once the
                # executor has zero pre-executed rounds outstanding.
                if (control is not None
                        and not control.checkpoint(executor.outstanding())):
                    break
                if quorum > 0.0:
                    alive = sum(not s.dead for s in states.values())
                    halt = alive / total < quorum
                    if bus.wants(QuorumCheck.kind):
                        bus.emit(QuorumCheck(
                            alive=alive, total=total,
                            quorum=quorum, halted=halt, time_s=sim.now))
                    if halt:
                        halted[0] = True
                        break
                index = picks.pick(pending)
                if index is None:
                    break
                cluster, state = by_index[index]
                start = max(edge_clock[0], state.ready_at)
                if start > sim.now:
                    yield start - sim.now
                    # Faults may have fired while the edge waited.
                    if state.dead:
                        continue
                    if state.ready_at > start + 1e-9:
                        continue   # failover downtime pushed it back out
                trainer = cluster.trainer
                costs = trainer.round_costs(cluster.batch_size)
                timing = costs.timing
                agg_s = timing.aggregator_compute_s * state.slow_factor

                up = state.transmit_up(costs.up_bytes)
                if not up.delivered:
                    # ARQ budget exhausted: the round is lost before the
                    # edge ever sees it.  Time and energy are spent.
                    trainer.ledger.record(0, -1, 0, up.wire_bytes,
                                          "latent_uplink_failed",
                                          up.elapsed_s, up.attempts, False)
                    executor.charge_failure(cluster, agg_s + up.elapsed_s)
                    state.charge_backhaul(up.wire_bytes, 0)
                    state.round_failed()
                    state.end_round(start + agg_s + up.elapsed_s)
                    spend_round(budget, misses, cluster, state.ready_at,
                                miss_rounds, bus)
                    if bus.wants(RoundCompleted.kind):
                        bus.emit(RoundCompleted(
                            cluster=cluster.name,
                            round=cluster.rounds_completed,
                            delivered=False, loss=None,
                            time_s=state.ready_at,
                            battery_j=state.battery.remaining_j,
                            radio_energy_j=state.radio_energy_j))
                    continue

                down = state.transmit_down(costs.down_bytes)
                edge_clock[0] = start + timing.edge_compute_s
                edge_busy[0] += timing.edge_compute_s
                yield timing.edge_compute_s

                if not down.delivered:
                    # Edge decoded, but reconstructions/gradients never
                    # reached the aggregator: no update on either side.
                    trainer.ledger.record(-1, 0, 0, down.wire_bytes,
                                          "recon_downlink_failed",
                                          down.elapsed_s, down.attempts,
                                          False)
                    executor.charge_failure(
                        cluster, agg_s + up.elapsed_s
                        + timing.edge_compute_s + down.elapsed_s)
                    state.charge_backhaul(up.wire_bytes,
                                          down.received_wire_bytes)
                    state.round_failed()
                    state.end_round(edge_clock[0] + agg_s + up.elapsed_s
                                    + down.elapsed_s)
                    spend_round(budget, misses, cluster, state.ready_at,
                                miss_rounds, bus)
                    if bus.wants(RoundCompleted.kind):
                        bus.emit(RoundCompleted(
                            cluster=cluster.name,
                            round=cluster.rounds_completed,
                            delivered=False, loss=None,
                            time_s=state.ready_at,
                            battery_j=state.battery.remaining_j,
                            radio_energy_j=state.radio_energy_j))
                    continue

                # Stragglers and retransmissions stretch the modeled
                # round beyond the ideal accounting step() charges; the
                # executor folds the stretch into the round it produces.
                extra = ((agg_s - timing.aggregator_compute_s)
                         + (up.elapsed_s - timing.uplink_s)
                         + (down.elapsed_s - timing.downlink_s))
                record = executor.execute(cluster, state, agg_s, extra)
                # The k overhead frames of an erasure-coded transfer
                # are ledgered apart from retransmissions: parity is a
                # fixed open-loop cost, retransmission a reactive one.
                if up.fec_wire_bytes > 0:
                    trainer.ledger.record(0, -1, 0, up.fec_wire_bytes,
                                          "latent_uplink_fec",
                                          up.fec_time_s, up.parity_frames,
                                          True)
                retx_up = up.wire_bytes - costs.up_wire_bytes \
                    - up.fec_wire_bytes
                if retx_up > 0:
                    trainer.ledger.record(0, -1, 0, retx_up,
                                          "latent_uplink_retx",
                                          up.elapsed_s - timing.uplink_s
                                          - up.fec_time_s,
                                          up.retransmissions, True)
                if down.fec_wire_bytes > 0:
                    trainer.ledger.record(-1, 0, 0, down.fec_wire_bytes,
                                          "recon_downlink_fec",
                                          down.fec_time_s,
                                          down.parity_frames, True)
                retx_down = down.wire_bytes - costs.down_wire_bytes \
                    - down.fec_wire_bytes
                if retx_down > 0:
                    trainer.ledger.record(-1, 0, 0, retx_down,
                                          "recon_downlink_retx",
                                          down.elapsed_s - timing.downlink_s
                                          - down.fec_time_s,
                                          down.retransmissions, True)
                state.charge_backhaul(up.wire_bytes, down.received_wire_bytes)
                state.round_succeeded()
                state.end_round(edge_clock[0] + agg_s + up.elapsed_s
                                + down.elapsed_s)
                completion[cluster.name].append(state.ready_at)
                cluster.history.rounds.append(record)
                cluster.rounds_completed += 1
                spend_round(budget, misses, cluster, state.ready_at,
                            miss_rounds, bus)
                if bus.wants(RoundCompleted.kind):
                    bus.emit(RoundCompleted(
                        cluster=cluster.name,
                        round=cluster.rounds_completed,
                        delivered=True, loss=record.train_loss,
                        time_s=state.ready_at,
                        battery_j=state.battery.remaining_j,
                        radio_energy_j=state.radio_energy_j))
            # Training is over, whether budgets ran out, the quorum
            # halted the run or a cancel stopped it: faults inside the
            # last rounds' link tails still fire, later ones never do.
            injector.disarm_after(
                max(s.round_end_s for s in states.values()))

        sim.process(edge_process())
        sim.run()
        executor.finalize()

        return ScheduleReport(
            policy=self.policy,
            total_edge_time_s=edge_busy[0],
            makespan_s=max(states[c.name].round_end_s
                           for c in self.clusters),
            rounds_per_cluster={c.name: c.rounds_completed
                                for c in self.clusters},
            final_loss_per_cluster={c.name: c.current_loss
                                    for c in self.clusters},
            deadline_misses=misses,
            deadline_miss_rounds=miss_rounds,
            retirement_reasons=retirement_reasons,
            engine="event",
            completion_times=completion,
            failed_rounds={name: st.failed_rounds
                           for name, st in states.items() if st.failed_rounds},
            dead_clusters={name: st.dead_reason
                           for name, st in states.items() if st.dead},
            energy_j={name: st.radio_energy_j
                      for name, st in states.items()},
            halted=halted[0],
            faults_applied=len(injector.applied),
            fused_rounds=executor.fused_rounds,
            segments=executor.segments,
            arq_budgets={name: st.up_channel.arq.max_retries
                         for name, st in states.items()
                         if st.up_channel is not None},
            coding_budgets={name: st.up_channel.coding.parity_frames
                            for name, st in states.items()
                            if st.up_channel is not None
                            and st.up_channel.coding is not None},
        )

    # ------------------------------------------------------------------
    # Batched engine: fleet-execute every round, then replay the policy
    # ------------------------------------------------------------------
    def _execute_batched(self, rounds_per_cluster: int,
                         groups: Tuple[Tuple[int, ...], ...]
                         ) -> List[List[RoundRecord]]:
        """Run all clusters' rounds up front, stacked group by group.

        Valid because trajectories are schedule-independent: a cluster's
        round ``r`` uses only its own weights, noise RNG and data stream.
        Each multi-member homogeneous group runs as one
        :class:`~repro.core.fleet.FleetTrainer` wave program; singleton
        groups (the unstackable rest of a mixed fleet) step their own
        trainer per round.  Returns ``records[k][r]`` for cluster ``k``,
        round ``r``.
        """
        records: List[List[RoundRecord]] = [[] for _ in self.clusters]
        for members in groups:
            if len(members) == 1:
                cluster = self.clusters[members[0]]
                rpe = cluster.rounds_per_epoch
                for round_index in range(rounds_per_cluster):
                    records[members[0]].append(cluster.trainer.step(
                        cluster.next_batch(), epoch=round_index // rpe + 1))
                continue
            group = [self.clusters[k] for k in members]
            fleet = FleetTrainer([c.trainer for c in group])
            batch_size = group[0].batch_size
            # One wave buffer, reused across rounds: every tensor the
            # wave's autograd graph retains is derived from (not
            # aliased to) it.
            wave = np.empty((len(group), batch_size, fleet.input_dim))
            rounds_per_epoch = [c.rounds_per_epoch for c in group]
            for round_index in range(rounds_per_cluster):
                for row, cluster in enumerate(group):
                    wave[row] = cluster.next_batch()
                epochs = [round_index // rpe + 1 for rpe in rounds_per_epoch]
                for row, record in enumerate(fleet.step(wave, epochs=epochs)):
                    records[members[row]].append(record)
            fleet.sync_to_trainers()
        return records

    def _replay_policy(self, rounds_per_cluster: int,
                       records: List[List[RoundRecord]],
                       engine: str) -> ScheduleReport:
        """Reproduce the sequential clock arithmetic over executed rounds.

        The policy still decides the order in which the shared edge
        serves clusters — identical picks to the sequential loop, since
        ``current_loss`` evolves from the same trajectories — but each
        "round" is now just the shared loop's clock-and-ledger
        bookkeeping over a pre-executed record.
        """
        index_of = {c.name: k for k, c in enumerate(self.clusters)}
        loop = IdealRoundLoop(self.clusters, rounds_per_cluster, self.policy,
                              bus=self._bus, control=self.control)
        loop.run(lambda c: records[index_of[c.name]][c.rounds_completed])
        return loop.report(self.policy, engine)
