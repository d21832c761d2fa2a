"""The unified round-execution pipeline behind every scheduler engine.

Every execution engine of :class:`~repro.core.scheduler.
EdgeTrainingScheduler` ultimately runs the same per-round lifecycle:

1. **select contributors** — draw the cluster's next minibatch from its
   own stream RNG and mask out dead devices (partial-sum semantics of
   the hybrid encode);
2. **run the training step** — one orchestrated round of tensor math,
   alone (:meth:`~repro.core.orchestrator.OrchestratedTrainer.step`) or
   stacked across clusters (:meth:`~repro.core.fleet.FleetTrainer.step`);
3. **account** — charge the modeled clock, transmission ledger and (in
   the unreliable world) the aggregator battery;
4. **apply policy** — settle the shared edge clock, spend the round
   budget and check the deadline.

Before this module those four steps were written three times — in the
sequential loop, in the batched replay and inside the event engine's
kernel process.  They now live here once:

* :class:`IdealRoundLoop` is the ideal-world clock arithmetic (edge
  compute serialises, aggregator pipelines overlap) that both the
  sequential engine and the batched replay drive, differing only in
  where each round's :class:`~repro.core.orchestrator.RoundRecord`
  comes from (a live ``trainer.step`` vs a pre-executed fleet wave);
* :func:`contributor_batch` / :func:`epoch_of` / :func:`stretch_record`
  / :func:`spend_round` are the lifecycle pieces the event engine's
  kernel process shares with the ideal loop;
* :class:`InlineRoundExecutor` and :class:`SegmentedFleetExecutor` are
  the event engine's two ways of producing step 2: per-cluster autograd
  passes, or **segment batching** — between consecutive scheduled fault
  times the surviving clusters' rounds are pre-executed as
  :class:`~repro.core.fleet.FleetTrainer` stacked programs (one per
  homogeneous cluster group) and replayed into the kernel's clock,
  ledger and per-cluster RNG streams.

Segment batching correctness
----------------------------
The fused executor may pre-execute a round only if *nothing that feeds
its math can still change* before the kernel reaches it.  A round's math
inputs are its cluster's weights (previous round), minibatch stream,
noise RNG and alive-device mask; the first three evolve per cluster in
round order regardless of scheduling, so the only hazard is the mask —
which changes exactly at fault times.  The kernel fires a fault armed at
``t`` before resuming the edge process at any time ``>= t`` (FIFO
tie-breaking, faults armed first), so a round whose edge compute
finishes at ``f`` sees exactly the faults with ``time_s <= f``.  Hence
the planning rule: pre-execute a round iff ``f`` lies *strictly before*
the next unfired fault (:meth:`~repro.sim.faults.FaultInjector.
horizon`).  :meth:`SegmentedFleetExecutor._plan_segment` replays the
edge process's arithmetic — same picks, same floats — up to that
boundary, stopping early on battery retirement and quorum halts.
Rounds at or past the boundary fall back to per-cluster execution (a
one-cluster wave) at their true kernel time, after the fault has been
applied.

Channel randomness is folded into the same rule by making it a
*replayable input*: the scheduler pre-samples each unreliable channel's
whole horizon of transmit outcomes into
:class:`~repro.sim.channel.ChannelTrace`\\ s (bit-identical to the live
draws under the same seed, because a channel's draw sequence depends
only on its own RNG, never on the simulated clock) and the planner
reads delivered verdicts, attempts, retransmission wire bytes and
elapsed stretches straight from the traces.  Erasure-coded channels
(:mod:`repro.sim.coding` — FEC parity frames, hybrid ARQ repair) need
no special handling: a coded transmission is deterministic given its
trace entry, so coded lossy runs fuse under exactly the same contract.
When a fault re-derives a channel's ARQ or parity budget, its trace
re-records the unconsumed horizon by rewinding the block sampler's
verdict stream; a channel on the scalar per-frame path cannot rewind,
so that one combination runs unfused.  A lossy round is therefore
plan-time computable: failed rounds are walked through exactly as the
kernel will process them inline (budget burned, battery charged,
failure streaks advanced, no training update), and successful rounds
carry their planner-priced clock stretch into the wave.  The one policy
the planner cannot mirror is the loss-coupled ``loss_priority``: its
picks depend on losses no plan can foresee, so its event runs take the
unfused loop (:class:`InlineRoundExecutor`).

A fused run — fault-only, lossy-but-faultless, or lossy-with-faults —
therefore reproduces the unfused engine's modeled clock, transmission
ledger, delivered/attempt counts, report and fault audit trail
bit-for-bit, and its per-cluster losses to
stacked-vs-solo GEMM reduction noise (<= 1e-9 observed; the repo-wide
equivalence budget is 1e-6) — asserted in ``tests/test_core_rounds.py``
and ``benchmarks/bench_resilience.py``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs.telemetry import (NULL_BUS, DeadlineMissed, RoundCompleted,
                             SegmentFused)
from ..sim.channel import TransmitResult, ideal_transmit_result
from .fleet import FleetTrainer
from .orchestrator import RoundRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guards (typing only)
    from ..obs.telemetry import TelemetryBus
    from ..sim.faults import FaultInjector
    from .scheduler import ScheduledCluster

__all__ = [
    "ScheduleReport", "IdealRoundLoop", "InlineRoundExecutor", "PickQueue",
    "SegmentedFleetExecutor", "contributor_batch", "deadline_key",
    "epoch_of", "loss_rank", "spend_round", "stretch_record",
]


# ----------------------------------------------------------------------
# Policy pick rules — the single definition every engine and the
# segment planner share.  The fused engine's exactness contract depends
# on identical picks (ties included), so there is exactly one copy of
# these keys.
# ----------------------------------------------------------------------
def deadline_key(cluster: "ScheduledCluster"):
    """Earliest-deadline-first sort key; deadline-less clusters last."""
    return (cluster.deadline_s is None, cluster.deadline_s or 0.0)


def loss_rank(loss: float) -> float:
    """``loss_priority``'s key: the negated loss, so the highest loss
    sorts first.  A NaN loss (a diverged cluster, which no round can
    improve) ranks like ``-inf``: after every other loss."""
    return -loss if loss == loss else math.inf


class PickQueue:
    """The shared edge's next pick, kept as a heap instead of a scan.

    Holds ``(policy key, registration index)`` entries for a fleet's
    clusters.  The keys are ``fifo``: the index; ``round_robin``: rounds
    completed; ``deadline``: :func:`deadline_key`; ``loss_priority``:
    :func:`loss_rank` of the latest loss.  Ties go to the lowest
    registration index, which is what ``min``/``max`` over the pending
    clusters in registration order would give, so :meth:`pick` returns
    exactly the cluster a scan of the pending ones would.

    A cluster's key changes only when it is served, so :meth:`pick`
    re-queues the *previous* pick under its current key before popping
    the next one; that covers every way a caller can leave a pick,
    served or not.  Entries of clusters that are no longer pending (dead
    or out of budget, as ``pending(index)`` reports) are dropped when
    they surface; neither state ever reverts.

    ``rounds_completed(index)`` says where round counts live (the
    clusters by default, or the segment planner's shadow cursors).
    """

    __slots__ = ("policy", "clusters", "rounds_completed", "_heap", "_held")

    def __init__(self, policy: str, clusters: Sequence["ScheduledCluster"],
                 rounds_completed: Optional[Callable[[int], int]] = None
                 ) -> None:
        self.policy = policy
        self.clusters = clusters
        self.rounds_completed = rounds_completed or (
            lambda index: clusters[index].rounds_completed)
        self._heap = [(self.key(index), index)
                      for index in range(len(clusters))]
        heapq.heapify(self._heap)
        self._held: Optional[int] = None

    def key(self, index: int):
        policy = self.policy
        if policy == "round_robin":
            return self.rounds_completed(index)
        if policy == "fifo":
            return index
        if policy == "deadline":
            return deadline_key(self.clusters[index])
        return loss_rank(self.clusters[index].current_loss)

    def pick(self, pending: Callable[[int], bool]) -> Optional[int]:
        """Registration index of the next cluster to serve, or None."""
        heap = self._heap
        held, self._held = self._held, None
        if held is not None:
            # Re-queue the previous pick and pop the head in one sift.
            index = heapq.heappushpop(heap, (self.key(held), held))[1]
            if pending(index):
                self._held = index
                return index
        while heap:
            index = heapq.heappop(heap)[1]
            if pending(index):
                self._held = index
                return index
        return None


# ----------------------------------------------------------------------
# Lifecycle pieces shared by every engine
# ----------------------------------------------------------------------
def contributor_batch(cluster: "ScheduledCluster",
                      alive_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Step 1: draw the next minibatch and mask dead contributors.

    Dead devices contribute nothing: the aggregator's stacked vector X
    is masked (partial-sum semantics of the hybrid encode with missing
    contributors).  Draws from the cluster's own ``stream_rng``, so the
    stream is independent of which engine executes the round and when.
    """
    batch = cluster.next_batch()
    if alive_mask is not None and not alive_mask.all():
        batch = batch * alive_mask
    return batch


def epoch_of(cluster: "ScheduledCluster", round_index: int) -> int:
    """Epoch label of a cluster's 0-based ``round_index``."""
    return round_index // cluster.rounds_per_epoch + 1


def stretch_record(trainer, record: RoundRecord,
                   extra_s: float) -> RoundRecord:
    """Stretch a round beyond the ideal accounting ``step()`` charged.

    Stragglers and retransmissions lengthen the modeled round; the ideal
    engines always pass ``extra_s == 0.0``.
    """
    if extra_s != 0.0:
        trainer.clock_s += extra_s
        record.time_s += extra_s
    return record


def spend_round(budget: Dict[str, int], misses: List[str],
                cluster: "ScheduledCluster", finish_s: float,
                miss_rounds: Optional[Dict[str, int]] = None,
                bus: "TelemetryBus" = NULL_BUS) -> None:
    """Step 4 tail: consume one budget slot and settle the deadline.

    The verdict fires on whichever path exhausts the budget — under the
    event engine failed rounds burn budget too, so this must run on the
    failure paths as well (the ideal engines have no failure paths, so
    their single call site is equivalent).

    ``miss_rounds`` (when passed) additionally records the *first*
    round each cluster finished past its deadline — any round, not just
    the budget-exhausting one, so clusters that retire early still
    report when they went late.  That first-late verdict also emits a
    :class:`~repro.obs.telemetry.DeadlineMissed` event on ``bus``; the
    existing ``misses`` semantics (final round late) are untouched.
    """
    budget[cluster.name] -= 1
    if cluster.deadline_s is None or finish_s <= cluster.deadline_s:
        return
    if miss_rounds is not None and cluster.name not in miss_rounds:
        miss_rounds[cluster.name] = cluster.rounds_completed
        if bus.wants(DeadlineMissed.kind):
            bus.emit(DeadlineMissed(cluster=cluster.name,
                                    round=cluster.rounds_completed,
                                    finish_s=finish_s,
                                    deadline_s=cluster.deadline_s))
    if budget[cluster.name] == 0 and cluster.name not in misses:
        misses.append(cluster.name)


# ----------------------------------------------------------------------
# Run outcome
# ----------------------------------------------------------------------
@dataclass
class ScheduleReport:
    """Outcome of one scheduling run.

    ``completion_times`` maps each cluster to the *scheduled* (edge-
    contended) clock at which each of its rounds finished — the fairness
    signal policies differ on, since per-cluster trajectories themselves
    are schedule-independent.  ``makespan_s`` is the end of the last
    round any cluster ran, delivered or failed.

    The event engine additionally fills the resilience fields:
    ``failed_rounds`` (rounds whose transfers exhausted their ARQ
    budget), ``dead_clusters`` (name -> reason it left the fleet),
    ``energy_j`` (aggregator backhaul radio energy actually drained)
    and ``halted`` (the quorum rule stopped the run early).
    ``fused_rounds``/``segments`` report how much of the run executed as
    stacked fleet segments (zero under the unfused executor);
    ``arq_budgets`` records each cluster's final per-frame
    retransmission budget (meaningful under adaptive ARQ, where fault
    applications re-derive it mid-run); ``coding_budgets`` records each
    cluster's erasure-coding *uplink* parity budget ``k`` (meaningful
    when the resilience policy selects ``recovery="fec"|"hybrid"`` and
    derives ``k`` per cluster and link direction from observed loss,
    message frame count and battery headroom).

    ``deadline_miss_rounds`` maps each cluster to its rounds-completed
    count at the *first* round finishing past its deadline — unlike
    ``deadline_misses`` (final round late) it also covers clusters
    that retire before exhausting their budget, the signal
    scheduler-level deadline renegotiation needs.
    ``retirement_reasons`` counts retirements by reason (the
    aggregation of ``dead_clusters``).  Both are populated from the
    telemetry bus's ``DeadlineMissed``/``ClusterRetired`` events.
    """

    policy: str
    total_edge_time_s: float
    makespan_s: float
    rounds_per_cluster: Dict[str, int]
    final_loss_per_cluster: Dict[str, float]
    deadline_misses: List[str] = field(default_factory=list)
    deadline_miss_rounds: Dict[str, int] = field(default_factory=dict)
    retirement_reasons: Dict[str, int] = field(default_factory=dict)
    engine: str = "sequential"
    completion_times: Dict[str, List[float]] = field(default_factory=dict)
    failed_rounds: Dict[str, int] = field(default_factory=dict)
    dead_clusters: Dict[str, str] = field(default_factory=dict)
    energy_j: Dict[str, float] = field(default_factory=dict)
    halted: bool = False
    faults_applied: int = 0
    fused_rounds: int = 0
    segments: int = 0
    arq_budgets: Dict[str, int] = field(default_factory=dict)
    coding_budgets: Dict[str, int] = field(default_factory=dict)
    #: Analytic ensemble mode (``engine="analytic"``) only: the report
    #: carries *expectations*, not samples.  ``delivered_rounds`` holds
    #: the un-rounded expected success count per cluster,
    #: ``lifetime_rounds`` the expected attempted rounds the aggregator
    #: battery sustains (``inf`` when energy-free), and
    #: ``deadline_miss_probability`` the normal-approximation odds a
    #: cluster's pipeline span overruns its deadline.
    expected_values: bool = False
    delivered_rounds: Dict[str, float] = field(default_factory=dict)
    lifetime_rounds: Dict[str, float] = field(default_factory=dict)
    deadline_miss_probability: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_final_loss(self) -> float:
        return float(np.mean(list(self.final_loss_per_cluster.values())))

    def scheduled_time_to_loss(self, cluster_name: str,
                               losses: Sequence[float],
                               threshold: float) -> Optional[float]:
        """Scheduled seconds until ``losses`` first dips to ``threshold``.

        ``losses`` is the cluster's per-round loss trajectory (e.g.
        ``history.losses``); returns None if the threshold is never hit.
        """
        times = self.completion_times.get(cluster_name, [])
        for loss, when in zip(losses, times):
            if loss <= threshold:
                return when
        return None


# ----------------------------------------------------------------------
# Ideal-world loop (sequential engine + batched replay)
# ----------------------------------------------------------------------
class IdealRoundLoop:
    """The ideal synchronous world's clock arithmetic, engine-agnostic.

    The makespan model: the edge serialises its decode work, while each
    cluster's aggregator-side compute + transfers overlap with other
    clusters' work.  One instance runs one scheduling session; the
    engine supplies ``next_record`` — where each round's
    :class:`RoundRecord` comes from (a live ``trainer.step`` for the
    sequential engine, a pre-executed fleet wave for the batched
    replay).  Identical pick sequences + identical arithmetic is what
    makes the engines' reports interchangeable; picks come from a
    :class:`PickQueue` under ``policy``, as in the event engine.
    """

    def __init__(self, clusters: Sequence["ScheduledCluster"],
                 rounds_per_cluster: int,
                 policy: str,
                 bus: "TelemetryBus" = NULL_BUS,
                 control=None):
        self.clusters = list(clusters)
        self.bus = bus
        self.control = control
        self._picks = PickQueue(policy, self.clusters)
        self.budget = {c.name: rounds_per_cluster for c in self.clusters}
        self.cluster_clock = {c.name: 0.0 for c in self.clusters}
        self.completion: Dict[str, List[float]] = {c.name: []
                                                   for c in self.clusters}
        self.edge_clock = 0.0
        self.edge_busy_s = 0.0
        self.misses: List[str] = []
        self.miss_rounds: Dict[str, int] = {}
        self._timings = {c.name: c.trainer.round_costs(c.batch_size).timing
                         for c in self.clusters}

    def _next_cluster(self) -> Optional["ScheduledCluster"]:
        clusters, budget = self.clusters, self.budget
        index = self._picks.pick(lambda k: budget[clusters[k].name] > 0)
        return None if index is None else clusters[index]

    def settle(self, cluster: "ScheduledCluster",
               record: RoundRecord) -> None:
        """Steps 3-4 for one executed round (ideal world)."""
        timing = self._timings[cluster.name]
        # Edge is the shared resource: its compute serialises.
        self.edge_clock = max(self.edge_clock,
                              self.cluster_clock[cluster.name]) \
            + timing.edge_compute_s
        self.edge_busy_s += timing.edge_compute_s
        # The cluster's own pipeline (aggregator compute + links)
        # proceeds in parallel with other clusters.
        self.cluster_clock[cluster.name] = self.edge_clock \
            + timing.aggregator_compute_s + timing.uplink_s \
            + timing.downlink_s
        self.completion[cluster.name].append(
            self.cluster_clock[cluster.name])
        cluster.history.rounds.append(record)
        cluster.rounds_completed += 1
        spend_round(self.budget, self.misses, cluster,
                    self.cluster_clock[cluster.name],
                    self.miss_rounds, self.bus)
        if self.bus.wants(RoundCompleted.kind):
            self.bus.emit(RoundCompleted(
                cluster=cluster.name, round=cluster.rounds_completed,
                delivered=True, loss=record.train_loss,
                time_s=self.cluster_clock[cluster.name]))

    def run(self, next_record: Callable[["ScheduledCluster"], RoundRecord]
            ) -> None:
        control = self.control
        while True:
            # Between-round control checkpoint: nothing is ever
            # pre-executed here, so a cancel stops at the first one.
            if control is not None and not control.checkpoint(0):
                break
            cluster = self._next_cluster()
            if cluster is None:
                break
            self.settle(cluster, next_record(cluster))

    def report(self, policy: str, engine: str) -> ScheduleReport:
        return ScheduleReport(
            policy=policy,
            total_edge_time_s=self.edge_busy_s,
            makespan_s=max(self.cluster_clock.values()),
            rounds_per_cluster={c.name: c.rounds_completed
                                for c in self.clusters},
            final_loss_per_cluster={c.name: c.current_loss
                                    for c in self.clusters},
            deadline_misses=self.misses,
            deadline_miss_rounds=dict(self.miss_rounds),
            engine=engine,
            completion_times=self.completion,
        )


# ----------------------------------------------------------------------
# Event-engine round executors
# ----------------------------------------------------------------------
class InlineRoundExecutor:
    """Per-cluster round execution: one autograd pass at its kernel time.

    The fallback whenever nothing may run early: segment batching
    disabled, no stackable cluster group, the loss-coupled
    ``loss_priority`` policy, or channels whose draw stream cannot be
    re-recorded at a fault's budget re-derivation boundary (scalar-path
    channels: ``vectorize=False`` or a loss model without a block
    sampler — see :attr:`~repro.sim.channel.ChannelSpec.rerecordable`).
    """

    fused_rounds = 0
    segments = 0

    def execute(self, cluster: "ScheduledCluster", state,
                agg_s: float, extra_s: float) -> RoundRecord:
        batch = contributor_batch(cluster, state.alive_mask)
        record = cluster.trainer.step(
            batch, epoch=epoch_of(cluster, cluster.rounds_completed))
        return stretch_record(cluster.trainer, record, extra_s)

    def charge_failure(self, cluster: "ScheduledCluster",
                       charge_s: float) -> None:
        """A failed round's modeled time lands on the cluster clock."""
        cluster.trainer.clock_s += charge_s

    def outstanding(self) -> int:
        """Pre-executed rounds not yet consumed — always zero inline."""
        return 0

    def finalize(self) -> None:
        """Nothing pre-executed, nothing to write back."""


class _PlanCursor:
    """The planner's forward view of one cluster's remaining rounds.

    Snapshots the cluster's live world state (budget, battery, failure
    streak, trace positions) at plan time and advances it round by
    round, reading each round's transmit outcomes from the recorded
    channel traces (or the ideal closed-form results on lossless
    links).  Every transition mirrors the kernel loop's arithmetic
    float for float — :meth:`charge` is ``charge_backhaul``,
    :meth:`apply` is the budget/streak/retirement bookkeeping — so the
    rounds the planner prices are exactly the rounds the kernel will
    commit.
    """

    __slots__ = ("executor", "name", "timing", "agg_s", "budget", "battery",
                 "dead", "consec", "ready", "rounds_completed", "up_idx",
                 "down_idx")

    def __init__(self, executor: "SegmentedFleetExecutor",
                 cluster: "ScheduledCluster", state) -> None:
        self.executor = executor
        self.name = cluster.name
        self.timing = executor._costs[cluster.name]
        self.agg_s = self.timing.aggregator_compute_s * state.slow_factor
        self.budget = executor.budget[cluster.name]
        self.battery = state.battery.remaining_j
        self.dead = state.dead
        self.consec = state.consecutive_failures
        self.ready = state.ready_at
        self.rounds_completed = cluster.rounds_completed
        self.up_idx, self.down_idx = executor._cursors(cluster.name)

    @property
    def pending(self) -> bool:
        return not self.dead and self.budget > 0

    # -- next-round outcome (peeked from the traces, not yet applied) --
    def peek(self):
        """``(kind, up, down)`` of this cluster's next trace round."""
        up = self.executor._up_entry(self.name, self.up_idx)
        if not up.delivered:
            return "fail_up", up, None
        down = self.executor._down_entry(self.name, self.down_idx)
        return ("success" if down.delivered else "fail_down"), up, down

    def extra(self, up, down) -> float:
        """The round's stretch beyond ideal accounting — the same
        expression, in the same order, as the kernel loop computes."""
        return ((self.agg_s - self.timing.aggregator_compute_s)
                + (up.elapsed_s - self.timing.uplink_s)
                + (down.elapsed_s - self.timing.downlink_s))

    def fail_charge(self, kind: str, up, down) -> float:
        """A failed round's cluster-clock charge — the kernel loop's
        expression, in its order, so replay is float-exact."""
        if kind == "fail_up":
            return self.agg_s + up.elapsed_s
        return (self.agg_s + up.elapsed_s + self.timing.edge_compute_s
                + down.elapsed_s)

    # -- state transitions (order-independent per cluster) -------------
    def charge(self, tx_wire_bytes: int, rx_wire_bytes: int) -> None:
        """Mirror of ``_EventClusterState.charge_backhaul``."""
        state = self.executor.states[self.name]
        joules = (state.radio.tx_energy(tx_wire_bytes * 8, state.backhaul_m)
                  + state.radio.rx_energy(rx_wire_bytes * 8))
        if joules > self.battery + 1e-18:   # Battery.drain's verdict
            self.battery = 0.0
            self.dead = True
        else:
            self.battery -= joules

    def apply(self, kind: str, up, down) -> None:
        """Advance past one peeked round (budget, battery, streaks)."""
        self.budget -= 1
        self.up_idx += 1
        if kind == "fail_up":
            self.charge(up.wire_bytes, 0)
            self._fail()
            return
        self.down_idx += 1
        self.charge(up.wire_bytes, down.received_wire_bytes)
        if kind == "fail_down":
            self._fail()
        else:
            self.consec = 0
            self.rounds_completed += 1

    def _fail(self) -> None:
        self.consec += 1
        if self.consec >= self.executor.resilience.max_consecutive_failures:
            self.dead = True

    def seed_current(self, edge_clock: float, agg_s: float) -> None:
        """Account the requesting cluster's already-committed round.

        The kernel has transmitted (trace cursors are past this round's
        entries) and put its edge compute on the clock; battery charge,
        budget spend and the ready push land after ``execute`` returns,
        so the planner mirrors them here with the *actual* consumed
        outcomes.
        """
        up = self.executor._up_entry(self.name, self.up_idx - 1)
        down = self.executor._down_entry(self.name, self.down_idx - 1)
        self.ready = edge_clock + agg_s + up.elapsed_s + down.elapsed_s
        self.budget -= 1
        self.consec = 0
        self.rounds_completed += 1
        self.charge(up.wire_bytes, down.received_wire_bytes)


class SegmentedFleetExecutor:
    """Segment batching: channel-safe spans run as stacked fleet waves.

    Owns one :class:`~repro.core.fleet.FleetTrainer` per homogeneous
    cluster group (heterogeneous fleets stack group by group; a
    one-cluster group executes its trainer directly) and, per plan, a
    list of how many rounds each surviving cluster completes before the
    next fault horizon.  Planned rounds are executed immediately as
    fleet waves over the survivors (:meth:`~repro.core.fleet.
    FleetTrainer.subset` — no parameter copies) and queued; the
    kernel's edge process then consumes them at the exact simulated
    times the unfused engine would have produced them.

    Channel randomness is not a barrier: lossy channels are pre-sampled
    into :class:`~repro.sim.channel.ChannelTrace`\\ s by the scheduler,
    so the planner prices every round's delivered verdict, attempts,
    retransmission energy and clock stretch at plan time, and failed
    rounds (budget burned, no update) are walked through exactly as the
    kernel will process them inline.

    The policy's picks (``fifo``/``round_robin``/``deadline``) are
    loss-independent, so :meth:`_plan_segment` dry-runs the kernel loop
    float-for-float up to the fault horizon and pre-executes that exact
    prefix; straddling rounds degenerate to one-cluster waves at their
    true kernel times.
    """

    def __init__(self, clusters: Sequence["ScheduledCluster"],
                 states: Dict[str, object],
                 injector: "FaultInjector",
                 budget: Dict[str, int],
                 edge_clock_ref: List[float],
                 policy: str,
                 resilience,
                 groups: Optional[Sequence[Sequence[int]]] = None,
                 bus: "TelemetryBus" = NULL_BUS,
                 command_gate: Optional[Callable[[], bool]] = None) -> None:
        self.bus = bus
        # Control-plane seam: once ``command_gate()`` reports a pending
        # cancel, the planner clamps to the requesting round only
        # ("command-pending" bound) so pre-executed work drains and the
        # run can stop at an outstanding==0 round boundary instead of
        # waiting out a whole-run plan.  An uncancelled run never fires
        # the gate, and its planning is byte-identical to a gate-less
        # run.
        self.command_gate = command_gate
        self.clusters = list(clusters)
        self._index = {c.name: k for k, c in enumerate(self.clusters)}
        self.states = states
        self.injector = injector
        self.budget = budget
        self.edge_clock_ref = edge_clock_ref
        self.policy = policy
        self.resilience = resilience
        if groups is None:
            groups = [tuple(range(len(self.clusters)))]
        self.group_fleets = [
            (list(members),
             FleetTrainer([self.clusters[k].trainer for k in members])
             if len(members) >= 2 else None)
            for members in groups]
        self.queues: Dict[str, deque] = {c.name: deque()
                                         for c in self.clusters}
        # Planned failed rounds whose clock charge was pre-applied in
        # sequence order; the kernel's inline failure handling pops
        # these instead of charging twice.
        self.fail_queues: Dict[str, deque] = {c.name: deque()
                                              for c in self.clusters}
        self.executed = {c.name: 0 for c in self.clusters}
        self.fused_rounds = 0
        self.segments = 0
        # Per-cluster constants: round timing plus the ideal channel's
        # closed-form transmit outcomes (the same pricing the channel
        # kernel's clean path reports), the planner's stand-in wherever
        # no trace is attached.
        self._costs: Dict[str, object] = {}
        self._ideal_up: Dict[str, TransmitResult] = {}
        self._ideal_down: Dict[str, TransmitResult] = {}
        for cluster in self.clusters:
            costs = cluster.trainer.round_costs(cluster.batch_size)
            timing = cluster.trainer.timing
            self._costs[cluster.name] = costs.timing
            self._ideal_up[cluster.name] = ideal_transmit_result(
                timing.up, costs.up_bytes)
            self._ideal_down[cluster.name] = ideal_transmit_result(
                timing.down, costs.down_bytes)

    # -- trace access ---------------------------------------------------
    def _cursors(self, name: str):
        channel = self.states[name].up_channel
        if channel is not None and channel.trace is not None:
            return (channel.trace.cursor,
                    self.states[name].down_channel.trace.cursor)
        return 0, 0

    def _up_entry(self, name: str, index: int) -> TransmitResult:
        channel = self.states[name].up_channel
        if channel is not None and channel.trace is not None:
            return channel.trace.entry(index)
        return self._ideal_up[name]

    def _down_entry(self, name: str, index: int) -> TransmitResult:
        channel = self.states[name].down_channel
        if channel is not None and channel.trace is not None:
            return channel.trace.entry(index)
        return self._ideal_down[name]

    # ------------------------------------------------------------------
    def execute(self, cluster: "ScheduledCluster", state,
                agg_s: float, extra_s: float) -> RoundRecord:
        queue = self.queues[cluster.name]
        if not queue:
            self._fill(cluster, agg_s, extra_s)
        return queue.popleft()

    def charge_failure(self, cluster: "ScheduledCluster",
                       charge_s: float) -> None:
        """Settle a failed round's cluster-clock charge exactly once.

        A *planned* failure pre-applied its charge in sequence order
        during :meth:`_run_waves` (so pre-executed successes after it
        carry the right cumulative clock); the kernel's inline handling
        pops it here instead of charging again.  Unplanned failures
        (past the planning horizon) charge inline like the unfused
        executor.
        """
        pending = self.fail_queues[cluster.name]
        if pending:
            planned = pending.popleft()
            if planned != charge_s:
                raise RuntimeError(
                    f"planned failure charge {planned!r} != kernel charge "
                    f"{charge_s!r} for {cluster.name} — planner/loop "
                    "divergence")
            return
        cluster.trainer.clock_s += charge_s

    def outstanding(self) -> int:
        """Pre-executed rounds the kernel has not consumed yet.

        A cancel stops the run only when this is zero, so
        :meth:`finalize` never finds pre-executed rounds left over.
        """
        return (sum(len(q) for q in self.queues.values())
                + sum(len(q) for q in self.fail_queues.values()))

    def finalize(self) -> None:
        """Write fleet-trained weights/optimiser state back (run end)."""
        leftovers = {name: len(q) + len(self.fail_queues[name])
                     for name, q in self.queues.items()
                     if q or self.fail_queues[name]}
        if leftovers:
            raise RuntimeError(
                f"segment plan over-executed rounds never consumed by the "
                f"kernel: {leftovers} — planner/loop divergence")
        for _, fleet in self.group_fleets:
            if fleet is not None:
                fleet.sync_to_trainers()

    # ------------------------------------------------------------------
    def _fill(self, current: "ScheduledCluster", agg_s: float,
              extra_s: float) -> None:
        """Plan from ``current``'s math point, then pre-execute the plan
        as fleet waves."""
        stale = [name for name in self.queues
                 if self.queues[name] or self.fail_queues[name]]
        if stale:
            raise RuntimeError(
                f"replanning with non-empty queues {stale} — "
                "planner/loop divergence")
        horizon = self.injector.horizon()
        with self.bus.span("plan"):
            plan, bound = self._plan_segment(current, agg_s, extra_s,
                                             horizon)
        if self.bus.wants(SegmentFused.kind):
            items = [item for items in plan.values() for item in items]
            self.bus.emit(SegmentFused(
                index=self.segments,
                horizon_s=None if horizon == float("inf") else horizon,
                clusters=sum(1 for items in plan.values() if items),
                successes=sum(1 for kind, _ in items if kind == "success"),
                failures=sum(1 for kind, _ in items if kind == "fail"),
                bound=bound))
        self.segments += 1
        with self.bus.span("execute"):
            self._run_waves(plan)

    def _plan_segment(self, current: "ScheduledCluster", agg_s: float,
                      extra_s: float, horizon: float):
        """Dry-run the edge process's arithmetic up to the fault horizon.

        Mirrors the kernel loop float-for-float over :class:`_PlanCursor`
        shadows (edge clock, ready times, budgets, battery levels,
        failure streaks, trace positions) so the planned rounds — and
        their per-round clock stretches — are exactly the ones the
        kernel will commit.  No fault fires inside the window by
        construction; the in-segment state changes (battery and
        consecutive-failure retirements, failed rounds burning budget,
        the quorum halt) are all replicated here, and picks come from a
        :class:`PickQueue` keyed on the cursors, the same rule the
        kernel's queue applies.  Returns each cluster's planned rounds,
        in round order, as
        ``("success", clock stretch)`` / ``("fail", clock charge)``
        items: successes pre-execute as waves; failures pre-apply their
        cluster-clock charge between waves (so later successes carry
        the right cumulative clock) and are otherwise left for the
        kernel to process inline.  The second return value names the
        admitting bound for telemetry.
        """
        edge_clock = self.edge_clock_ref[0]
        cursors = [_PlanCursor(self, c, self.states[c.name])
                   for c in self.clusters]
        plan: Dict[str, List[tuple]] = {c.name: [] for c in self.clusters}

        # The requesting cluster sits at its math point: its round is
        # unconditionally safe and already half-committed by the kernel.
        cursors[self._index[current.name]].seed_current(edge_clock, agg_s)
        plan[current.name].append(("success", extra_s))

        # A pending cancel clamps the plan to this round only: segment
        # plans may truncate at any pick boundary (the kernel consumes
        # planned rounds in exactly plan order), so the fleet reaches
        # outstanding==0 at the very next boundary and stops there.
        if self.command_gate is not None and self.command_gate():
            return plan, "command-pending"

        picks = PickQueue(self.policy, self.clusters,
                          lambda k: cursors[k].rounds_completed)
        quorum = self.resilience.quorum
        total = len(self.clusters)
        while True:
            if quorum > 0.0 and total and \
                    sum(not c.dead for c in cursors) / total < quorum:
                break
            index = picks.pick(lambda k: cursors[k].pending)
            if index is None:
                break
            cursor = cursors[index]
            kind, up, down = cursor.peek()
            start = max(edge_clock, cursor.ready)
            if kind == "fail_up":
                # The whole failed round processes at its pick time; a
                # fault armed at exactly `start` fires before the kernel
                # resumes there, so the boundary is strict.
                if not start < horizon:
                    break
                cursor.ready = start + cursor.agg_s + up.elapsed_s
                plan[cursor.name].append(
                    ("fail", cursor.fail_charge(kind, up, down)))
                cursor.apply(kind, up, down)
                continue
            finish = start + cursor.timing.edge_compute_s
            if not finish < horizon:
                # A fault armed at exactly `finish` fires before the
                # kernel resumes the edge process there, so this round's
                # mask may change: it (and everything after — the edge
                # clock is monotone) must run per-cluster at its true
                # kernel time.
                break
            edge_clock = finish
            cursor.ready = edge_clock + cursor.agg_s + up.elapsed_s \
                + down.elapsed_s
            if kind == "success":
                plan[cursor.name].append(("success",
                                          cursor.extra(up, down)))
            else:
                plan[cursor.name].append(
                    ("fail", cursor.fail_charge(kind, up, down)))
            cursor.apply(kind, up, down)
        return plan, "before-horizon"

    def _run_waves(self, plan: Dict[str, List[tuple]]) -> None:
        """Pre-execute the planned rounds as stacked fleet waves.

        Wave ``w`` trains every cluster with more than ``w`` planned
        successful rounds, split across the homogeneous groups: a full
        group runs its unsliced stacked program (allocation-free
        optimiser fast path), a partial group runs through a
        parameter-sharing :meth:`~repro.core.fleet.FleetTrainer.subset`,
        and one-cluster groups step their trainer directly.
        Per-cluster draw order (minibatch stream, noise RNG) and
        clock/ledger arithmetic match a per-round execution exactly;
        each success carries the planner-priced clock stretch, and each
        planned *failure* applies its cluster-clock charge at its exact
        position in the cluster's round sequence (the kernel's inline
        handling then pops it from ``fail_queues`` instead of charging
        twice).
        """
        states = self.states
        remaining = {name: deque(items) for name, items in plan.items()}

        def flush_failures(cluster: "ScheduledCluster") -> None:
            queue = remaining[cluster.name]
            while queue and queue[0][0] == "fail":
                _, charge = queue.popleft()
                cluster.trainer.clock_s += charge
                self.fail_queues[cluster.name].append(charge)

        def commit(cluster: "ScheduledCluster", record: RoundRecord) -> None:
            name = cluster.name
            _, extra = remaining[name].popleft()
            self.queues[name].append(
                stretch_record(cluster.trainer, record, extra))
            self.executed[name] += 1
            self.fused_rounds += 1

        while True:
            for cluster in self.clusters:
                flush_failures(cluster)
            if not any(remaining.values()):
                break
            for members, fleet in self.group_fleets:
                rows = [position for position, k in enumerate(members)
                        if remaining[self.clusters[k].name]]
                if not rows:
                    continue
                if fleet is None:
                    cluster = self.clusters[members[rows[0]]]
                    batch = contributor_batch(
                        cluster, states[cluster.name].alive_mask)
                    record = cluster.trainer.step(
                        batch, epoch=epoch_of(cluster,
                                              self.executed[cluster.name]))
                    commit(cluster, record)
                    continue
                batch_size = self.clusters[members[rows[0]]].batch_size
                stack = np.empty((len(rows), batch_size, fleet.input_dim))
                epochs = []
                for slot, position in enumerate(rows):
                    cluster = self.clusters[members[position]]
                    stack[slot] = contributor_batch(
                        cluster, states[cluster.name].alive_mask)
                    epochs.append(epoch_of(cluster,
                                           self.executed[cluster.name]))
                if len(rows) == len(members):
                    records = fleet.step(stack, epochs=epochs)
                else:
                    records = fleet.subset(rows).step(stack, epochs=epochs)
                for slot, position in enumerate(rows):
                    commit(self.clusters[members[position]], records[slot])
