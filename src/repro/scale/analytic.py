"""Analytic ensemble mode: fleet outcomes priced, not simulated.

``EdgeTrainingScheduler(engine="analytic")`` routes here.  Instead of
stepping the event kernel frame by frame, each cluster's round economy
is priced from the closed-form channel/coding/battery math the adaptive
policies already use (:func:`repro.sim.sampler.expected_slot_attempts`,
:func:`repro.sim.coding.delivery_probability`, the hybrid shortfall
repair folded over the erasure count in :func:`price_transmit`, the
Heinzelman radio model) — per-round expected wire bytes, airtime,
radio energy, delivery probability — and folded over the round budget
into expected delivered rounds, battery lifetime and a deadline-miss
probability.  Cost is O(frames-per-message) per cluster, independent of
the round budget and of the loss rate, which is what makes 1000-cluster
sweeps interactive (see ``benchmarks/bench_scale.py``).

Validity envelope (documented tolerances live in
``tests/test_scale_analytic.py`` and the README's "Scaling out"
section):

* **Exact in expectation** for Bernoulli (i.i.d.) loss: per-round
  expected wire bytes, received bytes and radio energy are linear
  folds of per-slot truncated-geometric attempt counts, so they match
  the event engine's sample mean (energy within a few percent at
  realistic round budgets).
* **First-order for Gilbert-Elliott** channels: the chain's stationary
  mean loss rate is folded through the Bernoulli forms.  Open-loop FEC
  wire bytes stay exact (the burst radiates ``F + k`` frames
  regardless of correlation); delivery probabilities and ARQ retry
  counts ignore burst correlation, so expect looser agreement on
  delivered-round counts.
* **Means, not samples** — per-cluster loss *trajectories* require
  training math; ``final_loss_per_cluster`` is NaN.
* **No fault schedules, no quorum** — the scheduler refuses
  ``engine="analytic"`` with a fault schedule; quorum halts depend on
  the joint order of retirements, which a per-cluster product model
  does not carry.  Consecutive-failure retirement is priced as a
  per-cluster run probability (:func:`failure_run_probability`), and
  battery death as an expected-lifetime truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from ..core.rounds import ScheduleReport
from ..sim.channel import ARQConfig, ChannelSpec, as_loss_model
from ..sim.coding import CodingSpec, delivery_probability
from ..sim.sampler import (
    arq_slot_delivery_probability,
    expected_slot_attempts,
)
from ..wsn.energy import RadioEnergyModel
from ..wsn.link import LinkModel

if TYPE_CHECKING:   # pragma: no cover - typing only
    from ..core.scheduler import EdgeTrainingScheduler

__all__ = ["DirectionForecast", "ClusterForecast", "price_transmit",
           "forecast_fleet", "run_analytic", "failure_run_probability"]


# ----------------------------------------------------------------------
# Per-direction pricing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DirectionForecast:
    """Expected cost of one message transfer on one link direction.

    Mirrors :class:`~repro.sim.channel.TransmitResult` field for field,
    with samples replaced by expectations; ``p_deliver`` is the whole-
    message delivery probability and ``elapsed_variance_s2`` the
    (slot-independence) variance of the transfer time, consumed by the
    deadline-miss normal approximation.
    """

    payload_bytes: int
    frames: int
    parity_frames: int
    p_deliver: float
    expected_attempts: float
    expected_wire_bytes: float
    expected_received_wire_bytes: float
    expected_elapsed_s: float
    elapsed_variance_s2: float


def _slot_moments(loss_rate: float, cap: int, frame_time: float,
                  timeout: float) -> Tuple[float, float, float]:
    """(delivery prob, mean, variance) of one frame slot's elapsed time.

    The slot succeeds at attempt ``j <= cap`` with probability
    ``p^(j-1)(1-p)`` — elapsed ``j`` frame airtimes plus ``j - 1`` ACK
    timeouts — or burns all ``cap`` attempts (each with a timeout) with
    probability ``p^cap``.
    """
    if loss_rate == 0.0:
        return 1.0, frame_time, 0.0
    j = np.arange(1, cap + 1, dtype=float)
    pmf_success = loss_rate ** (j - 1) * (1.0 - loss_rate)
    p_fail = loss_rate ** cap
    t_success = j * frame_time + (j - 1) * timeout
    t_fail = cap * (frame_time + timeout)
    mean = float(pmf_success @ t_success + p_fail * t_fail)
    second = float(pmf_success @ (t_success ** 2) + p_fail * t_fail ** 2)
    variance = max(0.0, second - mean ** 2)
    return 1.0 - p_fail, mean, variance


def _price_arq(link: LinkModel, payload_bytes: int, frames: List[int],
               loss_rate: float, arq: ARQConfig) -> DirectionForecast:
    """Uncoded stop-and-wait pricing, abort-on-exhausted-slot.

    Slot ``i`` is attempted only when slots ``0..i-1`` all delivered
    (probability ``q^i``); within an attempted slot the truncated-
    geometric attempt count is independent of whether it delivers, so
    wire bytes and airtime fold linearly.  The cross-slot elapsed
    variance treats slots as independent (the abort coupling it drops
    only shortens failed messages, a conservative deadline estimate).
    """
    header = link.header_bytes
    timeout = arq.ack_timeout_s
    cap = arq.max_retries + 1
    q = arq_slot_delivery_probability(loss_rate, arq.max_retries)
    attempts_per_slot = expected_slot_attempts(loss_rate, arq.max_retries)
    wire = received = elapsed = variance = attempts = 0.0
    attempt_prob = 1.0    # q^i: slots before i all delivered
    for payload in frames:
        _, slot_mean, slot_var = _slot_moments(
            loss_rate, cap, link.frame_time(payload), timeout)
        wire += attempt_prob * attempts_per_slot * (payload + header)
        received += attempt_prob * q * (payload + header)
        elapsed += attempt_prob * slot_mean
        variance += attempt_prob * slot_var
        attempts += attempt_prob * attempts_per_slot
        attempt_prob *= q
    return DirectionForecast(
        payload_bytes=payload_bytes, frames=len(frames), parity_frames=0,
        p_deliver=q ** len(frames), expected_attempts=attempts,
        expected_wire_bytes=wire, expected_received_wire_bytes=received,
        expected_elapsed_s=link.latency_s + elapsed,
        elapsed_variance_s2=variance)


def _price_coded(link: LinkModel, payload_bytes: int, frames: List[int],
                 loss_rate: float, arq: ARQConfig,
                 coding: CodingSpec) -> DirectionForecast:
    """Open-loop FEC burst pricing, plus hybrid shortfall repair.

    The burst always radiates ``F + k`` frames (parity frames carry
    stripe-sized shards), so its wire bytes and airtime are
    deterministic and its received bytes fold as ``(1 - p) * wire`` —
    exact even under burst-correlated loss.  With ``arq_fallback`` the
    shortfall distribution ``e ~ Binomial(F + k, p)`` is folded exactly
    over the repair loop's abort semantics; repair frames are priced at
    the stripe payload (the short final frame makes this an upper
    bound on repair bytes, negligible at realistic frame counts).
    """
    header = link.header_bytes
    stripe = frames[0]
    parity = coding.parity_frames
    data_frames = len(frames)
    total = data_frames + parity
    burst_wire = float(sum(payload + header for payload in frames)
                       + parity * (stripe + header))
    burst_time = float(sum(link.frame_time(payload) for payload in frames)
                       + parity * link.frame_time(stripe))
    wire = burst_wire
    received = (1.0 - loss_rate) * burst_wire
    elapsed = burst_time
    variance = 0.0
    attempts = float(total)
    p_deliver = float(delivery_probability(data_frames, parity, loss_rate))

    if coding.arq_fallback and loss_rate > 0.0:
        cap = arq.max_retries + 1
        q = arq_slot_delivery_probability(loss_rate, arq.max_retries)
        attempts_per_slot = expected_slot_attempts(loss_rate,
                                                   arq.max_retries)
        _, slot_mean, slot_var = _slot_moments(
            loss_rate, cap, link.frame_time(stripe), arq.ack_timeout_s)
        stripe_wire = stripe + header
        keep = 1.0 - loss_rate
        p_deliver = 0.0
        for erased in range(total + 1):
            pmf = comb(total, erased) * loss_rate ** erased \
                * keep ** (total - erased)
            if erased <= parity:
                p_deliver += pmf
                continue
            repairs = erased - parity
            # Repair slot j attempted iff repairs 0..j-1 delivered.
            slot_probs = q ** np.arange(repairs, dtype=float)
            attempted = float(slot_probs.sum())
            delivered_slots = float((q * slot_probs).sum())
            p_deliver += pmf * q ** repairs
            wire += pmf * attempted * attempts_per_slot * stripe_wire
            received += pmf * delivered_slots * stripe_wire
            elapsed += pmf * attempted * slot_mean
            variance += pmf * attempted * slot_var
            attempts += pmf * attempted * attempts_per_slot
    return DirectionForecast(
        payload_bytes=payload_bytes, frames=data_frames,
        parity_frames=parity, p_deliver=p_deliver,
        expected_attempts=attempts, expected_wire_bytes=wire,
        expected_received_wire_bytes=received,
        expected_elapsed_s=link.latency_s + elapsed,
        elapsed_variance_s2=variance)


def price_transmit(link: LinkModel, payload_bytes: int, loss_rate: float,
                   arq: Optional[ARQConfig] = None,
                   coding: Optional[CodingSpec] = None) -> DirectionForecast:
    """Expected-cost mirror of ``UnreliableChannel.transmit``.

    One closed-form evaluation per link direction; validated against
    the channel's Monte-Carlo sample means in
    ``tests/test_scale_analytic.py``.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss_rate must be in [0, 1)")
    arq = arq or ARQConfig()
    frames = link.frame_sizes(payload_bytes)
    if not frames:
        return DirectionForecast(0, 0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if coding is not None and coding.parity_frames > 0:
        return _price_coded(link, payload_bytes, frames, loss_rate, arq,
                            coding)
    if loss_rate == 0.0:
        # Bit-exact agreement with the ideal link's closed forms,
        # mirroring the channel's clean-path shortcut.
        wire = float(link.wire_bytes(payload_bytes))
        return DirectionForecast(
            payload_bytes, len(frames), 0, 1.0, float(len(frames)),
            wire, wire, link.transfer_time(payload_bytes), 0.0)
    return _price_arq(link, payload_bytes, frames, loss_rate, arq)


# ----------------------------------------------------------------------
# Per-cluster fold
# ----------------------------------------------------------------------
def failure_run_probability(failure_prob: float, rounds: int,
                            run_length: int) -> float:
    """P[some ``run_length`` consecutive failures within ``rounds``].

    The retirement rule ``max_consecutive_failures`` prices as the
    classic probability of a failure run in Bernoulli trials, computed
    by stepping the streak-length Markov chain (states ``0..m-1`` plus
    absorbing "retired") — O(rounds * run_length), exact.
    """
    if not 0.0 <= failure_prob <= 1.0:
        raise ValueError("failure_prob must be in [0, 1]")
    if run_length < 1:
        raise ValueError("run_length must be >= 1")
    if rounds < run_length or failure_prob == 0.0:
        return 0.0
    streak = np.zeros(run_length)
    streak[0] = 1.0
    absorbed = 0.0
    success = 1.0 - failure_prob
    for _ in range(rounds):
        fail_mass = streak * failure_prob
        absorbed += fail_mass[-1]
        nxt = np.zeros(run_length)
        nxt[0] = streak.sum() * success
        nxt[1:] = fail_mass[:-1]
        streak = nxt
    return float(absorbed)


@dataclass(frozen=True)
class ClusterForecast:
    """Closed-form round economy of one cluster.

    ``lifetime_rounds`` is the expected attempted-round count the
    aggregator battery sustains (``inf`` when energy per round is
    zero); ``effective_rounds`` the budget truncated by it.  Delivered
    and failed round counts, energy and makespan contributions are
    expectations over that effective budget.
    """

    name: str
    up: DirectionForecast
    down: DirectionForecast
    p_round: float
    expected_round_s: float
    round_variance_s2: float
    expected_energy_per_round_j: float
    rounds_budget: int
    lifetime_rounds: float
    effective_rounds: float
    expected_delivered_rounds: float
    expected_failed_rounds: float
    expected_energy_j: float
    expected_edge_busy_s: float
    expected_span_s: float
    deadline_miss_probability: float
    retire_probability: float
    arq_retries: Optional[int]
    up_parity: Optional[int]


def _normal_tail(mean: float, variance: float, threshold: float) -> float:
    """P[X > threshold] for X ~ Normal(mean, variance)."""
    if variance <= 0.0:
        return 1.0 if mean > threshold else 0.0
    z = (threshold - mean) / math.sqrt(variance)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _direction_spec(spec: Optional[ChannelSpec]
                    ) -> Tuple[float, ARQConfig, Optional[CodingSpec]]:
    """(mean loss rate, arq, coding) of one direction's spec."""
    if spec is None:
        return 0.0, ARQConfig(), None
    model = as_loss_model(spec.loss() if callable(spec.loss) else spec.loss)
    rate = float(model.mean_loss_rate) if model is not None else 0.0
    return rate, spec.arq, spec.coding


def _cached_price(cache: Optional[dict], link: LinkModel,
                  payload_bytes: int, loss_rate: float, arq: ARQConfig,
                  coding: Optional[CodingSpec]) -> DirectionForecast:
    """Memoized :func:`price_transmit` for ensemble forecasting.

    Every input is a frozen dataclass or scalar, so identical pricing
    problems hash to the same key — in a homogeneous ensemble the
    closed forms run once, not once per cluster, which is what keeps
    the 1000-cluster sweep sub-second.
    """
    if cache is None:
        return price_transmit(link, payload_bytes, loss_rate, arq, coding)
    key = (link, payload_bytes, loss_rate, arq, coding)
    forecast = cache.get(key)
    if forecast is None:
        forecast = cache[key] = price_transmit(
            link, payload_bytes, loss_rate, arq, coding)
    return forecast


def forecast_cluster(cluster, up_spec: Optional[ChannelSpec],
                     down_spec: Optional[ChannelSpec],
                     rounds_per_cluster: int,
                     backhaul_distance_m: float,
                     max_consecutive_failures: int,
                     _cache: Optional[dict] = None) -> ClusterForecast:
    """Price one cluster's whole run from its derived channel specs.

    Mirrors the event loop's arithmetic in expectation: a round always
    costs the aggregator compute plus the uplink transfer; edge compute
    and the downlink happen only when the uplink delivered; energy is
    ``tx(uplink wire) + rx(downlink received | uplink delivered)`` —
    the exact charge pattern of ``_run_event_session``'s three paths.
    """
    trainer = cluster.trainer
    costs = trainer.round_costs(cluster.batch_size)
    timing = costs.timing
    up = _cached_price(_cache, trainer.timing.up, costs.up_bytes,
                       *_direction_spec(up_spec))
    down = _cached_price(_cache, trainer.timing.down, costs.down_bytes,
                         *_direction_spec(down_spec))

    p_round = up.p_deliver * down.p_deliver
    agg_s = timing.aggregator_compute_s
    edge_s = timing.edge_compute_s
    round_s = agg_s + up.expected_elapsed_s \
        + up.p_deliver * (edge_s + down.expected_elapsed_s)
    conditional_tail = edge_s + down.expected_elapsed_s
    round_var = up.elapsed_variance_s2 \
        + up.p_deliver * down.elapsed_variance_s2 \
        + up.p_deliver * (1.0 - up.p_deliver) * conditional_tail ** 2

    radio = RadioEnergyModel()
    energy_per_round = (
        radio.tx_energy(up.expected_wire_bytes * 8, backhaul_distance_m)
        + radio.rx_energy(up.p_deliver
                          * down.expected_received_wire_bytes * 8))
    lifetime = (float("inf") if energy_per_round <= 0.0
                else cluster.aggregator_battery_j / energy_per_round)
    effective = min(float(rounds_per_cluster), lifetime)
    delivered = p_round * effective
    failed = (1.0 - p_round) * effective
    energy_total = min(energy_per_round * effective,
                       cluster.aggregator_battery_j)
    edge_busy = up.p_deliver * edge_s * effective
    span = round_s * effective
    miss = (0.0 if cluster.deadline_s is None
            else _normal_tail(span, round_var * effective,
                              cluster.deadline_s))
    retire_key = ("retire", 1.0 - p_round, int(round(effective)),
                  max_consecutive_failures)
    retire = _cache.get(retire_key) if _cache is not None else None
    if retire is None:
        retire = failure_run_probability(1.0 - p_round,
                                         int(round(effective)),
                                         max_consecutive_failures)
        if _cache is not None:
            _cache[retire_key] = retire
    return ClusterForecast(
        name=cluster.name, up=up, down=down, p_round=p_round,
        expected_round_s=round_s, round_variance_s2=round_var,
        expected_energy_per_round_j=energy_per_round,
        rounds_budget=rounds_per_cluster, lifetime_rounds=lifetime,
        effective_rounds=effective,
        expected_delivered_rounds=delivered,
        expected_failed_rounds=failed,
        expected_energy_j=energy_total,
        expected_edge_busy_s=edge_busy,
        expected_span_s=span,
        deadline_miss_probability=miss,
        retire_probability=retire,
        arq_retries=None if up_spec is None else up_spec.arq.max_retries,
        up_parity=(None if up_spec is None or up_spec.coding is None
                   else up_spec.coding.parity_frames))


def forecast_fleet(scheduler: "EdgeTrainingScheduler",
                   rounds_per_cluster: int) -> Dict[str, ClusterForecast]:
    """Per-cluster forecasts for a registered fleet.

    Channel recipes come from the scheduler's own
    ``_channel_specs_for``, so adaptive ARQ budgets and per-direction
    parity derivation match what the event engine would stamp on —
    the analytic report's ``arq_budgets``/``coding_budgets`` mirror the
    event report's exactly.
    """
    forecasts = {}
    cache: dict = {}
    for cluster in scheduler.clusters:
        up_spec, down_spec = scheduler._channel_specs_for(
            cluster, rounds_per_cluster)
        forecasts[cluster.name] = forecast_cluster(
            cluster, up_spec, down_spec, rounds_per_cluster,
            scheduler.backhaul_distance_m,
            scheduler.resilience.max_consecutive_failures,
            _cache=cache)
    return forecasts


def run_analytic(scheduler: "EdgeTrainingScheduler",
                 rounds_per_cluster: int) -> ScheduleReport:
    """The ``engine="analytic"`` execution path.

    Folds :func:`forecast_fleet` into a :class:`ScheduleReport` with
    ``expected_values=True``: integer round counts are rounded
    expectations, the makespan is the larger of the serialized edge
    busy time and the slowest cluster's expected pipeline span, and
    the analytic-only distributions land in ``delivered_rounds`` /
    ``lifetime_rounds`` / ``deadline_miss_probability``.
    """
    forecasts = forecast_fleet(scheduler, rounds_per_cluster)
    edge_busy = sum(f.expected_edge_busy_s for f in forecasts.values())
    # Edge-bound fleets finish one aggregator-side tail after the edge
    # drains; cluster-bound fleets finish with the slowest pipeline.
    tail = max((f.expected_round_s
                - f.expected_edge_busy_s / max(f.effective_rounds, 1.0)
                for f in forecasts.values()), default=0.0)
    makespan = max(max((f.expected_span_s for f in forecasts.values()),
                       default=0.0), edge_busy + tail)
    failed = {name: int(round(f.expected_failed_rounds))
              for name, f in forecasts.items()
              if f.expected_failed_rounds >= 0.5}
    dead = {name: "aggregator battery depleted (expected)"
            for name, f in forecasts.items()
            if f.lifetime_rounds < f.rounds_budget}
    misses = [name for name, f in forecasts.items()
              if f.deadline_miss_probability > 0.5]
    return ScheduleReport(
        policy=scheduler.policy,
        total_edge_time_s=edge_busy,
        makespan_s=makespan,
        rounds_per_cluster={name: int(round(f.expected_delivered_rounds))
                            for name, f in forecasts.items()},
        final_loss_per_cluster={name: float("nan") for name in forecasts},
        deadline_misses=misses,
        retirement_reasons=({"aggregator battery depleted (expected)":
                             len(dead)} if dead else {}),
        engine="analytic",
        failed_rounds=failed,
        dead_clusters=dead,
        energy_j={name: f.expected_energy_j
                  for name, f in forecasts.items()},
        arq_budgets={name: f.arq_retries for name, f in forecasts.items()
                     if f.arq_retries is not None},
        coding_budgets={name: f.up_parity for name, f in forecasts.items()
                        if f.up_parity is not None},
        expected_values=True,
        delivered_rounds={name: f.expected_delivered_rounds
                          for name, f in forecasts.items()},
        lifetime_rounds={name: f.lifetime_rounds
                         for name, f in forecasts.items()},
        deadline_miss_probability={name: f.deadline_miss_probability
                                   for name, f in forecasts.items()
                                   if f.deadline_miss_probability > 0.0},
    )
