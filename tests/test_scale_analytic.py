"""Analytic ensemble mode: closed forms vs the event engine.

Three validation layers, matching the tentpole's tolerance contract:

* **unit** — the closed-form ARQ/FEC/hybrid helpers against exact
  hand-computed probabilities and edge cases;
* **kernel** — :func:`repro.scale.price_transmit` against Monte-Carlo
  sample means of the channel's own ``transmit_batch`` (the analytic
  forecast and the simulator must price the *same* channel);
* **fleet** — ``engine="analytic"`` against ``engine="event"`` on
  three scenarios (Bernoulli ARQ, Bernoulli FEC, Gilbert-Elliott ARQ)
  with the documented tolerances: expected energy within 6%, delivered
  rounds within 3%, makespan within 20%, ARQ/parity budgets exact.

The makespan tolerance holds in the high-delivery regime (per-round
success ≳ 0.8).  Below it, the event engine's pick rule re-serves a
failed cluster until it completes the round, serializing those retries
on the shared edge clock — a queueing effect the mean-field pipeline
span deliberately does not model, so there the analytic makespan is a
*lower bound* (asserted separately).  Energy, delivered rounds and
budgets stay within tolerance at any delivery rate.
"""

import math

import numpy as np
import pytest

from repro.core import (OrcoDCSConfig, OrcoDCSFramework,
                        ResilientOrchestrationPolicy)
from repro.core.scheduler import EdgeTrainingScheduler
from repro.core.timing import OrchestrationTimingModel
from repro.scale import price_transmit, run_analytic
from repro.scale.analytic import (_normal_tail, failure_run_probability,
                                  forecast_fleet)
from repro.sim import ARQConfig, ChannelSpec, CodingSpec, FaultEvent, \
    FaultSchedule, UnreliableChannel
from repro.sim.channel import ideal_transmit_result
from repro.sim.sampler import (arq_slot_delivery_probability,
                               expected_slot_attempts)
from repro.wsn.link import sensor_link

TRAIN_ROUNDS = 120
MC_TRANSMITS = 4000


# ----------------------------------------------------------------------
# Unit: closed-form helpers
# ----------------------------------------------------------------------
class TestClosedFormHelpers:
    def test_slot_delivery_probability(self):
        assert arq_slot_delivery_probability(0.0, 3) == 1.0
        assert arq_slot_delivery_probability(0.2, 1) == pytest.approx(0.96)
        assert arq_slot_delivery_probability(0.5, 0) == pytest.approx(0.5)

    def test_expected_slot_attempts(self):
        assert expected_slot_attempts(0.0, 3) == 1.0
        # (1 - p^(R+1)) / (1 - p): attempt j radiates iff the first
        # j-1 were lost.
        assert expected_slot_attempts(0.5, 1) == pytest.approx(1.5)
        assert expected_slot_attempts(0.2, 2) == pytest.approx(
            (1 - 0.2 ** 3) / 0.8)

    def test_helper_validation(self):
        with pytest.raises(ValueError):
            arq_slot_delivery_probability(1.5, 1)
        with pytest.raises(ValueError):
            expected_slot_attempts(0.1, -1)

    @pytest.mark.parametrize("helper, loss, retries", [
        (arq_slot_delivery_probability, 0.1, -1),
        (arq_slot_delivery_probability, float("nan"), 1),
        (expected_slot_attempts, 1.0, 1),
        (expected_slot_attempts, float("nan"), 1),
    ], ids=["delivery-negative-retries", "delivery-nan-loss",
            "attempts-certain-loss", "attempts-nan-loss"])
    def test_helpers_refuse_bad_settings(self, helper, loss, retries):
        with pytest.raises(ValueError):
            helper(loss, retries)

    def test_normal_tail_without_variance_is_a_step(self):
        assert _normal_tail(2.0, 0.0, 1.0) == 1.0
        assert _normal_tail(1.0, 0.0, 1.0) == 0.0
        assert _normal_tail(0.0, -1.0, 1.0) == 0.0

    def test_normal_tail_matches_the_normal_cdf(self):
        assert _normal_tail(3.0, 4.0, 3.0) == pytest.approx(0.5)
        assert _normal_tail(0.0, 1.0, 1.959964) == pytest.approx(0.025,
                                                                 rel=1e-5)
        assert _normal_tail(1.0, 0.25, 0.0) == pytest.approx(1 - 0.0227501,
                                                             rel=1e-6)

    def test_hybrid_dominates_pure_fec(self):
        link = sensor_link()
        payload = 6 * link.max_payload_bytes      # six data frames
        fec = price_transmit(link, payload, 0.25, ARQConfig(max_retries=2),
                             CodingSpec(parity_frames=2))
        hybrid = price_transmit(link, payload, 0.25, ARQConfig(max_retries=2),
                                CodingSpec(parity_frames=2, arq_fallback=True))
        assert fec.frames == hybrid.frames == 6
        assert fec.p_deliver == pytest.approx(0.679, abs=1e-3)
        assert hybrid.p_deliver == pytest.approx(0.993, abs=1e-3)
        assert fec.p_deliver < hybrid.p_deliver <= 1.0

    @pytest.mark.parametrize("frames, loss, retries", [
        (3, 0.2, 1), (4, 0.3, 2), (1, 0.5, 0), (6, 0.1, 3)])
    def test_message_delivery_probability(self, frames, loss, retries):
        """Uncoded ARQ delivers iff every frame's slot delivers."""
        link = sensor_link()
        forecast = price_transmit(link, frames * link.max_payload_bytes,
                                  loss, ARQConfig(max_retries=retries))
        assert forecast.frames == frames
        assert forecast.p_deliver == pytest.approx(
            (1.0 - loss ** (retries + 1)) ** frames)

    @pytest.mark.parametrize("frames, parity, loss", [
        (6, 2, 0.25), (4, 1, 0.1), (10, 3, 0.3)])
    def test_fec_delivery_is_binomial_tail(self, frames, parity, loss):
        """Pure FEC decodes iff at most ``parity`` of the burst's
        ``frames + parity`` frames are erased."""
        link = sensor_link()
        forecast = price_transmit(link, frames * link.max_payload_bytes,
                                  loss, ARQConfig(max_retries=2),
                                  CodingSpec(parity_frames=parity))
        burst = frames + parity
        expected = sum(math.comb(burst, e) * loss ** e
                       * (1.0 - loss) ** (burst - e)
                       for e in range(parity + 1))
        assert forecast.parity_frames == parity
        assert forecast.p_deliver == pytest.approx(expected)

    @pytest.mark.parametrize("loss", [0.1, 0.3])
    def test_hybrid_repair_budget_drives_delivery_to_one(self, loss):
        link = sensor_link()
        payload = 6 * link.max_payload_bytes
        fec = price_transmit(link, payload, loss, ARQConfig(max_retries=0),
                             CodingSpec(parity_frames=1))
        hybrid = [price_transmit(link, payload, loss,
                                 ARQConfig(max_retries=retries),
                                 CodingSpec(parity_frames=1,
                                            arq_fallback=True)).p_deliver
                  for retries in (0, 2, 8, 40)]
        assert fec.p_deliver < hybrid[0]
        assert all(a < b for a, b in zip(hybrid, hybrid[1:]))
        assert hybrid[-1] == pytest.approx(1.0, abs=1e-12)

    def test_failure_run_probability_exact_cases(self):
        assert failure_run_probability(0.0, 100, 3) == 0.0
        assert failure_run_probability(0.3, 2, 3) == 0.0
        assert failure_run_probability(0.3, 3, 3) == pytest.approx(0.3 ** 3)
        assert failure_run_probability(1.0, 5, 5) == pytest.approx(1.0)
        # Monotone in the horizon.
        shorter = failure_run_probability(0.4, 10, 3)
        longer = failure_run_probability(0.4, 40, 3)
        assert longer > shorter

    @pytest.mark.parametrize("failure_prob, run_length", [
        (-0.1, 3), (1.5, 3), (float("nan"), 3), (0.3, 0),
    ], ids=["negative", "above-one", "nan", "empty-run"])
    def test_failure_run_probability_validation(self, failure_prob,
                                                run_length):
        with pytest.raises(ValueError):
            failure_run_probability(failure_prob, 10, run_length)

    def test_failure_run_probability_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        rounds, run_length, p = 30, 3, 0.35
        trials = rng.random((4000, rounds)) < p
        hits = 0
        for row in trials:
            streak = best = 0
            for failed in row:
                streak = streak + 1 if failed else 0
                best = max(best, streak)
            hits += best >= run_length
        exact = failure_run_probability(p, rounds, run_length)
        assert exact == pytest.approx(hits / 4000, abs=0.02)


# ----------------------------------------------------------------------
# Kernel: price_transmit vs the channel's Monte-Carlo means
# ----------------------------------------------------------------------
def mc_means(payload, loss, arq=None, coding=None, n=MC_TRANSMITS):
    channel = UnreliableChannel(sensor_link(), loss=loss, arq=arq,
                                coding=coding,
                                rng=np.random.default_rng(11))
    results = channel.transmit_batch(payload, n)
    return {
        "wire": float(np.mean([r.wire_bytes for r in results])),
        "received": float(np.mean([r.received_wire_bytes
                                   for r in results])),
        "delivered": float(np.mean([r.delivered for r in results])),
        "elapsed": float(np.mean([r.elapsed_s for r in results])),
    }


class TestPriceTransmitVsMonteCarlo:
    def test_clean_path_is_exact(self):
        link = sensor_link()
        forecast = price_transmit(link, 400, 0.0)
        ideal = ideal_transmit_result(link, 400)
        assert forecast.expected_wire_bytes == ideal.wire_bytes
        assert forecast.expected_elapsed_s == ideal.elapsed_s
        assert forecast.p_deliver == 1.0

    def test_empty_payload(self):
        forecast = price_transmit(sensor_link(), 0, 0.3)
        assert forecast.frames == 0
        assert forecast.p_deliver == 1.0
        assert forecast.expected_wire_bytes == 0.0

    @pytest.mark.parametrize("loss,retries", [(0.1, 1), (0.25, 3)])
    def test_arq_matches_sample_means(self, loss, retries):
        arq = ARQConfig(max_retries=retries)
        forecast = price_transmit(sensor_link(), 400, loss, arq=arq)
        mc = mc_means(400, loss, arq=arq)
        assert forecast.expected_wire_bytes == pytest.approx(
            mc["wire"], rel=0.03)
        assert forecast.expected_received_wire_bytes == pytest.approx(
            mc["received"], rel=0.03)
        assert forecast.p_deliver == pytest.approx(
            mc["delivered"], abs=0.02)
        assert forecast.expected_elapsed_s == pytest.approx(
            mc["elapsed"], rel=0.05)

    def test_fec_matches_sample_means(self):
        arq = ARQConfig(max_retries=1)
        coding = CodingSpec(parity_frames=2)
        forecast = price_transmit(sensor_link(), 400, 0.2, arq=arq,
                                  coding=coding)
        mc = mc_means(400, 0.2, arq=arq, coding=coding)
        # Open-loop FEC radiates a deterministic burst: wire is exact.
        assert forecast.expected_wire_bytes == pytest.approx(mc["wire"])
        assert forecast.p_deliver == pytest.approx(mc["delivered"],
                                                   abs=0.02)
        assert forecast.expected_received_wire_bytes == pytest.approx(
            mc["received"], rel=0.03)

    def test_hybrid_matches_sample_means(self):
        arq = ARQConfig(max_retries=2)
        coding = CodingSpec(parity_frames=2, arq_fallback=True)
        forecast = price_transmit(sensor_link(), 400, 0.25, arq=arq,
                                  coding=coding)
        mc = mc_means(400, 0.25, arq=arq, coding=coding)
        assert forecast.p_deliver == pytest.approx(mc["delivered"],
                                                   abs=0.02)
        assert forecast.expected_wire_bytes == pytest.approx(
            mc["wire"], rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="payload_bytes"):
            price_transmit(sensor_link(), -1, 0.1)
        with pytest.raises(ValueError, match="loss_rate"):
            price_transmit(sensor_link(), 10, 1.0)


# ----------------------------------------------------------------------
# Fleet: engine="analytic" vs engine="event"
# ----------------------------------------------------------------------
def build_fleet(engine, channels, recovery, clusters=4, devices=24,
                seed=0, battery_j=1e9, deadline_s=None):
    resilience = ResilientOrchestrationPolicy(
        recovery=recovery, max_consecutive_failures=50)
    scheduler = EdgeTrainingScheduler(
        "round_robin", rng=np.random.default_rng(seed), engine=engine,
        channels=channels, resilience=resilience)
    for index in range(clusters):
        config = OrcoDCSConfig(input_dim=devices,
                               latent_dim=max(4, devices // 6),
                               noise_sigma=0.05, seed=index, batch_size=16)
        timing = OrchestrationTimingModel(up=sensor_link(),
                                          down=sensor_link())
        data = np.random.default_rng(100 + index).standard_normal(
            (40, devices))
        scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config,
                                                            timing=timing),
                              data, batch_size=16,
                              aggregator_battery_j=battery_j,
                              deadline_s=deadline_s)
    return scheduler


SCENARIOS = [
    ("bernoulli-arq",
     lambda: ChannelSpec(loss=0.15, arq=ARQConfig(max_retries=3)), "arq"),
    ("bernoulli-fec",
     lambda: ChannelSpec(loss=0.12, arq=ARQConfig(max_retries=3)), "fec"),
    ("ge-indoor-arq",
     lambda: ChannelSpec.preset("802154_indoor",
                                arq=ARQConfig(max_retries=3)), "arq"),
]


class TestAnalyticVsEvent:
    @pytest.mark.parametrize("name,spec,recovery",
                             SCENARIOS, ids=[s[0] for s in SCENARIOS])
    def test_scenario_tolerances(self, name, spec, recovery):
        """The tentpole tolerance contract, per scenario."""
        event_report = build_fleet("event", spec(), recovery).run(
            rounds_per_cluster=TRAIN_ROUNDS)
        analytic_report = build_fleet("analytic", spec(), recovery).run(
            rounds_per_cluster=TRAIN_ROUNDS)

        event_energy = sum(event_report.energy_j.values())
        analytic_energy = sum(analytic_report.energy_j.values())
        assert analytic_energy == pytest.approx(event_energy, rel=0.06)

        event_delivered = sum(event_report.rounds_per_cluster.values())
        analytic_delivered = sum(
            analytic_report.delivered_rounds.values())
        assert analytic_delivered == pytest.approx(event_delivered,
                                                   rel=0.03)

        assert analytic_report.makespan_s == pytest.approx(
            event_report.makespan_s, rel=0.20)

        # Adaptive budgets derive from the scheduler's own recipe, so
        # they must mirror the event report exactly.
        assert analytic_report.arq_budgets == event_report.arq_budgets
        assert analytic_report.coding_budgets == event_report.coding_budgets

    def test_low_delivery_regime_bounds_makespan(self):
        """Outside the makespan envelope the forecast is a lower bound.

        FEC at loss 0.30 drops per-round delivery to ~0.56; the event
        engine's min-completed-rounds pick then re-serves failing
        clusters back-to-back and those retries serialize on the edge
        clock, inflating the observed makespan above the mean-field
        pipeline span.  Energy, delivered rounds and budgets are
        queueing-free expectations and must stay within tolerance.
        """
        spec = ChannelSpec(loss=0.30, arq=ARQConfig(max_retries=3))
        event_report = build_fleet("event", spec, "fec").run(
            rounds_per_cluster=TRAIN_ROUNDS)
        analytic_report = build_fleet("analytic", spec, "fec").run(
            rounds_per_cluster=TRAIN_ROUNDS)
        assert sum(analytic_report.energy_j.values()) == pytest.approx(
            sum(event_report.energy_j.values()), rel=0.06)
        assert sum(analytic_report.delivered_rounds.values()) \
            == pytest.approx(sum(event_report.rounds_per_cluster.values()),
                             rel=0.05)
        assert analytic_report.coding_budgets == event_report.coding_budgets
        assert analytic_report.makespan_s <= event_report.makespan_s * 1.05

    def test_clean_channel_is_near_exact(self):
        event_report = build_fleet("event", None, "arq").run(
            rounds_per_cluster=20)
        analytic_report = build_fleet("analytic", None, "arq").run(
            rounds_per_cluster=20)
        assert sum(analytic_report.energy_j.values()) == pytest.approx(
            sum(event_report.energy_j.values()), rel=1e-9)
        assert sum(analytic_report.delivered_rounds.values()) \
            == pytest.approx(80.0, rel=1e-12)


class TestAnalyticEngine:
    def test_report_shape(self):
        scheduler = build_fleet("analytic",
                                ChannelSpec(loss=0.1,
                                            arq=ARQConfig(max_retries=2)),
                                "arq")
        report = scheduler.run(rounds_per_cluster=30)
        assert report.engine == "analytic"
        assert report.expected_values
        assert set(report.delivered_rounds) == {"c0", "c1", "c2", "c3"}
        assert all(math.isnan(loss)
                   for loss in report.final_loss_per_cluster.values())
        assert all(0.0 < p <= 1.0
                   for p in report.deadline_miss_probability.values())
        for name, rounds in report.rounds_per_cluster.items():
            assert rounds == round(report.delivered_rounds[name])

    def test_execution_plan_reason(self):
        scheduler = build_fleet("analytic", None, "arq")
        plan = scheduler.execution_plan()
        assert plan.engine == "analytic"
        assert "closed-form" in plan.reason

    def test_faults_rejected(self):
        faults = FaultSchedule([FaultEvent(1.0, "node_death", "c0",
                                           device=0)])
        with pytest.raises(ValueError, match="analytic"):
            EdgeTrainingScheduler("round_robin",
                                  rng=np.random.default_rng(0),
                                  engine="analytic",
                                  fault_schedule=faults)

    def test_battery_limit_prices_retirement(self):
        scheduler = build_fleet("analytic",
                                ChannelSpec(loss=0.1,
                                            arq=ARQConfig(max_retries=2)),
                                "arq", battery_j=1e-4)
        report = scheduler.run(rounds_per_cluster=200)
        assert report.dead_clusters
        assert all("expected" in reason
                   for reason in report.dead_clusters.values())
        assert all(lifetime < 200
                   for lifetime in report.lifetime_rounds.values())

    def test_deadline_miss_probability_orders_with_deadline(self):
        spec = ChannelSpec(loss=0.2, arq=ARQConfig(max_retries=2))
        tight = build_fleet("analytic", spec, "arq", deadline_s=0.5)
        loose = build_fleet("analytic", spec, "arq", deadline_s=1e6)
        tight_p = tight.run(rounds_per_cluster=30) \
            .deadline_miss_probability["c0"]
        # A comfortably loose deadline prices to zero miss probability,
        # and zero entries are elided from the report dict.
        loose_p = loose.run(rounds_per_cluster=30) \
            .deadline_miss_probability.get("c0", 0.0)
        assert tight_p >= loose_p
        assert loose_p == pytest.approx(0.0, abs=1e-9)

    def test_run_analytic_matches_engine_dispatch(self):
        scheduler = build_fleet("analytic", None, "arq")
        direct = run_analytic(scheduler, 10)
        dispatched = build_fleet("analytic", None, "arq").run(
            rounds_per_cluster=10)
        assert direct.delivered_rounds == dispatched.delivered_rounds
        assert direct.energy_j == dispatched.energy_j

    def test_forecast_fleet_mirrors_cluster_names(self):
        scheduler = build_fleet("analytic", None, "arq")
        forecasts = forecast_fleet(scheduler, 10)
        assert set(forecasts) == {c.name for c in scheduler.clusters}
        for forecast in forecasts.values():
            assert forecast.p_round == 1.0
            assert forecast.expected_delivered_rounds == 10.0
