"""Event-engine tests: equivalence anchor + resilient orchestration."""

import numpy as np
import pytest

from repro.core import (
    EdgeTrainingScheduler,
    OrcoDCSConfig,
    OrcoDCSFramework,
    ResilientOrchestrationPolicy,
)
from repro.sim import (
    ARQConfig,
    ChannelSpec,
    CodingSpec,
    FaultEvent,
    FaultSchedule,
)
from repro.wsn import place_uniform

DIM = 24
LATENT = 4
BATCH = 8
ROWS = 48


def build_scheduler(engine, policy="round_robin", clusters=3, seed=0,
                    with_positions=False, **kwargs):
    scheduler = EdgeTrainingScheduler(policy, rng=np.random.default_rng(seed),
                                      engine=engine, **kwargs)
    for index in range(clusters):
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=index,
                               noise_sigma=0.05, batch_size=BATCH)
        data = np.random.default_rng(100 + index).random((ROWS, DIM))
        positions = (place_uniform(DIM, (80.0, 80.0),
                                   np.random.default_rng(index))
                     if with_positions else None)
        scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config), data,
                              batch_size=BATCH, positions=positions)
    return scheduler


class TestZeroFaultEquivalence:
    """The correctness anchor: zero faults, zero loss => sequential run."""

    @pytest.mark.parametrize("policy", ["fifo", "round_robin",
                                        "loss_priority", "deadline"])
    def test_trajectories_ledger_and_clock_match(self, policy):
        sequential = build_scheduler("sequential", policy=policy)
        report_seq = sequential.run(rounds_per_cluster=10)
        event = build_scheduler("event", policy=policy)
        report_ev = event.run(rounds_per_cluster=10)

        assert report_ev.engine == "event"
        for c_seq, c_ev in zip(sequential.clusters, event.clusters):
            assert np.abs(c_ev.history.losses
                          - c_seq.history.losses).max() <= 1e-6
            assert np.abs(c_ev.history.times
                          - c_seq.history.times).max() <= 1e-6
            # Transmission ledgers agree record-for-record.
            seq_ledger = c_seq.trainer.ledger
            ev_ledger = c_ev.trainer.ledger
            assert len(ev_ledger) == len(seq_ledger)
            assert ev_ledger.total_wire_bytes() == seq_ledger.total_wire_bytes()
            assert ev_ledger.by_kind() == seq_ledger.by_kind()
            assert abs(c_ev.trainer.clock_s - c_seq.trainer.clock_s) <= 1e-6
        assert report_ev.makespan_s == pytest.approx(report_seq.makespan_s,
                                                     abs=1e-6)
        assert report_ev.total_edge_time_s == pytest.approx(
            report_seq.total_edge_time_s, abs=1e-6)
        for name in report_seq.completion_times:
            np.testing.assert_allclose(report_ev.completion_times[name],
                                       report_seq.completion_times[name],
                                       atol=1e-9, rtol=0)

    def test_no_failures_or_deaths_reported(self):
        report = build_scheduler("event").run(rounds_per_cluster=5)
        assert report.failed_rounds == {}
        assert report.dead_clusters == {}
        assert not report.halted
        assert report.faults_applied == 0
        assert all(e > 0 for e in report.energy_j.values())

    def test_deadline_misses_match_sequential(self):
        def with_deadlines(engine):
            scheduler = EdgeTrainingScheduler(
                "deadline", rng=np.random.default_rng(0), engine=engine)
            config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                                   batch_size=BATCH)
            data = np.random.default_rng(0).random((ROWS, DIM))
            scheduler.add_cluster("tight", OrcoDCSFramework(config), data,
                                  batch_size=BATCH, deadline_s=1e-9)
            config2 = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=1,
                                    batch_size=BATCH)
            data2 = np.random.default_rng(1).random((ROWS, DIM))
            scheduler.add_cluster("loose", OrcoDCSFramework(config2), data2,
                                  batch_size=BATCH, deadline_s=1e9)
            return scheduler.run(rounds_per_cluster=3)

        assert with_deadlines("event").deadline_misses \
            == with_deadlines("sequential").deadline_misses == ["tight"]


class TestEngineGuards:
    def test_faults_require_event_engine(self):
        schedule = FaultSchedule([FaultEvent(1.0, "cluster_death", "c0")])
        with pytest.raises(ValueError):
            EdgeTrainingScheduler("fifo", engine="sequential",
                                  fault_schedule=schedule)

    def test_lossy_channels_require_event_engine(self):
        with pytest.raises(ValueError):
            EdgeTrainingScheduler("fifo", engine="batched",
                                  channels=ChannelSpec(loss=0.1))

    def test_ideal_channelspec_allowed_anywhere(self):
        EdgeTrainingScheduler("fifo", engine="sequential",
                              channels=ChannelSpec())

    def test_positions_shape_validated(self):
        scheduler = EdgeTrainingScheduler("fifo", engine="event")
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0)
        with pytest.raises(ValueError):
            scheduler.add_cluster("c", OrcoDCSFramework(config),
                                  np.random.default_rng(0).random((ROWS, DIM)),
                                  positions=np.zeros((3, 2)))


class TestUnreliableChannels:
    def test_retransmissions_appear_in_ledger_and_clock(self):
        ideal = build_scheduler("event", seed=0)
        ideal_report = ideal.run(rounds_per_cluster=8)
        lossy = build_scheduler("event", seed=0,
                                channels=ChannelSpec(loss=0.2))
        lossy_report = lossy.run(rounds_per_cluster=8)

        retx = sum(c.trainer.ledger.total_wire_bytes("latent_uplink_retx")
                   + c.trainer.ledger.total_wire_bytes("recon_downlink_retx")
                   for c in lossy.clusters)
        assert retx > 0
        assert lossy_report.makespan_s > ideal_report.makespan_s
        assert sum(lossy_report.energy_j.values()) \
            > sum(ideal_report.energy_j.values())
        # Losses are unaffected when every round still delivers: the
        # channel costs energy and time, not training signal.
        for c_ideal, c_lossy in zip(ideal.clusters, lossy.clusters):
            if len(c_ideal.history.losses) == len(c_lossy.history.losses):
                np.testing.assert_allclose(c_lossy.history.losses,
                                           c_ideal.history.losses, rtol=1e-12)

    def test_arq_exhaustion_fails_rounds(self):
        scheduler = build_scheduler(
            "event", clusters=2,
            channels=ChannelSpec(loss=0.45, arq=ARQConfig(max_retries=0)),
            resilience=ResilientOrchestrationPolicy(
                max_consecutive_failures=1000))
        report = scheduler.run(rounds_per_cluster=10)
        assert sum(report.failed_rounds.values()) > 0
        for cluster in scheduler.clusters:
            completed = report.rounds_per_cluster[cluster.name]
            assert completed == len(cluster.history.rounds)
            assert completed + report.failed_rounds.get(cluster.name, 0) == 10
        failed_kinds = [k for c in scheduler.clusters
                        for k in c.trainer.ledger.by_kind()
                        if k.endswith("_failed")]
        assert failed_kinds

    def test_flaky_cluster_retired_after_consecutive_failures(self):
        scheduler = build_scheduler(
            "event", clusters=2,
            channels=ChannelSpec(loss=0.9, arq=ARQConfig(max_retries=0)),
            resilience=ResilientOrchestrationPolicy(
                max_consecutive_failures=3))
        report = scheduler.run(rounds_per_cluster=20)
        assert report.dead_clusters
        assert any("consecutive" in reason
                   for reason in report.dead_clusters.values())


class TestFaultInjection:
    def test_node_death_masks_training_but_run_completes(self):
        faults = FaultSchedule.first_death("c0", 1e-4, device=5)
        scheduler = build_scheduler("event", fault_schedule=faults)
        report = scheduler.run(rounds_per_cluster=8)
        assert report.faults_applied == 1
        assert report.rounds_per_cluster["c0"] == 8
        assert np.isfinite(scheduler.clusters[0].history.losses).all()

    def test_aggregator_death_fails_over_with_positions(self):
        faults = FaultSchedule([FaultEvent(1e-4, "aggregator_death", "c0")])
        scheduler = build_scheduler(
            "event", with_positions=True, fault_schedule=faults,
            resilience=ResilientOrchestrationPolicy(
                on_aggregator_death="replace", failover_downtime_s=0.01))
        report = scheduler.run(rounds_per_cluster=6)
        assert "c0" not in report.dead_clusters
        assert report.rounds_per_cluster["c0"] == 6

    def test_aggregator_death_skip_policy_retires_cluster(self):
        faults = FaultSchedule([FaultEvent(1e-4, "aggregator_death", "c0")])
        scheduler = build_scheduler(
            "event", fault_schedule=faults,
            resilience=ResilientOrchestrationPolicy(
                on_aggregator_death="skip"))
        report = scheduler.run(rounds_per_cluster=6)
        assert "c0" in report.dead_clusters
        assert report.rounds_per_cluster["c0"] < 6
        # Other clusters keep their full budget.
        assert report.rounds_per_cluster["c1"] == 6

    def test_attrition_below_quorum_retires_cluster(self):
        deaths = FaultSchedule.attrition("c0", range(0, 16), 1e-4, 1e-6)
        scheduler = build_scheduler(
            "event", fault_schedule=deaths,
            resilience=ResilientOrchestrationPolicy(min_device_fraction=0.5))
        report = scheduler.run(rounds_per_cluster=6)
        assert "c0" in report.dead_clusters
        assert "attrition" in report.dead_clusters["c0"]

    def test_straggler_stretches_makespan(self):
        ideal = build_scheduler("event").run(rounds_per_cluster=6)
        window = FaultSchedule.straggler_window(
            "c0", 1e-4, ideal.makespan_s, factor=10.0)
        slow = build_scheduler("event", fault_schedule=window)
        slow_report = slow.run(rounds_per_cluster=6)
        assert slow_report.makespan_s > ideal.makespan_s
        assert slow_report.rounds_per_cluster["c0"] == 6

    def test_straggler_skip_policy_retires(self):
        window = FaultSchedule([
            FaultEvent(1e-4, "straggler", "c0", magnitude=10.0)])
        scheduler = build_scheduler(
            "event", fault_schedule=window,
            resilience=ResilientOrchestrationPolicy(on_straggler="skip",
                                                    straggler_cutoff=8.0))
        report = scheduler.run(rounds_per_cluster=6)
        assert "c0" in report.dead_clusters

    def test_quorum_halts_the_fleet(self):
        faults = FaultSchedule([
            FaultEvent(1e-4, "cluster_death", "c0"),
            FaultEvent(2e-4, "cluster_death", "c1"),
        ])
        scheduler = build_scheduler(
            "event", clusters=3, fault_schedule=faults,
            resilience=ResilientOrchestrationPolicy(quorum=0.5))
        report = scheduler.run(rounds_per_cluster=50)
        assert report.halted
        assert report.rounds_per_cluster["c2"] < 50

    def test_battery_depletion_retires_cluster(self):
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(0), engine="event")
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                               batch_size=BATCH)
        data = np.random.default_rng(0).random((ROWS, DIM))
        scheduler.add_cluster("tiny-battery", OrcoDCSFramework(config), data,
                              batch_size=BATCH, aggregator_battery_j=1e-4)
        report = scheduler.run(rounds_per_cluster=200)
        assert "tiny-battery" in report.dead_clusters
        assert "battery" in report.dead_clusters["tiny-battery"]
        assert report.rounds_per_cluster["tiny-battery"] < 200

    def test_brownout_accelerates_battery_death(self):
        def run_with(brownout):
            faults = FaultSchedule(
                [FaultEvent(1e-6, "brownout", "c", magnitude=0.02)]
                if brownout else [])
            scheduler = EdgeTrainingScheduler(
                "round_robin", rng=np.random.default_rng(0), engine="event",
                fault_schedule=faults)
            config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                                   batch_size=BATCH)
            data = np.random.default_rng(0).random((ROWS, DIM))
            scheduler.add_cluster("c", OrcoDCSFramework(config), data,
                                  batch_size=BATCH,
                                  aggregator_battery_j=0.02)
            return scheduler.run(rounds_per_cluster=400)

        healthy = run_with(brownout=False)
        browned = run_with(brownout=True)
        assert browned.rounds_per_cluster["c"] \
            < healthy.rounds_per_cluster["c"]


class TestReviewRegressions:
    def test_deadline_miss_recorded_when_final_round_fails(self):
        """A cluster whose last budgeted round is lost to ARQ exhaustion
        must still be checked against its deadline."""
        scheduler = EdgeTrainingScheduler(
            "deadline", rng=np.random.default_rng(0), engine="event",
            channels=ChannelSpec(loss=0.6, arq=ARQConfig(max_retries=0)),
            resilience=ResilientOrchestrationPolicy(
                max_consecutive_failures=1000))
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                               batch_size=BATCH)
        data = np.random.default_rng(0).random((ROWS, DIM))
        scheduler.add_cluster("doomed", OrcoDCSFramework(config), data,
                              batch_size=BATCH, deadline_s=1e-9)
        report = scheduler.run(rounds_per_cluster=6)
        assert sum(report.failed_rounds.values()) > 0
        assert "doomed" in report.deadline_misses

    def test_retransmissions_field_exact_on_failure(self):
        from repro.sim import UnreliableChannel
        from repro.wsn import LinkModel

        link = LinkModel(bandwidth_bps=8e6, latency_s=0.0,
                         max_payload_bytes=100, header_bytes=0)
        channel = UnreliableChannel(link, loss=0.95, rng=np.random.default_rng(0),
                                    arq=ARQConfig(max_retries=3))
        result = channel.transmit(1000)
        assert not result.delivered
        assert result.retransmissions >= 0
        # Attempts = one first try per frame reached + the retransmissions.
        frames_tried = result.attempts - result.retransmissions
        assert 1 <= frames_tried <= result.frames


class TestAdaptiveARQBudgets:
    def test_budget_rule_from_slack_and_battery(self):
        policy = ResilientOrchestrationPolicy(
            adaptive_arq=True, arq_min_retries=0, arq_max_retries=6)
        base = 2
        # Slack-rich and battery-healthy: raise to the max budget.
        assert policy.arq_retries_for(base, float("inf"), 100.0) == 6
        assert policy.arq_retries_for(base, 3.0, 100.0) == 6
        # Moderate slack: keep the fleet-uniform budget.
        assert policy.arq_retries_for(base, 1.5, 100.0) == 2
        # Deadline tighter than the ideal run: retries only hurt.
        assert policy.arq_retries_for(base, 0.5, 100.0) == 0
        # Battery-poor: conserve airtime whatever the slack.
        assert policy.arq_retries_for(base, float("inf"), 0.5) == 0
        # Disabled: always the base budget.
        off = ResilientOrchestrationPolicy()
        assert off.arq_retries_for(base, 0.5, 0.5) == base

    def test_adaptive_arq_validation(self):
        with pytest.raises(ValueError):
            ResilientOrchestrationPolicy(arq_min_retries=4, arq_max_retries=2)
        with pytest.raises(ValueError):
            ResilientOrchestrationPolicy(arq_slack_rich=0.5)


    def test_slack_rich_cluster_retries_more_than_tight(self):
        """The satellite contract: under the same lossy channel, the
        cluster with deadline slack retransmits (and delivers); the
        deadline-tight one conserves airtime and loses rounds instead."""
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(0), engine="event",
            channels=ChannelSpec(loss=0.35, arq=ARQConfig(max_retries=2)),
            resilience=ResilientOrchestrationPolicy(
                adaptive_arq=True, arq_min_retries=0, arq_max_retries=6,
                max_consecutive_failures=1000))
        for name, deadline in (("rich", None), ("tight", 1e-9)):
            config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT,
                                   seed=0, noise_sigma=0.05,
                                   batch_size=BATCH)
            data = np.random.default_rng(0).random((ROWS, DIM))
            scheduler.add_cluster(name, OrcoDCSFramework(config), data,
                                  batch_size=BATCH, deadline_s=deadline)
        report = scheduler.run(rounds_per_cluster=15)

        def retx_bytes(cluster):
            ledger = cluster.trainer.ledger
            return (ledger.total_wire_bytes("latent_uplink_retx")
                    + ledger.total_wire_bytes("recon_downlink_retx"))

        rich, tight = scheduler.clusters
        assert retx_bytes(rich) > retx_bytes(tight) == 0
        assert report.failed_rounds.get("tight", 0) \
            > report.failed_rounds.get("rich", 0)


class TestPolicySettingValidation:
    """A bad resilience setting fails at construction, not mid-run.

    NaN compares false both ways, so a ``value < bound`` guard lets it
    through and the rule it feeds is silently disabled."""

    def test_fractional_fec_max_parity_rejected(self):
        with pytest.raises(ValueError, match="fec_max_parity"):
            ResilientOrchestrationPolicy(recovery="fec", fec_max_parity=2.5)
        # numpy integers are integers.
        policy = ResilientOrchestrationPolicy(recovery="fec",
                                              fec_max_parity=np.int64(4))
        assert 0 < policy.coding_parity_for(8, 0.3, 100.0) <= 4

    def test_nan_failover_downtime_rejected(self):
        with pytest.raises(ValueError, match="failover_downtime_s"):
            ResilientOrchestrationPolicy(failover_downtime_s=float("nan"))

    def test_nan_straggler_cutoff_rejected(self):
        with pytest.raises(ValueError, match="straggler_cutoff"):
            ResilientOrchestrationPolicy(on_straggler="skip",
                                         straggler_cutoff=float("nan"))

    def test_nan_arq_slack_rich_rejected(self):
        with pytest.raises(ValueError, match="arq_slack_rich"):
            ResilientOrchestrationPolicy(adaptive_arq=True,
                                         arq_slack_rich=float("nan"))

    def test_nan_arq_battery_margin_rejected(self):
        with pytest.raises(ValueError, match="arq_battery_margin"):
            ResilientOrchestrationPolicy(adaptive_arq=True,
                                         arq_battery_margin=float("nan"))


class TestCodedRecovery:
    """Erasure-coded uplink recovery: fec/hybrid strategies end to end."""

    def _build(self, recovery="fec", segment_batching=True, coding=None,
               loss=0.15, faults=None, policy="round_robin",
               clusters=5, battery_j=1e9):
        spec = ChannelSpec(loss=loss, arq=ARQConfig(max_retries=1),
                           coding=coding)
        scheduler = EdgeTrainingScheduler(
            policy, rng=np.random.default_rng(0), engine="event",
            channels=spec, fault_schedule=faults,
            resilience=ResilientOrchestrationPolicy(recovery=recovery),
            segment_batching=segment_batching)
        for index in range(clusters):
            config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT,
                                   seed=index, noise_sigma=0.05,
                                   batch_size=BATCH)
            data = np.random.default_rng(100 + index).random((ROWS, DIM))
            scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config),
                                  data, batch_size=BATCH,
                                  aggregator_battery_j=battery_j)
        return scheduler

    def _assert_bit_identical(self, **kwargs):
        fused = self._build(segment_batching=True, **kwargs)
        fused_report = fused.run(rounds_per_cluster=15)
        unfused = self._build(segment_batching=False, **kwargs)
        unfused_report = unfused.run(rounds_per_cluster=15)
        assert fused_report.fused_rounds > 0
        assert unfused_report.fused_rounds == 0
        for c_f, c_u in zip(fused.clusters, unfused.clusters):
            assert np.array_equal(c_f.history.times, c_u.history.times)
            assert c_f.trainer.clock_s == c_u.trainer.clock_s
            assert c_f.trainer.ledger.by_kind() == c_u.trainer.ledger.by_kind()
            assert len(c_f.trainer.ledger) == len(c_u.trainer.ledger)
            if len(c_f.history.losses):
                assert np.abs(c_f.history.losses
                              - c_u.history.losses).max() <= 1e-9
        assert fused_report.makespan_s == unfused_report.makespan_s
        assert fused_report.completion_times == unfused_report.completion_times
        assert fused_report.failed_rounds == unfused_report.failed_rounds
        assert fused_report.energy_j == unfused_report.energy_j
        assert fused_report.coding_budgets == unfused_report.coding_budgets
        return fused, fused_report

    def test_fec_fused_run_bit_identical_to_unfused(self):
        """Acceptance: coded lossy runs fuse with bit-identity."""
        fused, report = self._assert_bit_identical(recovery="fec")
        assert report.coding_budgets and all(
            k > 0 for k in report.coding_budgets.values())
        ledger = fused.clusters[0].trainer.ledger
        assert ledger.total_wire_bytes("latent_uplink_fec") > 0
        assert ledger.total_wire_bytes("recon_downlink_fec") > 0
        # Pure FEC is open loop: no retransmission records at all.
        assert ledger.total_wire_bytes("latent_uplink_retx") == 0
        assert ledger.total_wire_bytes("recon_downlink_retx") == 0

    def test_hybrid_fused_run_bit_identical_to_unfused(self):
        self._assert_bit_identical(recovery="hybrid")

    def test_explicit_coding_spec_respected(self):
        fused, report = self._assert_bit_identical(
            recovery="arq", coding=CodingSpec(parity_frames=3))
        assert set(report.coding_budgets.values()) == {3}

    def test_coded_run_with_faults_fuses_bit_identically(self):
        faults = FaultSchedule([
            FaultEvent(0.05, "node_death", "c0", device=3),
            FaultEvent(0.3, "straggler", "c1", magnitude=2.0),
            FaultEvent(0.6, "recover", "c1"),
        ])
        _, report = self._assert_bit_identical(recovery="fec", faults=faults)
        assert report.faults_applied == 3

    def test_fec_loses_fewer_rounds_than_tight_arq_at_high_loss(self):
        """The motivating contrast: at heavy loss a tight ARQ budget
        loses whole rounds; adaptive parity keeps delivering."""
        arq = self._build(recovery="arq", loss=0.3)
        arq_report = arq.run(rounds_per_cluster=15)
        fec = self._build(recovery="fec", loss=0.3)
        fec_report = fec.run(rounds_per_cluster=15)
        assert sum(fec_report.failed_rounds.values()) \
            < sum(arq_report.failed_rounds.values())

    def test_battery_poor_cluster_gets_leaner_parity(self):
        rich = self._build(recovery="fec", loss=0.25)
        rich_report = rich.run(rounds_per_cluster=10)
        poor = self._build(recovery="fec", loss=0.25, battery_j=1e-3)
        poor_report = poor.run(rounds_per_cluster=10)
        assert all(
            poor_report.coding_budgets[name] <= rich_report.coding_budgets[name]
            for name in rich_report.coding_budgets)

    def test_coded_channels_require_event_engine(self):
        with pytest.raises(ValueError):
            EdgeTrainingScheduler(
                "fifo", engine="batched",
                channels=ChannelSpec(coding=CodingSpec(2)))
        with pytest.raises(ValueError):
            EdgeTrainingScheduler(
                "fifo", engine="sequential", channels=ChannelSpec(),
                resilience=ResilientOrchestrationPolicy(recovery="fec"))

    def test_coded_lossless_channel_is_traced(self):
        scheduler = self._build(recovery="fec", loss=None)
        plan = scheduler.execution_plan()
        assert plan.fused and plan.traced
        report = scheduler.run(rounds_per_cluster=5)
        # Lossless channel: the adaptive rule provisions zero parity.
        assert set(report.coding_budgets.values()) == {0}
