"""Event-engine tests: equivalence anchor + resilient orchestration."""

import numpy as np
import pytest

from repro.core import (
    EdgeTrainingScheduler,
    OrcoDCSConfig,
    OrcoDCSFramework,
    ResilientOrchestrationPolicy,
)
from repro.core.scheduler import _EventClusterState
from repro.obs import RoundCompleted, TelemetryBus
from repro.serve import RunController
from repro.sim import (
    ARQConfig,
    ChannelSpec,
    CodingSpec,
    EventScheduler,
    FaultEvent,
    FaultSchedule,
    apply_fault,
)
from repro.wsn import place_uniform, select_aggregator

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
        faults = FaultSchedule([FaultEvent(1e-4, "node_death", "c0", device=5)])
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

    @pytest.mark.parametrize("kind", ["node_death", "node_revive"])
    def test_out_of_range_device_fails_before_any_round(self, kind):
        faults = FaultSchedule([FaultEvent(1e-2, kind, "c1", device=DIM)])
        scheduler = build_scheduler("event", fault_schedule=faults)
        with pytest.raises(ValueError, match=f"device {DIM} of cluster 'c1'"):
            scheduler.run(rounds_per_cluster=8)
        assert all(len(c.history.rounds) == 0 for c in scheduler.clusters)

    def test_attrition_below_quorum_retires_cluster(self):
        deaths = FaultSchedule([
            FaultEvent(1e-4 + i * 1e-6, "node_death", "c0", device=i)
            for i in range(16)])
        scheduler = build_scheduler(
            "event", fault_schedule=deaths,
            resilience=ResilientOrchestrationPolicy(min_device_fraction=0.5))
        report = scheduler.run(rounds_per_cluster=6)
        assert "c0" in report.dead_clusters
        assert "attrition" in report.dead_clusters["c0"]

    def test_fault_after_the_run_never_fires(self):
        """A fault past the makespan lands on a finished run: c1 trained
        all its rounds, so it is neither killed nor counted."""
        ideal = build_scheduler("event").run(rounds_per_cluster=8)
        faults = FaultSchedule([FaultEvent(100.0, "cluster_death", "c1")])
        report = build_scheduler("event", fault_schedule=faults).run(
            rounds_per_cluster=8)
        assert report.makespan_s == ideal.makespan_s < 100.0
        assert report.rounds_per_cluster["c1"] == 8
        assert report.faults_applied == 0
        assert report.dead_clusters == {}
        assert report.retirement_reasons == {}

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    def test_failover_in_the_last_round_keeps_the_makespan(self, fused):
        """A failover delays the cluster's next round; after c0's last
        round there is none, so the run ends when it did without the
        fault, and a fault after that end never fires."""
        ideal = build_scheduler("event", segment_batching=fused).run(
            rounds_per_cluster=8)
        last = ideal.completion_times["c0"][-1]
        faults = FaultSchedule([
            FaultEvent(last - 1e-4, "aggregator_death", "c0"),
            FaultEvent(last - 1e-4 + 0.5, "node_death", "c1", device=3)])
        report = build_scheduler(
            "event", segment_batching=fused, fault_schedule=faults,
            resilience=ResilientOrchestrationPolicy(
                failover_downtime_s=1.0)).run(rounds_per_cluster=8)
        assert report.makespan_s == ideal.makespan_s
        assert report.completion_times == ideal.completion_times
        assert report.faults_applied == 1

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    def test_failover_after_a_cluster_finished_keeps_the_makespan(self,
                                                                  fused):
        """Under ``fifo`` c0 finishes first; its aggregator dies while c1
        and c2 still train.  The failover fires, but the downtime has no
        round of c0's left to delay."""
        ideal = build_scheduler("event", policy="fifo",
                                segment_batching=fused).run(
            rounds_per_cluster=8)
        c0_done = ideal.completion_times["c0"][-1]
        assert c0_done + 1e-3 < ideal.makespan_s
        faults = FaultSchedule([
            FaultEvent(c0_done + 1e-3, "aggregator_death", "c0")])
        report = build_scheduler(
            "event", policy="fifo", segment_batching=fused,
            fault_schedule=faults,
            resilience=ResilientOrchestrationPolicy(
                failover_downtime_s=10.0)).run(rounds_per_cluster=8)
        assert report.faults_applied == 1
        assert report.dead_clusters == {}
        assert report.makespan_s == ideal.makespan_s
        assert report.completion_times == ideal.completion_times

    def test_cancelled_run_skips_faults_after_its_end(self):
        """A cancel ends the run at its boundary; a fault scheduled
        after that never fires."""
        bus = TelemetryBus()
        controller = RunController()
        completed = []

        def on_round(event):
            completed.append(event)
            if len(completed) == 4:
                controller.cancel()

        bus.subscribe(on_round, kinds=[RoundCompleted.kind])
        faults = FaultSchedule([
            FaultEvent(0.1, "straggler", "c0", magnitude=2.0)])
        report = build_scheduler(
            "event", fault_schedule=faults, segment_batching=False,
            telemetry=bus, control=controller).run(rounds_per_cluster=8)
        assert sum(report.rounds_per_cluster.values()) == 4
        assert report.makespan_s < 0.1
        assert report.faults_applied == 0

    def test_straggler_stretches_makespan(self):
        ideal = build_scheduler("event").run(rounds_per_cluster=6)
        window = FaultSchedule([
            FaultEvent(1e-4, "straggler", "c0", magnitude=10.0),
            FaultEvent(ideal.makespan_s, "recover", "c0")])
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


class TestFaultTargetState:
    """The event engine's per-cluster state is the one fault target: each
    event, dispatched through :func:`apply_fault` as the injector fires
    it, mutates the state directly."""

    def state(self, with_positions=True, **policy):
        scheduler = build_scheduler("event", clusters=1,
                                    with_positions=with_positions)
        return _EventClusterState(
            scheduler.clusters[0], ResilientOrchestrationPolicy(**policy),
            EventScheduler(), (None, None), np.random.default_rng(0), 100.0)

    def bystander(self, state):
        return next(d for d in range(DIM) if d != state.aggregator_device)

    def test_node_death_marks_dead(self):
        state = self.state()
        device = self.bystander(state)
        apply_fault(FaultEvent(0.0, "node_death", "c0", device=device), state)
        assert not state.alive_mask[device]
        assert state.device_fraction == pytest.approx((DIM - 1) / DIM)
        assert state.failovers == 0 and not state.dead

    @pytest.mark.parametrize("device", [-1, DIM])
    def test_unknown_device_rejected(self, device):
        # FaultEvent refuses -1 and FaultInjector.arm refuses DIM; the
        # state keeps its own check for direct callers.
        state = self.state()
        with pytest.raises(IndexError, match="no device"):
            state.kill_device(device)
        assert state.alive_mask.all()

    def test_revive_restores_node(self):
        state = self.state()
        device = self.bystander(state)
        apply_fault(FaultEvent(0.0, "node_death", "c0", device=device), state)
        apply_fault(FaultEvent(1.0, "node_revive", "c0", device=device), state)
        assert state.alive_mask[device]
        assert state.device_fraction == 1.0

    def test_aggregator_death_triggers_proximity_failover(self):
        state = self.state(failover_downtime_s=2.0)
        old_head = state.aggregator_device
        apply_fault(FaultEvent(0.0, "aggregator_death", "c0"), state)
        assert state.aggregator_device != old_head
        assert state.alive_mask[state.aggregator_device]
        assert state.failovers == 1
        # The replacement is the proximity-rule winner among survivors,
        # and re-election keeps the cluster off the air for the downtime.
        alive = np.flatnonzero(state.alive_mask)
        positions = state.cluster.positions
        assert state.aggregator_device == alive[select_aggregator(
            positions[alive])]
        assert state.ready_at == pytest.approx(2.0)
        assert not state.dead

    def test_failover_without_positions_promotes_first_survivor(self):
        state = self.state(with_positions=False)
        assert state.aggregator_device == 0
        apply_fault(FaultEvent(0.0, "aggregator_death", "c0"), state)
        assert state.aggregator_device == 1
        assert state.failovers == 1

    def test_skip_policy_retires_on_aggregator_death(self):
        state = self.state(on_aggregator_death="skip")
        apply_fault(FaultEvent(0.0, "aggregator_death", "c0"), state)
        assert state.dead and "skip" in state.dead_reason
        assert state.failovers == 0

    def test_last_device_death_retires(self):
        state = self.state(min_device_fraction=0.0)
        for device in range(DIM):
            apply_fault(FaultEvent(0.0, "node_death", "c0", device=device),
                        state)
        assert state.device_fraction == 0.0
        assert state.dead
        assert state.dead_reason == "no surviving device to promote"

    def test_brownout_scales_batteries(self):
        state = self.state()
        before = state.battery.remaining_j
        apply_fault(FaultEvent(0.0, "brownout", "c0", magnitude=0.25), state)
        assert state.battery.remaining_j == pytest.approx(0.25 * before)
        assert not state.dead

    def test_total_brownout_retires(self):
        state = self.state()
        apply_fault(FaultEvent(0.0, "brownout", "c0", magnitude=0.0), state)
        assert state.battery.remaining_j == 0.0
        assert state.dead and "brownout" in state.dead_reason

    def test_straggler_below_cutoff_waits_then_recovers(self):
        state = self.state(on_straggler="skip", straggler_cutoff=8.0)
        apply_fault(FaultEvent(0.0, "straggler", "c0", magnitude=4.0), state)
        assert state.slow_factor == 4.0 and not state.dead
        apply_fault(FaultEvent(1.0, "recover", "c0"), state)
        assert state.slow_factor == 1.0

    def test_kill_cluster_retires(self):
        state = self.state()
        apply_fault(FaultEvent(0.0, "cluster_death", "c0"), state)
        assert state.dead
        assert state.dead_reason == "cluster killed by fault schedule"
        # A second retirement keeps the first reason.
        state.retire("later")
        assert state.dead_reason == "cluster killed by fault schedule"


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

    @pytest.mark.parametrize("setting", [
        dict(fec_target_residual=0.0),
        dict(on_aggregator_death="elect"),
        dict(on_straggler="drop"),
        dict(min_device_fraction=1.5),
        dict(quorum=-0.1),
        dict(max_consecutive_failures=0),
    ], ids=lambda s: next(iter(s)))
    def test_out_of_range_setting_rejected(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            ResilientOrchestrationPolicy(**setting)


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
        # All three faults land before the run's 0.36 s makespan.
        faults = FaultSchedule([
            FaultEvent(0.05, "node_death", "c0", device=3),
            FaultEvent(0.2, "straggler", "c1", magnitude=2.0),
            FaultEvent(0.3, "recover", "c1"),
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
