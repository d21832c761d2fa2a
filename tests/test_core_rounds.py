"""Unified round pipeline + segment-batched event engine tests.

The fused engine's contract (ISSUE 3): a fault-schedule-only run (no
channel loss) reproduces the unfused event engine's modeled clock,
transmission ledger, completion times and report *bit-for-bit*, and its
per-cluster losses to stacked-GEMM reduction noise; the zero-fault
anchor still matches the sequential engine to <= 1e-6.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EdgeTrainingScheduler,
    OrcoDCSConfig,
    OrcoDCSFramework,
    ResilientOrchestrationPolicy,
)
from repro.core.rounds import (
    PickQueue,
    SegmentedFleetExecutor,
    deadline_key,
    loss_rank,
)
from repro.sim import (FAULT_KINDS, ARQConfig, ChannelSpec, FaultEvent,
                       FaultSchedule, GilbertElliottLoss)

DIM = 24
LATENT = 4
BATCH = 8
ROWS = 48
ROUNDS = 10


#: The two kinds of lossy channel on the scalar per-frame path, whose
#: draw stream cannot rewind: ``vectorize=False``, and a loss model
#: without a block sampler (the default Gilbert-Elliott model has
#: ``loss_good=0``).
SCALAR_PATH = {
    "vectorize-off": ChannelSpec(loss=0.1, vectorize=False),
    "no-sampler": ChannelSpec(loss=GilbertElliottLoss),
}


def build_scheduler(fused=True, clusters=4, policy="round_robin", seed=0,
                    faults=None, batteries=None, engine="event",
                    latents=None, deadlines=None, **kwargs):
    scheduler = EdgeTrainingScheduler(policy, rng=np.random.default_rng(seed),
                                      engine=engine, fault_schedule=faults,
                                      segment_batching=fused, **kwargs)
    for index in range(clusters):
        latent = latents[index] if latents else LATENT
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=latent, seed=index,
                               noise_sigma=0.05, batch_size=BATCH)
        data = np.random.default_rng(100 + index).random((ROWS, DIM))
        scheduler.add_cluster(
            f"c{index}", OrcoDCSFramework(config), data, batch_size=BATCH,
            deadline_s=deadlines[index] if deadlines else None,
            aggregator_battery_j=batteries[index] if batteries else 1e9)
    return scheduler


def run_pair(rounds=ROUNDS, **kwargs):
    """The same scenario under the fused and the unfused event engine."""
    fused = build_scheduler(fused=True, **kwargs)
    fused_report = fused.run(rounds_per_cluster=rounds)
    unfused = build_scheduler(fused=False, **kwargs)
    unfused_report = unfused.run(rounds_per_cluster=rounds)
    return fused, fused_report, unfused, unfused_report


def assert_fused_matches_unfused(fused, fused_report, unfused,
                                 unfused_report):
    """The bit-identity contract (losses to GEMM reduction noise)."""
    for c_f, c_u in zip(fused.clusters, unfused.clusters):
        assert len(c_f.history.rounds) == len(c_u.history.rounds)
        if len(c_f.history.losses):
            assert np.abs(c_f.history.losses
                          - c_u.history.losses).max() <= 1e-9
        # Modeled clock and ledger are exact, not merely close.
        assert np.array_equal(c_f.history.times, c_u.history.times)
        assert c_f.trainer.clock_s == c_u.trainer.clock_s
        ledger_f, ledger_u = c_f.trainer.ledger, c_u.trainer.ledger
        assert len(ledger_f) == len(ledger_u)
        assert ledger_f.total_wire_bytes() == ledger_u.total_wire_bytes()
        assert ledger_f.by_kind() == ledger_u.by_kind()
    assert fused_report.makespan_s == unfused_report.makespan_s
    assert fused_report.total_edge_time_s == unfused_report.total_edge_time_s
    assert fused_report.completion_times == unfused_report.completion_times
    assert fused_report.rounds_per_cluster == unfused_report.rounds_per_cluster
    assert fused_report.deadline_misses == unfused_report.deadline_misses
    assert fused_report.dead_clusters == unfused_report.dead_clusters
    assert fused_report.energy_j == unfused_report.energy_j
    assert fused_report.halted == unfused_report.halted
    assert fused_report.faults_applied == unfused_report.faults_applied


@lru_cache(maxsize=None)
def probe_makespan():
    """Makespan of the zero-fault, ideal-link default fleet."""
    return build_scheduler(fused=False).run(rounds_per_cluster=ROUNDS).makespan_s


def mid_training_faults(fraction_times):
    """Faults placed at fractions of a zero-fault probe run's makespan."""
    makespan = probe_makespan()
    return FaultSchedule([
        FaultEvent(f * makespan, kind, cluster, device=device,
                   magnitude=magnitude)
        for f, kind, cluster, device, magnitude in fraction_times])


class TestFusedEquivalence:
    @pytest.mark.parametrize("policy", ["fifo", "round_robin", "deadline"])
    def test_fault_only_run_matches_unfused(self, policy):
        faults = mid_training_faults([
            (0.25, "node_death", "c0", 5, 1.0),
            (0.4, "straggler", "c1", None, 3.0),
            (0.7, "recover", "c1", None, 1.0),
        ])
        pair = run_pair(policy=policy, faults=faults)
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds > 0
        assert pair[1].segments >= 2          # the faults split the run
        assert pair[3].fused_rounds == 0      # the reference stayed unfused

    def test_zero_fault_fused_matches_sequential_anchor(self):
        fused = build_scheduler(fused=True)
        fused_report = fused.run(rounds_per_cluster=ROUNDS)
        sequential = build_scheduler(engine="sequential")
        seq_report = sequential.run(rounds_per_cluster=ROUNDS)
        assert fused_report.fused_rounds == 4 * ROUNDS
        for c_f, c_s in zip(fused.clusters, sequential.clusters):
            assert np.abs(c_f.history.losses
                          - c_s.history.losses).max() <= 1e-6
            assert np.abs(c_f.history.times
                          - c_s.history.times).max() <= 1e-9
            assert c_f.trainer.ledger.total_wire_bytes() \
                == c_s.trainer.ledger.total_wire_bytes()
        assert fused_report.makespan_s == pytest.approx(
            seq_report.makespan_s, abs=1e-9)

    def test_lossy_fault_run_matches_unfused(self):
        """Channel traces + faults together: the planner prices lossy
        rounds from the pre-sampled traces on both sides of each fault
        boundary, bit-identical to the live unfused run."""
        faults = mid_training_faults([
            (0.25, "node_death", "c0", 5, 1.0),
            (0.4, "straggler", "c1", None, 3.0),
            (0.7, "recover", "c1", None, 1.0),
        ])
        pair = run_pair(faults=faults,
                        channels=ChannelSpec(loss=0.1,
                                             arq=ARQConfig(max_retries=1)))
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds > 0
        assert pair[1].failed_rounds == pair[3].failed_rounds


@st.composite
def fault_events(draw):
    """One valid fault of any kind within 1.2x the probe makespan."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    device = magnitude = None
    if kind in ("node_death", "node_revive"):
        device = draw(st.integers(0, DIM - 1))
    elif kind == "brownout":
        magnitude = draw(st.sampled_from([1e-12, 0.3, 0.9]))
    elif kind == "straggler":
        magnitude = draw(st.floats(1.0, 10.0))
    return FaultEvent(draw(st.floats(0.0, 1.2 * probe_makespan())), kind,
                      draw(st.sampled_from(["c0", "c1", "c2", "c3"])),
                      device=device,
                      magnitude=1.0 if magnitude is None else magnitude)


@st.composite
def fault_scenarios(draw):
    """Keyword arguments of :func:`run_pair`: policy, channel, recovery,
    adaptive ARQ, quorum, deadlines and 1-5 faults."""
    channel = draw(st.sampled_from(["ideal", "802154_indoor", "bernoulli"]))
    channels = {
        "ideal": None,
        "802154_indoor": ChannelSpec.preset(
            "802154_indoor",
            arq=ARQConfig(max_retries=draw(st.integers(0, 3)))),
        "bernoulli": ChannelSpec(loss=0.1),
    }[channel]
    makespan = probe_makespan()
    deadlines = draw(st.none() | st.lists(
        st.floats(0.3 * makespan, 1.5 * makespan), min_size=4, max_size=4))
    return dict(
        policy=draw(st.sampled_from(["fifo", "round_robin", "deadline"])),
        channels=channels,
        resilience=ResilientOrchestrationPolicy(
            recovery=draw(st.sampled_from(["arq", "fec", "hybrid"])),
            adaptive_arq=draw(st.booleans()),
            quorum=draw(st.sampled_from([0.0, 0.5]))),
        deadlines=deadlines,
        faults=FaultSchedule(draw(st.lists(fault_events(), min_size=1,
                                           max_size=5))))


class TestGeneratedScenarios:
    @given(scenario=fault_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_fused_matches_unfused(self, scenario):
        fused, fused_report, unfused, unfused_report = run_pair(**scenario)
        assert fused.execution_plan().fused
        assert_fused_matches_unfused(fused, fused_report, unfused,
                                     unfused_report)
        assert fused_report.failed_rounds == unfused_report.failed_rounds
        assert fused_report.arq_budgets == unfused_report.arq_budgets
        assert fused_report.coding_budgets == unfused_report.coding_budgets
        for times in fused_report.completion_times.values():
            assert times == sorted(times)
            assert all(t <= fused_report.makespan_s for t in times)


class TestSegmentEdgeCases:
    def test_fault_at_round_zero(self):
        """A t=0 fault fires before the first pick in both engines."""
        faults = FaultSchedule([FaultEvent(0.0, "node_death", "c0",
                                           device=3)])
        fused, fused_report, unfused, unfused_report = run_pair(faults=faults)
        assert_fused_matches_unfused(fused, fused_report, unfused,
                                     unfused_report)
        # The dead device was masked from round one onward.
        assert fused_report.faults_applied == 1
        assert fused_report.segments == 1     # nothing left to split on

    def test_fault_in_final_round_tail(self):
        """A fault after the last round's edge math but before its links
        finish fires during the run's tail: one segment, still exact."""
        probe = build_scheduler(fused=False)
        makespan = probe.run(rounds_per_cluster=ROUNDS).makespan_s
        faults = FaultSchedule([FaultEvent(0.98 * makespan, "node_death",
                                           "c1", device=7)])
        pair = run_pair(faults=faults)
        assert_fused_matches_unfused(*pair)
        assert pair[1].faults_applied == 1

    def test_fault_on_the_final_round(self):
        """A fault landing between the final wave's edge-math points
        splits the plan: the straddling rounds replay per cluster."""
        probe = build_scheduler(fused=False)
        probe_report = probe.run(rounds_per_cluster=ROUNDS)
        timing = probe.clusters[0].trainer.round_costs(BATCH).timing
        tail = (timing.aggregator_compute_s + timing.uplink_s
                + timing.downlink_s)
        # completion = edge-math finish + link tail, so subtracting the
        # tail recovers each cluster's final-round math time exactly.
        math_times = sorted(times[-1] - tail for times
                            in probe_report.completion_times.values())
        faults = FaultSchedule([FaultEvent(
            0.5 * (math_times[0] + math_times[-1]), "node_death", "c1",
            device=7)])
        pair = run_pair(faults=faults)
        assert_fused_matches_unfused(*pair)
        assert pair[1].faults_applied == 1
        assert pair[1].segments >= 2

    def test_all_clusters_dead_mid_segment(self):
        """Battery retirement is the one in-segment death: every cluster
        drains mid-plan and the run ends early, identically."""
        pair = run_pair(batteries=[0.015] * 4, rounds=60)
        fused_report = pair[1]
        assert_fused_matches_unfused(*pair)
        assert len(fused_report.dead_clusters) == 4
        assert all("battery" in reason
                   for reason in fused_report.dead_clusters.values())
        assert all(n < 60 for n in fused_report.rounds_per_cluster.values())
        assert fused_report.fused_rounds > 0

    def test_in_segment_deaths_trip_the_quorum(self):
        """Two battery deaths inside one segment drop the fleet below
        quorum: the planner's alive count must see both, or it plans
        rounds past the kernel's halt."""
        probe = build_scheduler(fused=False).run(rounds_per_cluster=ROUNDS)
        per_round = probe.energy_j["c0"] / ROUNDS
        pair = run_pair(
            batteries=[2.5 * per_round, 4.5 * per_round, 1e9, 1e9],
            resilience=ResilientOrchestrationPolicy(quorum=0.75))
        assert_fused_matches_unfused(*pair)
        report = pair[1]
        assert report.halted and report.segments == 1
        assert set(report.dead_clusters) == {"c0", "c1"}
        assert report.fused_rounds > 0

    def test_no_two_homogeneous_survivors(self):
        """Faults that leave one survivor degenerate the waves to
        per-cluster event execution — still exact."""
        probe = build_scheduler(fused=False)
        makespan = probe.run(rounds_per_cluster=ROUNDS).makespan_s
        faults = FaultSchedule([
            FaultEvent(0.3 * makespan, "cluster_death", "c0"),
            FaultEvent(0.3 * makespan, "cluster_death", "c1"),
            FaultEvent(0.3 * makespan, "cluster_death", "c2"),
        ])
        pair = run_pair(faults=faults)
        assert_fused_matches_unfused(*pair)
        report = pair[1]
        assert set(report.dead_clusters) == {"c0", "c1", "c2"}
        assert report.rounds_per_cluster["c3"] == ROUNDS
        assert report.fused_rounds > 0

    def test_lossy_channels_fuse_bit_identically(self):
        """Pre-sampled channel traces make lossy rounds plan-time
        computable: the fused run matches the live unfused event loop
        bit for bit — delivered/attempt ledger, modeled clock,
        completion times — while pre-executing the successes as waves."""
        spec = ChannelSpec(loss=0.15, arq=ARQConfig(max_retries=1))
        pair = run_pair(channels=spec)
        assert_fused_matches_unfused(*pair)
        report = pair[1]
        assert report.fused_rounds > 0
        assert report.failed_rounds == pair[3].failed_rounds
        assert sum(report.failed_rounds.values()) > 0  # the sweep regime

    @pytest.mark.parametrize("kind", sorted(SCALAR_PATH))
    def test_scalar_path_fuses_bit_identically(self, kind):
        """Channels that cannot rewind still record and replay traces,
        so they fuse whenever no budget re-derives."""
        pair = run_pair(channels=SCALAR_PATH[kind])
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds > 0

    def test_gilbert_elliott_preset_fuses_bit_identically(self):
        """Bursty (stateful) loss traces replay exactly too."""
        spec = ChannelSpec.preset("noisy_office",
                                  arq=ARQConfig(max_retries=1))
        pair = run_pair(channels=spec)
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds > 0

    def test_segment_batching_flag_forces_unfused(self):
        report = build_scheduler(fused=False).run(rounds_per_cluster=5)
        assert report.fused_rounds == 0 and report.segments == 0

    def test_quorum_halt_matches_unfused(self):
        probe = build_scheduler(fused=False)
        makespan = probe.run(rounds_per_cluster=ROUNDS).makespan_s
        faults = FaultSchedule([
            FaultEvent(0.2 * makespan, "cluster_death", "c0"),
            FaultEvent(0.4 * makespan, "cluster_death", "c1"),
        ])
        resilience = ResilientOrchestrationPolicy(quorum=0.7)
        pair = run_pair(faults=faults, resilience=resilience)
        assert_fused_matches_unfused(*pair)
        assert pair[1].halted


class TestIdealLoopSharing:
    """The sequential engine and batched replay drive one loop."""

    def test_sequential_still_matches_batched(self):
        sequential = build_scheduler(engine="sequential")
        seq_report = sequential.run(rounds_per_cluster=ROUNDS)
        batched = build_scheduler(engine="batched")
        bat_report = batched.run(rounds_per_cluster=ROUNDS)
        for c_s, c_b in zip(sequential.clusters, batched.clusters):
            assert np.abs(c_s.history.losses
                          - c_b.history.losses).max() <= 1e-6
            assert np.array_equal(c_s.history.times, c_b.history.times)
        assert seq_report.makespan_s == bat_report.makespan_s
        assert seq_report.completion_times == bat_report.completion_times

    def test_deadline_miss_shared_across_engines(self):
        def run(engine):
            scheduler = EdgeTrainingScheduler(
                "deadline", rng=np.random.default_rng(0), engine=engine)
            config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                                   batch_size=BATCH)
            data = np.random.default_rng(0).random((ROWS, DIM))
            scheduler.add_cluster("tight", OrcoDCSFramework(config), data,
                                  batch_size=BATCH, deadline_s=1e-9)
            return scheduler.run(rounds_per_cluster=3)

        assert run("sequential").deadline_misses \
            == run("event").deadline_misses == ["tight"]


class TestHeterogeneousStacking:
    """Mixed-architecture fleets batch group by group (ISSUE 4)."""

    def test_mixed_fleet_fuses_and_matches_unfused(self):
        pair = run_pair(latents=[4, 4, 6, 6])
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds == 4 * ROUNDS
        assert pair[1].segments >= 1

    def test_mixed_fleet_matches_sequential_engine(self):
        fused = build_scheduler(fused=True, latents=[4, 4, 6, 6])
        fused.run(rounds_per_cluster=ROUNDS)
        sequential = build_scheduler(engine="sequential",
                                     latents=[4, 4, 6, 6])
        sequential.run(rounds_per_cluster=ROUNDS)
        for c_f, c_s in zip(fused.clusters, sequential.clusters):
            assert np.abs(c_f.history.losses
                          - c_s.history.losses).max() <= 1e-6
            assert np.abs(c_f.history.times
                          - c_s.history.times).max() <= 1e-9

    def test_single_odd_cluster_no_longer_disables_fusion(self):
        """Three stackable clusters + one odd one: the trio fuses as a
        group, the odd cluster pre-executes per round — exactly."""
        pair = run_pair(latents=[4, 4, 4, 6])
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds == 4 * ROUNDS

    def test_mixed_fleet_with_faults_and_loss(self):
        faults = mid_training_faults([
            (0.3, "node_death", "c0", 5, 1.0),
            (0.5, "straggler", "c2", None, 2.0),
        ])
        pair = run_pair(latents=[4, 4, 6, 6], faults=faults,
                        channels=ChannelSpec(loss=0.1,
                                             arq=ARQConfig(max_retries=1)))
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds > 0

    def test_all_singleton_groups_stay_unfused(self):
        """With no group of >= 2 there is nothing to stack."""
        report = build_scheduler(latents=[3, 4, 5, 6]).run(
            rounds_per_cluster=5)
        assert report.fused_rounds == 0 and report.segments == 0


class TestExecutionPlan:
    """Engine gates route through one introspectable ExecutionPlan."""

    def test_lossless_homogeneous_plan(self):
        plan = build_scheduler().execution_plan()
        assert plan.engine == "event" and plan.fused
        assert not plan.traced
        assert plan.groups == ((0, 1, 2, 3),)

    def test_lossy_plan_records_traces(self):
        plan = build_scheduler(
            channels=ChannelSpec(loss=0.1)).execution_plan()
        assert plan.fused and plan.traced

    def test_adaptive_arq_with_faults_and_loss_fuses(self):
        """Mid-run ARQ re-derivation no longer disables fusion: the
        affected channels re-record their remaining trace horizon at
        the fault boundary instead."""
        faults = FaultSchedule([FaultEvent(1.0, "brownout", "c0",
                                           magnitude=0.5)])
        plan = build_scheduler(
            channels=ChannelSpec(loss=0.1), faults=faults,
            resilience=ResilientOrchestrationPolicy(
                adaptive_arq=True)).execution_plan()
        assert plan.fused and plan.traced and plan.reasons == ()
        # Lossless channels never consult the retry budget: fusable.
        plan = build_scheduler(
            faults=faults,
            resilience=ResilientOrchestrationPolicy(
                adaptive_arq=True)).execution_plan()
        assert plan.fused

    @pytest.mark.parametrize("kind", sorted(SCALAR_PATH))
    def test_rederiving_scalar_path_stays_unfused(self, kind):
        """Scalar-path draws cannot rewind, so re-derivation under
        faults keeps the one remaining loss/fault coupling gate closed."""
        faults = FaultSchedule([FaultEvent(1.0, "brownout", "c0",
                                           magnitude=0.5)])
        plan = build_scheduler(
            channels=SCALAR_PATH[kind], faults=faults,
            resilience=ResilientOrchestrationPolicy(
                adaptive_arq=True)).execution_plan()
        assert not plan.fused
        assert plan.reasons == ("non-rerecordable-channel",)
        assert "re-record" in plan.reason
        # Without faults nothing re-derives: their traces replay fine.
        plan = build_scheduler(
            channels=SCALAR_PATH[kind],
            resilience=ResilientOrchestrationPolicy(
                adaptive_arq=True)).execution_plan()
        assert plan.fused

    def test_segment_batching_flag_in_plan(self):
        plan = build_scheduler(fused=False).execution_plan()
        assert not plan.fused and "disabled" in plan.reason
        assert plan.reasons == ("segment-batching-disabled",)

    def test_hetero_plan_groups(self):
        plan = build_scheduler(latents=[4, 6, 4, 6]).execution_plan()
        assert sorted(plan.groups) == [(0, 2), (1, 3)]

    def test_decision_matrix(self):
        """Enumerate engine × recovery × faults × adaptive_arq × quorum
        and assert each combination's fused/unfused outcome and reason
        slugs.  The only event-engine blockers are the flag,
        unstackable fleets, the loss-coupled ``loss_priority`` policy
        and non-rerecordable channels — resilience knobs never disable
        fusion on rewindable draws."""
        faults = FaultSchedule([FaultEvent(1.0, "brownout", "c0",
                                           magnitude=0.5)])
        lossy = ChannelSpec(loss=0.1)
        for recovery in ("arq", "fec", "hybrid"):
            for with_faults in (False, True):
                for adaptive in (False, True):
                    for quorum in (0.0, 0.5):
                        resilience = ResilientOrchestrationPolicy(
                            recovery=recovery, adaptive_arq=adaptive,
                            quorum=quorum)
                        for policy in ("round_robin", "loss_priority"):
                            combo = (recovery, with_faults, adaptive,
                                     quorum, policy)
                            coupled = (("loss-coupled-policy",)
                                       if policy == "loss_priority" else ())
                            plan = build_scheduler(
                                policy=policy, channels=lossy,
                                faults=faults if with_faults else None,
                                resilience=resilience).execution_plan()
                            assert plan.fused == (not coupled), combo
                            assert plan.traced == (not coupled), combo
                            assert plan.reasons == coupled, combo
                            # Scalar-path channels flip exactly the
                            # combos that re-derive budgets at fault
                            # boundaries.
                            rederives = with_faults and (
                                adaptive or recovery != "arq")
                            blockers = coupled + (
                                ("non-rerecordable-channel",)
                                if rederives else ())
                            for spec in SCALAR_PATH.values():
                                plan = build_scheduler(
                                    policy=policy, channels=spec,
                                    faults=faults if with_faults else None,
                                    resilience=resilience).execution_plan()
                                assert plan.fused == (not blockers), combo
                                assert plan.reasons == blockers, combo
        # The non-event engines and the flag keep their own slugs.
        plan = build_scheduler(fused=False).execution_plan()
        assert plan.reasons == ("segment-batching-disabled",)
        plan = build_scheduler(latents=[3, 4, 5, 6]).execution_plan()
        assert plan.reasons == ("no-stackable-group",)
        plan = build_scheduler(engine="analytic").execution_plan()
        assert plan.reasons == ("analytic-engine",)


class TestLossCoupledPolicy:
    """``loss_priority`` picks depend on losses no plan can foresee, so
    its event runs take the unfused loop whatever the segment flag."""

    def test_plan_is_unfused(self):
        plan = build_scheduler(policy="loss_priority").execution_plan()
        assert not plan.fused and not plan.traced
        assert plan.reasons == ("loss-coupled-policy",)
        assert "loss_priority" in plan.reason

    def test_lossy_fault_run_matches_unfused_twin(self):
        faults = mid_training_faults([
            (0.25, "node_death", "c0", 5, 1.0),
            (0.4, "straggler", "c1", None, 3.0),
            (0.7, "recover", "c1", None, 1.0),
        ])
        pair = run_pair(policy="loss_priority", faults=faults,
                        channels=ChannelSpec(loss=0.1,
                                             arq=ARQConfig(max_retries=1)))
        assert_fused_matches_unfused(*pair)
        assert pair[1].fused_rounds == pair[3].fused_rounds == 0
        assert pair[1].faults_applied == 3
        assert sum(pair[1].failed_rounds.values()) > 0

    def test_zero_fault_run_matches_sequential_twin(self):
        """Both engines step each cluster alone, so they agree exactly,
        losses included."""
        event = build_scheduler(policy="loss_priority")
        event_report = event.run(rounds_per_cluster=ROUNDS)
        sequential = build_scheduler(policy="loss_priority",
                                     engine="sequential")
        seq_report = sequential.run(rounds_per_cluster=ROUNDS)
        for c_e, c_s in zip(event.clusters, sequential.clusters):
            assert np.array_equal(c_e.history.losses, c_s.history.losses)
            assert np.array_equal(c_e.history.times, c_s.history.times)
            assert c_e.trainer.clock_s == c_s.trainer.clock_s
            assert len(c_e.trainer.ledger) == len(c_s.trainer.ledger)
            assert c_e.trainer.ledger.by_kind() \
                == c_s.trainer.ledger.by_kind()
        assert event_report.makespan_s == seq_report.makespan_s
        assert event_report.completion_times == seq_report.completion_times
        assert event_report.total_edge_time_s \
            == seq_report.total_edge_time_s


def assert_rng_states_match(fused, unfused):
    """The fused run leaves every training RNG stream where the
    unfused run does — re-recording must not perturb a draw."""
    for c_f, c_u in zip(fused.clusters, unfused.clusters):
        assert c_f.trainer.rng.bit_generator.state \
            == c_u.trainer.rng.bit_generator.state
        assert c_f.stream_rng.bit_generator.state \
            == c_u.stream_rng.bit_generator.state


class TestRerecordFusion:
    """Adaptive budgets re-derived at fault boundaries fuse through
    trace re-recording."""

    def _brownout(self, fraction=0.5, cluster="c0", **kwargs):
        probe = build_scheduler(fused=False, **kwargs)
        makespan = probe.run(rounds_per_cluster=ROUNDS).makespan_s
        return FaultSchedule([FaultEvent(fraction * makespan, "brownout",
                                         cluster, magnitude=1e-12)])

    def test_adaptive_arq_lossy_faults_fuses_bit_identically(self):
        """A brownout collapses c0's re-derived retry budget mid-run;
        the fused run re-records c0's remaining trace horizon and still
        matches the live unfused loop bit for bit — clock, ledger,
        report and RNG state."""
        spec = ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=3))
        resilience = ResilientOrchestrationPolicy(adaptive_arq=True)
        faults = self._brownout(channels=spec, resilience=resilience)
        pair = run_pair(channels=spec, resilience=resilience, faults=faults)
        assert_fused_matches_unfused(*pair)
        assert_rng_states_match(pair[0], pair[2])
        assert pair[1].fused_rounds > 0
        assert pair[1].arq_budgets == pair[3].arq_budgets
        assert pair[1].arq_budgets["c0"] == 0   # battery-poor: minimum
        assert pair[1].arq_budgets["c1"] == 6   # untouched: slack-rich

    def test_parity_rederivation_at_fault_boundary(self):
        """Brownouts change the battery headroom the energy-optimal FEC
        parity depends on: the hook re-derives k per direction and the
        fused run matches the unfused one exactly."""
        spec = ChannelSpec(loss=0.12, arq=ARQConfig(max_retries=2))
        resilience = ResilientOrchestrationPolicy(recovery="fec")
        faults = self._brownout(cluster="c1", channels=spec,
                                resilience=resilience)
        pair = run_pair(channels=spec, resilience=resilience, faults=faults)
        assert_fused_matches_unfused(*pair)
        assert_rng_states_match(pair[0], pair[2])
        assert pair[1].fused_rounds > 0
        assert pair[1].coding_budgets == pair[3].coding_budgets
        # The browned-out cluster fell to the energy-optimal budget.
        assert pair[1].coding_budgets["c1"] < pair[1].coding_budgets["c0"]

    def test_hybrid_adaptive_rederivation_fuses_bit_identically(self):
        """ARQ and parity budgets re-derive together (hybrid recovery
        with adaptive ARQ, the ``fleet_lossy`` benchmark's setting)."""
        spec = ChannelSpec(loss=0.12, arq=ARQConfig(max_retries=2))
        resilience = ResilientOrchestrationPolicy(recovery="hybrid",
                                                  adaptive_arq=True)
        faults = self._brownout(channels=spec, resilience=resilience)
        pair = run_pair(channels=spec, resilience=resilience, faults=faults)
        assert_fused_matches_unfused(*pair)
        assert_rng_states_match(pair[0], pair[2])
        assert pair[1].fused_rounds > 0
        assert pair[1].arq_budgets == pair[3].arq_budgets
        assert pair[1].coding_budgets == pair[3].coding_budgets

    def test_bursty_channel_rerecords_bit_identically(self):
        """Gilbert-Elliott re-recording must restore the channel-state
        machine at the resume point, not just the draw offset."""
        spec = ChannelSpec.preset("noisy_office",
                                  arq=ARQConfig(max_retries=2))
        resilience = ResilientOrchestrationPolicy(adaptive_arq=True)
        faults = self._brownout(channels=spec, resilience=resilience)
        pair = run_pair(channels=spec, resilience=resilience, faults=faults)
        assert_fused_matches_unfused(*pair)
        assert_rng_states_match(pair[0], pair[2])
        assert pair[1].fused_rounds > 0

    @pytest.mark.parametrize("kind", sorted(SCALAR_PATH))
    def test_scalar_path_runs_unfused_on_rederive(self, kind):
        """The fallback still works end to end for the one run class
        that cannot re-record (scalar-path draws)."""
        resilience = ResilientOrchestrationPolicy(adaptive_arq=True)
        faults = FaultSchedule([FaultEvent(0.01, "brownout", "c0",
                                           magnitude=1e-12)])
        report = build_scheduler(channels=SCALAR_PATH[kind],
                                 resilience=resilience,
                                 faults=faults).run(rounds_per_cluster=5)
        assert report.fused_rounds == 0
        assert report.arq_budgets["c0"] == 0


class TestAdaptiveArqRederivation:
    """ARQ budgets re-derive at every fault application (ISSUE 4)."""

    def _scheduler(self, faults=None, adaptive=True, battery=1e9):
        resilience = ResilientOrchestrationPolicy(adaptive_arq=adaptive)
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(0), engine="event",
            channels=ChannelSpec(loss=0.05, arq=ARQConfig(max_retries=3)),
            fault_schedule=faults, resilience=resilience)
        for index in range(2):
            config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT,
                                   seed=index, noise_sigma=0.05,
                                   batch_size=BATCH)
            data = np.random.default_rng(100 + index).random((ROWS, DIM))
            scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config),
                                  data, batch_size=BATCH,
                                  aggregator_battery_j=battery)
        return scheduler

    def test_budgets_rederived_at_brownout(self):
        """A brownout guts the battery headroom mid-run: the affected
        cluster's retry budget collapses to the minimum while the
        untouched cluster keeps its slack-rich maximum."""
        probe = self._scheduler()
        probe_report = probe.run(rounds_per_cluster=ROUNDS)
        makespan = probe_report.makespan_s
        # Slack-rich, battery-rich run start: both clusters get the
        # adaptive maximum (6) over the spec's base budget of 3.
        assert probe_report.arq_budgets == {"c0": 6, "c1": 6}
        faults = FaultSchedule([FaultEvent(0.5 * makespan, "brownout",
                                           "c0", magnitude=1e-12)])
        scheduler = self._scheduler(faults=faults)
        report = scheduler.run(rounds_per_cluster=ROUNDS)
        assert report.faults_applied == 1
        assert report.arq_budgets["c0"] == 0    # battery-poor: minimum
        assert report.arq_budgets["c1"] == 6    # untouched: slack-rich max

    def test_budgets_static_without_adaptive_arq(self):
        faults = FaultSchedule([FaultEvent(0.01, "brownout", "c0",
                                           magnitude=1e-12)])
        report = self._scheduler(faults=faults, adaptive=False).run(
            rounds_per_cluster=ROUNDS)
        assert report.arq_budgets == {"c0": 3, "c1": 3}


# ----------------------------------------------------------------------
# The pick queue
# ----------------------------------------------------------------------
POLICIES = ("fifo", "round_robin", "loss_priority", "deadline")


def policy_pick(policy, pending, rounds_completed_of, current_loss_of=None):
    """Oracle: the O(K) scan over the pending clusters (registration
    order) that every engine picked with before the pick queue."""
    if policy == "fifo":
        return pending[0]
    if policy == "round_robin":
        return min(pending, key=rounds_completed_of)
    if policy == "loss_priority":
        return max(pending, key=current_loss_of)
    return min(pending, key=deadline_key)


@st.composite
def pick_runs(draw):
    """A small fleet and a script of picks, driven like the kernel does.

    Each step kills some clusters before the pick, then the picked
    cluster is skipped (picked, not served), fails (budget spent,
    rounds unchanged), succeeds (budget spent, rounds and loss
    updated) or dies in its round.
    """
    size = draw(st.integers(1, 6))
    deadlines = draw(st.lists(
        st.sampled_from([None, -1.0, 0.0, 1.0, 2.0, float("inf"),
                         float("-inf")]), min_size=size, max_size=size))
    budgets = draw(st.lists(st.integers(0, 4), min_size=size,
                            max_size=size))
    steps = draw(st.lists(st.tuples(
        st.frozensets(st.integers(0, size - 1), max_size=1),
        st.sampled_from(["success", "success", "fail", "skip", "die"]),
        st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.0, float("inf")])),
        max_size=30))
    return deadlines, budgets, steps


class TestPickQueue:
    @given(st.sampled_from(POLICIES), pick_runs())
    @settings(max_examples=300, deadline=None)
    def test_picks_match_the_scan(self, policy, run):
        deadlines, budgets, steps = run
        clusters = [SimpleNamespace(rounds_completed=0, deadline_s=deadline,
                                    current_loss=float("inf"))
                    for deadline in deadlines]
        budget = list(budgets)
        dead = [False] * len(clusters)
        queue = PickQueue(policy, clusters)

        def pending(k):
            return not dead[k] and budget[k] > 0

        def kill(k):
            dead[k] = True

        for deaths, outcome, loss in steps:
            for k in deaths:
                kill(k)
            scan = [c for k, c in enumerate(clusters) if pending(k)]
            expected = policy_pick(policy, scan,
                                   lambda c: c.rounds_completed,
                                   lambda c: c.current_loss) if scan else None
            index = queue.pick(pending)
            assert (None if index is None else clusters[index]) is expected
            if index is None:
                break
            if outcome == "skip":
                continue
            budget[index] -= 1
            if outcome == "success":
                clusters[index].rounds_completed += 1
                clusters[index].current_loss = loss
            elif outcome == "die":
                kill(index)

    def test_nan_loss_ranks_after_every_loss(self):
        """Under ``max`` a NaN loss won when it came first in the list
        and lost otherwise; the queue ranks it last, ties by index."""
        losses = [float("nan"), 1.0, float("nan"), 0.5, float("inf")]
        clusters = [SimpleNamespace(current_loss=loss) for loss in losses]
        served = [False] * len(clusters)
        queue = PickQueue("loss_priority", clusters)
        order = []
        while True:
            index = queue.pick(lambda k: not served[k])
            if index is None:
                break
            served[index] = True
            order.append(index)
        assert order == [4, 1, 3, 0, 2]
        assert loss_rank(float("nan")) == float("inf")
        assert loss_rank(2.0) == -2.0

    @pytest.mark.parametrize("policy", ["fifo", "round_robin", "deadline"])
    def test_planner_picks_mirror_the_kernel(self, monkeypatch, policy):
        """On a fused lossy run with faults, every segment plan picks
        exactly the clusters the kernel goes on to pick."""
        log = []
        plans = []
        pick = PickQueue.pick
        plan_segment = SegmentedFleetExecutor._plan_segment

        def spy_pick(queue, pending):
            index = pick(queue, pending)
            log.append(index)
            return index

        def spy_plan(executor, *args):
            start = len(log)
            result = plan_segment(executor, *args)
            plans.append((start, len(log)))
            return result

        monkeypatch.setattr(PickQueue, "pick", spy_pick)
        monkeypatch.setattr(SegmentedFleetExecutor, "_plan_segment",
                            spy_plan)
        faults = FaultSchedule([
            FaultEvent(0.02, "node_death", "c1", device=3),
            FaultEvent(0.05, "brownout", "c2", magnitude=0.5),
            FaultEvent(0.08, "straggler", "c0", magnitude=2.0),
        ])
        scheduler = build_scheduler(
            policy=policy, clusters=5, faults=faults,
            deadlines=[3.0, 1.0, None, 1.0, 2.0],
            channels=ChannelSpec.preset("802154_indoor",
                                        arq=ARQConfig(max_retries=1)))
        report = scheduler.run(rounds_per_cluster=ROUNDS)
        assert report.fused_rounds > 0 and report.faults_applied == 3
        assert sum(report.failed_rounds.values()) > 0
        assert len(plans) > 2
        inside = set()
        for start, stop in plans:
            inside.update(range(start, stop))
        kernel = [index for at, index in enumerate(log) if at not in inside]
        mirrored = 0
        for start, stop in plans:
            before = sum(1 for at in range(start) if at not in inside)
            planned = log[start:stop]
            assert planned == kernel[before:before + len(planned)]
            mirrored += len(planned)
        assert mirrored > len(kernel) // 2
