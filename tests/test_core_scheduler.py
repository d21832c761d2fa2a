"""Unit tests for the multi-cluster edge training scheduler."""

import numpy as np
import pytest

from repro.core import EdgeTrainingScheduler, OrcoDCSConfig, OrcoDCSFramework


def make_framework(dim=24, latent=4, seed=0, decoder_layers=1, noise=0.0):
    config = OrcoDCSConfig(input_dim=dim, latent_dim=latent, seed=seed,
                           noise_sigma=noise, decoder_layers=decoder_layers)
    return OrcoDCSFramework(config)


def cluster_data(dim=24, count=64, seed=0):
    return np.random.default_rng(seed).random((count, dim))


class TestSchedulerSetup:
    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            EdgeTrainingScheduler("lottery")

    def test_duplicate_cluster_name(self):
        scheduler = EdgeTrainingScheduler("fifo")
        scheduler.add_cluster("a", make_framework(), cluster_data())
        with pytest.raises(ValueError):
            scheduler.add_cluster("a", make_framework(seed=1), cluster_data())

    def test_run_without_clusters(self):
        with pytest.raises(RuntimeError):
            EdgeTrainingScheduler("fifo").run()

    @pytest.mark.parametrize("battery_j", [float("nan"), 0.0, -1.0])
    def test_bad_aggregator_battery_rejected_at_registration(self,
                                                             battery_j):
        scheduler = EdgeTrainingScheduler("fifo", engine="event")
        with pytest.raises(ValueError, match="aggregator_battery_j"):
            scheduler.add_cluster("a", make_framework(), cluster_data(),
                                  aggregator_battery_j=battery_j)
        assert scheduler.clusters == []

    def test_nan_deadline_rejected(self):
        """A NaN deadline has no place in the EDF order: deadlines
        [5.0, nan, 1.0] used to serve the 1.0 s cluster last."""
        scheduler = EdgeTrainingScheduler("deadline",
                                          rng=np.random.default_rng(0))
        scheduler.add_cluster("a", make_framework(), cluster_data(),
                              deadline_s=5.0)
        with pytest.raises(ValueError, match="NaN deadline"):
            scheduler.add_cluster("b", make_framework(seed=1),
                                  cluster_data(seed=1),
                                  deadline_s=float("nan"))
        assert [c.name for c in scheduler.clusters] == ["a"]
        # Infinite deadlines are ordered, so they stay legal.
        scheduler.add_cluster("c", make_framework(seed=2),
                              cluster_data(seed=2), deadline_s=float("inf"))
        scheduler.add_cluster("d", make_framework(seed=3),
                              cluster_data(seed=3), deadline_s=-float("inf"))
        report = scheduler.run(rounds_per_cluster=1)
        assert report.completion_times["d"] < report.completion_times["a"] \
            < report.completion_times["c"]

    def test_rounds_validation(self):
        scheduler = EdgeTrainingScheduler("fifo")
        scheduler.add_cluster("a", make_framework(), cluster_data())
        with pytest.raises(ValueError):
            scheduler.run(rounds_per_cluster=0)

    @pytest.mark.parametrize("engine", ["sequential", "batched", "event"])
    @pytest.mark.parametrize("rounds", [2.5, float("nan")],
                             ids=["fractional", "nan"])
    def test_bad_round_budget_rejected_before_any_round(self, rounds, engine):
        # Checked before any round: a fractional budget must not round
        # up (or raise mid-run on batched), and NaN must not slip past a
        # "<= 0" test and run nothing.
        scheduler = EdgeTrainingScheduler("round_robin", engine=engine,
                                          rng=np.random.default_rng(0))
        for i in range(2):
            scheduler.add_cluster(f"c{i}", make_framework(seed=i),
                                  cluster_data(seed=i))
        with pytest.raises(ValueError, match="integer >= 1"):
            scheduler.run(rounds)
        assert all(c.rounds_completed == 0 for c in scheduler.clusters)
        # NumPy integers stay legal, as for ARQConfig.max_retries.
        report = scheduler.run(np.int64(2))
        assert report.rounds_per_cluster == {"c0": 2, "c1": 2}

    @pytest.mark.parametrize("batch_size", [0, 2.5],
                             ids=["zero", "fractional"])
    def test_bad_batch_size_rejected_at_registration(self, batch_size):
        # Checked at registration: both would otherwise fail only
        # mid-run, 0 with a ZeroDivisionError and 2.5 with a TypeError.
        scheduler = EdgeTrainingScheduler("fifo")
        with pytest.raises(ValueError, match="batch_size must be an integer"):
            scheduler.add_cluster("a", make_framework(), cluster_data(),
                                  batch_size=batch_size)
        assert scheduler.clusters == []
        scheduler.add_cluster("a", make_framework(), cluster_data(),
                              batch_size=np.int64(8))
        assert scheduler.run(2).rounds_per_cluster == {"a": 2}


class TestSchedulerRun:
    def _scheduler(self, policy, num_clusters=3, rng_seed=0):
        scheduler = EdgeTrainingScheduler(policy,
                                          rng=np.random.default_rng(rng_seed))
        for index in range(num_clusters):
            scheduler.add_cluster(f"cluster-{index}",
                                  make_framework(seed=index),
                                  cluster_data(seed=index))
        return scheduler

    @pytest.mark.parametrize("policy", ["fifo", "round_robin",
                                        "loss_priority", "deadline"])
    def test_every_cluster_gets_its_rounds(self, policy):
        scheduler = self._scheduler(policy)
        report = scheduler.run(rounds_per_cluster=8)
        assert report.rounds_per_cluster == {
            "cluster-0": 8, "cluster-1": 8, "cluster-2": 8}
        assert report.policy == policy

    def test_training_actually_progresses(self):
        scheduler = self._scheduler("round_robin")
        scheduler.run(rounds_per_cluster=25)
        for cluster in scheduler.clusters:
            first = cluster.history.rounds[0].train_loss
            last = cluster.history.rounds[-1].train_loss
            assert last < first

    def test_edge_time_accumulates(self):
        scheduler = self._scheduler("fifo")
        report = scheduler.run(rounds_per_cluster=5)
        assert report.total_edge_time_s > 0
        assert report.makespan_s >= report.total_edge_time_s

    def test_makespan_grows_with_cluster_count(self):
        small = self._scheduler("round_robin", num_clusters=2)
        large = self._scheduler("round_robin", num_clusters=5)
        assert large.run(5).makespan_s > small.run(5).makespan_s

    def test_deadline_misses_reported(self):
        scheduler = EdgeTrainingScheduler("deadline",
                                          rng=np.random.default_rng(0))
        scheduler.add_cluster("tight", make_framework(), cluster_data(),
                              deadline_s=1e-9)
        scheduler.add_cluster("loose", make_framework(seed=1),
                              cluster_data(seed=1), deadline_s=1e9)
        report = scheduler.run(rounds_per_cluster=3)
        assert "tight" in report.deadline_misses
        assert "loose" not in report.deadline_misses

    def test_loss_priority_prefers_lossier_cluster(self):
        # A cluster with a deep decoder starts with higher loss variance;
        # loss_priority must still give every cluster its full budget.
        scheduler = EdgeTrainingScheduler("loss_priority",
                                          rng=np.random.default_rng(0))
        scheduler.add_cluster("shallow", make_framework(seed=0),
                              cluster_data(seed=0))
        scheduler.add_cluster("deep", make_framework(seed=1, decoder_layers=3),
                              cluster_data(seed=1))
        report = scheduler.run(rounds_per_cluster=6)
        assert set(report.rounds_per_cluster.values()) == {6}


class TestSchedulerEdgeCases:
    def test_zero_clusters_raises(self):
        for engine in ("auto", "sequential", "batched"):
            with pytest.raises(RuntimeError):
                EdgeTrainingScheduler("round_robin", engine=engine).run()

    def test_single_cluster_runs_all_engines(self):
        for engine in ("sequential", "batched"):
            scheduler = EdgeTrainingScheduler(
                "round_robin", rng=np.random.default_rng(0), engine=engine)
            scheduler.add_cluster("only", make_framework(), cluster_data())
            report = scheduler.run(rounds_per_cluster=5)
            assert report.rounds_per_cluster == {"only": 5}
            assert report.makespan_s > 0
            assert len(report.completion_times["only"]) == 5

    def test_single_cluster_auto_uses_sequential(self):
        # Batching one cluster buys nothing; auto should not bother.
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0))
        scheduler.add_cluster("only", make_framework(), cluster_data())
        assert scheduler.run(3).engine == "sequential"

    def test_deadline_policy_with_expired_budgets(self):
        # Every deadline is already blown (0 or negative): all clusters
        # still get their full budget, and every one is reported missed.
        for engine in ("sequential", "batched"):
            scheduler = EdgeTrainingScheduler(
                "deadline", rng=np.random.default_rng(0), engine=engine)
            scheduler.add_cluster("expired-a", make_framework(seed=0),
                                  cluster_data(seed=0), deadline_s=0.0)
            scheduler.add_cluster("expired-b", make_framework(seed=1),
                                  cluster_data(seed=1), deadline_s=-5.0)
            report = scheduler.run(rounds_per_cluster=4)
            assert report.rounds_per_cluster == {"expired-a": 4,
                                                 "expired-b": 4}
            assert set(report.deadline_misses) == {"expired-a", "expired-b"}

    def test_deadline_orders_by_earliest(self):
        scheduler = EdgeTrainingScheduler("deadline",
                                          rng=np.random.default_rng(0))
        scheduler.add_cluster("late", make_framework(seed=0),
                              cluster_data(seed=0), deadline_s=100.0)
        scheduler.add_cluster("soon", make_framework(seed=1),
                              cluster_data(seed=1), deadline_s=1.0)
        scheduler.add_cluster("never", make_framework(seed=2),
                              cluster_data(seed=2))
        report = scheduler.run(rounds_per_cluster=2)
        # EDF finishes "soon" first, undeadlined clusters last.
        assert report.completion_times["soon"][-1] \
            < report.completion_times["late"][-1] \
            < report.completion_times["never"][-1]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            EdgeTrainingScheduler("fifo", engine="quantum")

    def test_batched_engine_accepts_mixed_batch_sizes(self):
        # The strict homogeneous-fleet contract is gone: clusters with
        # different batch sizes partition into separate stacking groups
        # (the group key includes the batch size) and still batch.
        def build(engine):
            scheduler = EdgeTrainingScheduler("round_robin",
                                              rng=np.random.default_rng(0),
                                              engine=engine)
            scheduler.add_cluster("small", make_framework(seed=0),
                                  cluster_data(seed=0), batch_size=8)
            scheduler.add_cluster("large", make_framework(seed=1),
                                  cluster_data(seed=1), batch_size=16)
            return scheduler

        batched = build("batched")
        assert batched.execution_plan().groups == ((0,), (1,))
        report = batched.run(rounds_per_cluster=3)
        assert report.engine == "batched"
        sequential = build("sequential")
        sequential.run(rounds_per_cluster=3)
        for c_b, c_s in zip(batched.clusters, sequential.clusters):
            np.testing.assert_allclose(c_b.history.losses,
                                       c_s.history.losses, atol=1e-6)

    def test_batched_engine_accepts_short_data(self):
        # A cluster with less than one full batch of data cannot stack;
        # it runs as a singleton group inside the batched replay.
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0),
                                          engine="batched")
        scheduler.add_cluster("short", make_framework(seed=0),
                              cluster_data(seed=0, count=4), batch_size=16)
        report = scheduler.run(rounds_per_cluster=2)
        assert report.engine == "batched"
        assert report.rounds_per_cluster == {"short": 2}

    def test_batched_engine_accepts_heterogeneous_models(self):
        def build(engine):
            scheduler = EdgeTrainingScheduler("round_robin",
                                              rng=np.random.default_rng(0),
                                              engine=engine)
            scheduler.add_cluster("shallow", make_framework(seed=0),
                                  cluster_data(seed=0))
            scheduler.add_cluster("deep",
                                  make_framework(seed=1, decoder_layers=3),
                                  cluster_data(seed=1))
            return scheduler

        batched = build("batched")
        report = batched.run(rounds_per_cluster=2)
        assert report.engine == "batched"
        sequential = build("sequential")
        report_seq = sequential.run(rounds_per_cluster=2)
        for c_b, c_s in zip(batched.clusters, sequential.clusters):
            np.testing.assert_allclose(c_b.history.losses,
                                       c_s.history.losses, atol=1e-6)
        assert report.makespan_s == pytest.approx(report_seq.makespan_s)

    def test_auto_falls_back_for_heterogeneous_models(self):
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0))
        scheduler.add_cluster("shallow", make_framework(seed=0),
                              cluster_data(seed=0))
        scheduler.add_cluster("deep", make_framework(seed=1, decoder_layers=3),
                              cluster_data(seed=1))
        report = scheduler.run(rounds_per_cluster=3)
        assert report.engine == "sequential"
        assert report.rounds_per_cluster == {"shallow": 3, "deep": 3}

    def test_auto_batches_homogeneous_fleet(self):
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0))
        for index in range(3):
            scheduler.add_cluster(f"c{index}", make_framework(seed=index),
                                  cluster_data(seed=index))
        assert scheduler.run(3).engine == "batched"


class TestEngineEquivalence:
    def _scheduler(self, policy, engine, num_clusters=3, deadlines=None):
        scheduler = EdgeTrainingScheduler(policy,
                                          rng=np.random.default_rng(7),
                                          engine=engine)
        for index in range(num_clusters):
            deadline = deadlines[index] if deadlines else None
            scheduler.add_cluster(f"cluster-{index}",
                                  make_framework(seed=index, noise=0.05),
                                  cluster_data(seed=index),
                                  deadline_s=deadline)
        return scheduler

    @pytest.mark.parametrize("policy", ["fifo", "round_robin",
                                        "loss_priority", "deadline"])
    def test_loss_trajectories_match(self, policy):
        sequential = self._scheduler(policy, "sequential")
        batched = self._scheduler(policy, "batched")
        report_seq = sequential.run(rounds_per_cluster=10)
        report_bat = batched.run(rounds_per_cluster=10)
        assert report_seq.engine == "sequential"
        assert report_bat.engine == "batched"
        for c_seq, c_bat in zip(sequential.clusters, batched.clusters):
            np.testing.assert_allclose(c_bat.history.losses,
                                       c_seq.history.losses, atol=1e-6)
            np.testing.assert_allclose(c_bat.history.times,
                                       c_seq.history.times, rtol=1e-12)

    @pytest.mark.parametrize("policy", ["fifo", "round_robin",
                                        "loss_priority", "deadline"])
    def test_schedule_accounting_matches(self, policy):
        deadlines = [1e-6, None, 1e9]
        report_seq = self._scheduler(policy, "sequential",
                                     deadlines=deadlines).run(8)
        report_bat = self._scheduler(policy, "batched",
                                     deadlines=deadlines).run(8)
        assert report_bat.makespan_s == pytest.approx(report_seq.makespan_s)
        assert report_bat.total_edge_time_s == \
            pytest.approx(report_seq.total_edge_time_s)
        assert report_bat.deadline_misses == report_seq.deadline_misses
        for name, times in report_seq.completion_times.items():
            np.testing.assert_allclose(report_bat.completion_times[name],
                                       times, rtol=1e-12)

    def test_ledgers_match_across_engines(self):
        sequential = self._scheduler("round_robin", "sequential")
        batched = self._scheduler("round_robin", "batched")
        sequential.run(6)
        batched.run(6)
        for c_seq, c_bat in zip(sequential.clusters, batched.clusters):
            assert c_bat.trainer.ledger.by_kind() == \
                c_seq.trainer.ledger.by_kind()


class TestComparePolicies:
    def test_all_policies_complete_same_workload(self):
        reports = {}
        for policy in ("fifo", "round_robin", "loss_priority", "deadline"):
            scheduler = EdgeTrainingScheduler(policy,
                                              rng=np.random.default_rng(0))
            for i in range(2):
                scheduler.add_cluster(f"c{i}", make_framework(seed=i),
                                      cluster_data(seed=i))
            reports[policy] = scheduler.run(rounds_per_cluster=6)
        edge_times = {round(r.total_edge_time_s, 9) for r in reports.values()}
        # Same work -> same total edge compute, whatever the order.
        assert len(edge_times) == 1
        for report in reports.values():
            assert report.mean_final_loss < float("inf")


class TestGroupBatching:
    """auto resolves mixed fleets into homogeneous stacking groups."""

    def _mixed(self, engine="auto"):
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0),
                                          engine=engine)
        for index, layers in enumerate([1, 1, 3, 3]):
            scheduler.add_cluster(
                f"c{index}",
                make_framework(seed=index, decoder_layers=layers,
                               noise=0.05),
                cluster_data(seed=index))
        return scheduler

    def test_auto_batches_mixed_fleet_by_group(self):
        scheduler = self._mixed()
        plan = scheduler.execution_plan()
        assert plan.engine == "batched"
        assert sorted(plan.groups) == [(0, 1), (2, 3)]
        assert scheduler.run(4).engine == "batched"

    def test_group_batched_matches_sequential(self):
        batched = self._mixed()
        report_bat = batched.run(rounds_per_cluster=8)
        sequential = self._mixed(engine="sequential")
        report_seq = sequential.run(rounds_per_cluster=8)
        for c_b, c_s in zip(batched.clusters, sequential.clusters):
            np.testing.assert_allclose(c_b.history.losses,
                                       c_s.history.losses, atol=1e-6)
            np.testing.assert_allclose(c_b.history.times,
                                       c_s.history.times, rtol=1e-12)
        assert report_bat.makespan_s == pytest.approx(report_seq.makespan_s)
        assert report_bat.completion_times == report_seq.completion_times

    def test_explicit_batched_batches_mixed_fleet_by_group(self):
        # engine="batched" now takes the same ExecutionPlan stacking
        # groups as auto: a mixed fleet batches group by group instead
        # of raising.
        batched = self._mixed(engine="batched")
        plan = batched.execution_plan()
        assert plan.engine == "batched"
        assert sorted(plan.groups) == [(0, 1), (2, 3)]
        report = batched.run(rounds_per_cluster=4)
        assert report.engine == "batched"
        sequential = self._mixed(engine="sequential")
        report_seq = sequential.run(rounds_per_cluster=4)
        for c_b, c_s in zip(batched.clusters, sequential.clusters):
            np.testing.assert_allclose(c_b.history.losses,
                                       c_s.history.losses, atol=1e-6)
        assert report.completion_times == report_seq.completion_times

    def test_adam_settings_split_groups(self):
        """Clusters whose Adam learning rates differ never share a
        stacked program, even when registered interleaved."""
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0))
        for index, lr in enumerate([1e-3, 2e-3, 1e-3, 2e-3]):
            config = OrcoDCSConfig(input_dim=24, latent_dim=4, seed=index,
                                   noise_sigma=0.0, learning_rate=lr)
            scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config),
                                  cluster_data(seed=index))
        assert scheduler.execution_plan().groups == ((0, 2), (1, 3))

    def test_dtypes_split_groups(self):
        """float32 and float64 clusters never share a stack: np.stack
        would promote it, and the write-back would widen the float32
        clusters' parameters."""
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0))
        dtypes = [np.float32, np.float64, np.float32, np.float64]
        for index, dtype in enumerate(dtypes):
            config = OrcoDCSConfig(input_dim=24, latent_dim=4, seed=index,
                                   noise_sigma=0.1, dtype=dtype)
            scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config),
                                  cluster_data(seed=index))
        plan = scheduler.execution_plan()
        assert plan.groups == ((0, 2), (1, 3))
        assert plan.engine == "batched"
        scheduler.run(rounds_per_cluster=3)
        for cluster, dtype in zip(scheduler.clusters, dtypes):
            trainer = cluster.trainer
            assert len(cluster.history.losses) == 3
            for opt in (trainer.encoder_optimizer, trainer.decoder_optimizer):
                arrays = [p.data for p in opt.params] + opt._m + opt._v
                assert {a.dtype for a in arrays} == {np.dtype(dtype)}

    def test_two_odd_singletons_fall_back_to_sequential(self):
        scheduler = EdgeTrainingScheduler("round_robin",
                                          rng=np.random.default_rng(0))
        scheduler.add_cluster("shallow", make_framework(seed=0),
                              cluster_data(seed=0))
        scheduler.add_cluster("deep",
                              make_framework(seed=1, decoder_layers=3),
                              cluster_data(seed=1))
        plan = scheduler.execution_plan()
        assert plan.engine == "sequential"
        assert plan.groups == ((0,), (1,))
