"""Sharded multi-fleet execution: seed spacing, bit-identity, telemetry.

The tentpole contract of :mod:`repro.scale.sharding`: the merged result
of a sharded run is **order-independent and bit-identical to the
single-process run** for the same seeds, regardless of worker count.
Property-tested here across 1/2/4 workers (reports, RNG streams and
transmission ledgers all digest-equal), plus the seed-spacing helper's
partition-independence and the per-shard telemetry JSONL merge.
"""

import numpy as np
import pytest

from repro.obs import MetricsCollector
from repro.obs.exporters import (merge_event_logs, read_events,
                                 read_sharded_events)
from repro.scale import (FleetJob, default_fleet_builder, fleet_rng,
                         fleet_seed_sequence, merge_outcomes, run_sharded,
                         spaced_seed_sequences)

JOB_PARAMS = {"clusters": 2, "devices": 12, "rounds_data": 16,
              "engine": "event", "loss": 0.1, "retries": 2}
ROUNDS = 4
ROOT_SEED = 7


def make_jobs(count=4, params=JOB_PARAMS):
    return [FleetJob(index, f"fleet-{index}", dict(params))
            for index in range(count)]


@pytest.fixture(scope="module")
def sharded_runs(tmp_path_factory):
    """The same 4-fleet workload at 1, 2 and 4 workers, with telemetry."""
    runs = {}
    for workers in (1, 2, 4):
        telemetry_dir = tmp_path_factory.mktemp(f"telemetry-{workers}w")
        runs[workers] = run_sharded(
            default_fleet_builder, make_jobs(),
            rounds_per_cluster=ROUNDS, workers=workers,
            root_seed=ROOT_SEED, telemetry_dir=telemetry_dir)
    return runs


class TestSeedSpacing:
    def test_deterministic_and_distinct(self):
        states = [fleet_rng(0, index).bit_generator.state
                  for index in range(8)]
        again = [fleet_rng(0, index).bit_generator.state
                 for index in range(8)]
        assert states == again
        keys = [repr(state) for state in states]
        assert len(set(keys)) == len(keys)

    def test_partition_independent(self):
        """The child depends only on (root, index) — by construction the
        caller cannot couple it to execution order, but the draws must
        also actually differ from sibling streams."""
        direct = fleet_rng(42, 5).standard_normal(4)
        after_others = fleet_rng(42, 5).standard_normal(4)
        np.testing.assert_array_equal(direct, after_others)
        sibling = fleet_rng(42, 6).standard_normal(4)
        assert not np.array_equal(direct, sibling)

    def test_matches_seed_sequence_spawn_semantics(self):
        root = np.random.SeedSequence(entropy=123)
        spawned = root.spawn(3)
        for index, child in enumerate(spawned):
            spaced = fleet_seed_sequence(np.random.SeedSequence(123), index)
            assert spaced.entropy == child.entropy
            assert tuple(spaced.spawn_key) == tuple(child.spawn_key)

    def test_seed_sequence_root_nests(self):
        child = fleet_seed_sequence(0, 2)
        grandchild = fleet_seed_sequence(child, 3)
        assert tuple(grandchild.spawn_key) == (2, 3)

    def test_spaced_sequences(self):
        seqs = spaced_seed_sequences(9, 5)
        assert len(seqs) == 5
        assert [tuple(s.spawn_key) for s in seqs] == [
            (0,), (1,), (2,), (3,), (4,)]
        assert spaced_seed_sequences(9, 0) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="fleet_index"):
            fleet_seed_sequence(0, -1)
        with pytest.raises(ValueError, match="count"):
            spaced_seed_sequences(0, -1)


class TestShardCountInvariance:
    def test_fingerprints_identical_across_worker_counts(self, sharded_runs):
        """Tentpole criterion: reports, RNG streams and ledgers are
        bit-identical at any worker count."""
        fingerprints = {workers: run.fingerprint
                        for workers, run in sharded_runs.items()}
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_report_and_stream_digests_match_per_fleet(self, sharded_runs):
        inline = sharded_runs[1].outcomes
        for workers in (2, 4):
            pooled = sharded_runs[workers].outcomes
            assert [o.fleet_id for o in pooled] == [o.fleet_id
                                                   for o in inline]
            for a, b in zip(inline, pooled):
                assert a.report_digest == b.report_digest
                assert a.rng_digests == b.rng_digests
                assert a.ledger_digests == b.ledger_digests

    def test_jobs_dealt_across_shards(self, sharded_runs):
        shards = {o.shard for o in sharded_runs[2].outcomes}
        assert shards == {0, 1}

    def test_merged_report_prefixes_cluster_keys(self, sharded_runs):
        report = sharded_runs[1].report
        assert len(report.rounds_per_cluster) == 4 * JOB_PARAMS["clusters"]
        assert all("/" in key for key in report.rounds_per_cluster)
        assert "fleet-0/c0" in report.rounds_per_cluster
        assert report.engine.startswith("sharded[")

    def test_merge_is_order_independent(self, sharded_runs):
        outcomes = sharded_runs[1].outcomes
        shuffled = [outcomes[2], outcomes[0], outcomes[3], outcomes[1]]
        merged = merge_outcomes(shuffled, workers=1)
        assert merged.fingerprint == sharded_runs[1].fingerprint


class TestRunShardedValidation:
    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError, match="no fleet jobs"):
            run_sharded(default_fleet_builder, [], rounds_per_cluster=1)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sharded(default_fleet_builder, make_jobs(1),
                        rounds_per_cluster=1, workers=0)

    def test_duplicate_fleet_ids_rejected(self):
        jobs = [FleetJob(0, "a"), FleetJob(0, "b")]
        with pytest.raises(ValueError, match="duplicate fleet_ids"):
            run_sharded(default_fleet_builder, jobs, rounds_per_cluster=1)

    def test_duplicate_fleet_names_rejected(self):
        outcomes = run_sharded(
            default_fleet_builder,
            make_jobs(2, {"clusters": 1, "devices": 8, "rounds_data": 8}),
            rounds_per_cluster=1).outcomes
        clone = [outcomes[0], outcomes[0]]
        with pytest.raises(ValueError, match="duplicate fleet names"):
            merge_outcomes(clone)

    def test_workers_capped_at_job_count(self):
        sharded = run_sharded(
            default_fleet_builder,
            make_jobs(1, {"clusters": 1, "devices": 8, "rounds_data": 8}),
            rounds_per_cluster=1, workers=8)
        assert sharded.workers == 1

    def test_unknown_param_key_rejected(self):
        # A typo must not silently fall back to the default (1 retry).
        job = FleetJob(0, "typo", {**JOB_PARAMS, "retry": 3})
        with pytest.raises(ValueError, match="'retry'"):
            default_fleet_builder(job, None, np.random.default_rng(0))

    def test_shared_dataset_sets_cluster_width(self):
        dataset = np.random.default_rng(0).standard_normal((10, 6))
        sharded = run_sharded(
            default_fleet_builder, make_jobs(1, {"clusters": 1}),
            rounds_per_cluster=1, dataset=dataset)
        report = sharded.outcomes[0].report
        assert report.rounds_per_cluster == {"c0": 1}


class TestTelemetryShardMerge:
    def test_per_shard_files_written(self, sharded_runs):
        for workers, run in sharded_runs.items():
            names = [path.name for path in run.telemetry_paths]
            assert names == [f"shard-{i}.jsonl" for i in range(workers)]

    def test_merge_preserves_shard_ids(self, sharded_runs, tmp_path):
        out = tmp_path / "merged.jsonl"
        written = sharded_runs[2].merge_telemetry(out)
        pairs = list(read_sharded_events(out))
        assert written == len(pairs) > 0
        assert {shard for shard, _ in pairs} == {0, 1}

    def test_read_events_round_trips_merged_log(self, sharded_runs,
                                                tmp_path):
        out = tmp_path / "merged.jsonl"
        sharded_runs[2].merge_telemetry(out)
        merged_events = list(read_events(out))
        single_events = [event
                         for path in sharded_runs[1].telemetry_paths
                         for event in read_events(path)]
        assert len(merged_events) == len(single_events)
        assert ({type(e).__name__ for e in merged_events}
                == {type(e).__name__ for e in single_events})

    def test_metrics_totals_equal_single_process(self, sharded_runs,
                                                 tmp_path):
        def totals(paths):
            collector = MetricsCollector()
            for path in paths:
                for event in read_events(path):
                    collector.observe_event(event)
            return (collector.transmits.value, collector.frames_sent.value,
                    collector.radio_energy_j)

        for workers in (2, 4):
            out = tmp_path / f"merged-{workers}.jsonl"
            sharded_runs[workers].merge_telemetry(out)
            assert totals([out]) == totals(sharded_runs[1].telemetry_paths)

    def test_merge_event_logs_validation(self, tmp_path):
        log = tmp_path / "shard-0.jsonl"
        log.write_text('{"kind":"round","cluster":"c0"}\n')
        with pytest.raises(ValueError, match="shard_ids"):
            merge_event_logs([log], tmp_path / "out.jsonl", shard_ids=[0, 1])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not a JSONL event log"):
            merge_event_logs([bad], tmp_path / "out.jsonl")
