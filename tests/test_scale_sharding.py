"""Independent fleets: per-fleet RNG streams and the fleet builder.

:func:`repro.scale.fleet_rng` gives fleet ``i`` the ``i``-th
``SeedSequence`` spawn child of the root seed — the stream the
``resilience`` replicate results depend on.
:func:`repro.scale.default_fleet_builder` turns plain params into a
scheduler and must reject what it cannot honour: unknown keys, and
lossy or coded settings on an engine that models ideal links.
"""

import numpy as np
import pytest

from repro.scale import FleetJob, default_fleet_builder, fleet_rng

JOB_PARAMS = {"clusters": 2, "devices": 12, "rounds_data": 16,
              "engine": "event", "loss": 0.1, "retries": 2}
ROOT_SEED = 7


class TestSeedSpacing:
    def test_deterministic_and_distinct(self):
        states = [fleet_rng(0, index).bit_generator.state
                  for index in range(8)]
        again = [fleet_rng(0, index).bit_generator.state
                 for index in range(8)]
        assert states == again
        keys = [repr(state) for state in states]
        assert len(set(keys)) == len(keys)

    def test_matches_seed_sequence_spawn_semantics(self):
        for root in (0, 123, 2**63 + 5):
            children = np.random.SeedSequence(root).spawn(4)
            for index, child in enumerate(children):
                np.testing.assert_array_equal(
                    fleet_rng(root, index).random(16),
                    np.random.default_rng(child).random(16))

    def test_validation(self):
        with pytest.raises(ValueError, match="fleet_index"):
            fleet_rng(0, -1)


class TestRunShardedValidation:
    """Param validation in :func:`default_fleet_builder`."""

    def test_unknown_param_key_rejected(self):
        # A typo must not silently fall back to the default (1 retry).
        job = FleetJob(0, "typo", {**JOB_PARAMS, "retry": 3})
        with pytest.raises(ValueError, match="'retry'"):
            default_fleet_builder(job, None, np.random.default_rng(0))

    @pytest.mark.parametrize("params", [
        {"loss": 0.3},
        {"engine": "batched", "recovery": "fec"},
        {"engine": "sequential", "loss": 0.1},
    ])
    def test_lossy_settings_rejected_on_ideal_engines(self, params):
        # An ideal engine must not run a lossy or coded spec lossless
        # and uncoded.
        job = FleetJob(0, "ideal", params)
        with pytest.raises(ValueError, match="require engine='event'"):
            default_fleet_builder(job, None, fleet_rng(ROOT_SEED, 0))

    def test_nan_battery_rejected_when_built(self):
        """A NaN ``battery_j`` used to run as if the battery were
        infinite: no cluster ever retired, whatever it spent."""
        job = FleetJob(0, "nan-battery", {"clusters": 2, "engine": "event",
                                          "loss": 0.2, "retries": 1,
                                          "battery_j": "nan"})
        with pytest.raises(ValueError, match="aggregator_battery_j"):
            default_fleet_builder(job, None, fleet_rng(ROOT_SEED, 0))

    @pytest.mark.parametrize("engine", ["event", "analytic"])
    def test_lossy_settings_build_channels(self, engine):
        job = FleetJob(0, "lossy", {"engine": engine, "loss": 0.3,
                                    "recovery": "fec"})
        scheduler = default_fleet_builder(job, None, fleet_rng(ROOT_SEED, 0))
        assert scheduler.channels.loss == 0.3
        assert scheduler.resilience.recovery == "fec"

    def test_shared_dataset_sets_cluster_width(self):
        dataset = np.random.default_rng(0).standard_normal((10, 6))
        scheduler = default_fleet_builder(
            FleetJob(0, "shared", {"clusters": 1}), dataset,
            fleet_rng(ROOT_SEED, 0))
        assert [c.trainer.config.input_dim
                for c in scheduler.clusters] == [6]
        report = scheduler.run(rounds_per_cluster=1)
        assert report.rounds_per_cluster == {"c0": 1}
