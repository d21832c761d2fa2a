"""Unit tests for the network-lifetime simulation."""

import numpy as np
import pytest

from repro.wsn import (
    compare_lifetime,
    lifetime_extension_factor,
    place_uniform,
    simulate_lifetime,
)


def deployment(n=40, seed=0):
    return place_uniform(n, (80.0, 80.0), np.random.default_rng(seed))


class TestSimulateLifetime:
    def test_raw_mode_eventually_kills_a_node(self):
        report = simulate_lifetime(deployment(), "raw", battery_j=0.01,
                                   max_rounds=5000)
        assert report.mode == "raw"
        assert report.rounds_to_first_death < 5000

    def test_hybrid_outlives_raw(self):
        reports = compare_lifetime(deployment(), latent_dim=4,
                                   battery_j=0.01, max_rounds=5000)
        assert reports["hybrid"].rounds_to_first_death > \
            reports["raw"].rounds_to_first_death
        assert lifetime_extension_factor(reports) > 1.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            simulate_lifetime(deployment(), "quantum")

    def test_energy_spread_reflects_hotspots(self):
        # Nodes near the aggregator relay everyone's data under raw
        # aggregation, so the consumption spread is well above uniform.
        report = simulate_lifetime(deployment(), "raw", battery_j=0.01,
                                   max_rounds=2000)
        assert report.energy_spread > 1.5

    def test_large_battery_survives_run(self):
        report = simulate_lifetime(deployment(16, seed=1), "hybrid",
                                   latent_dim=4, battery_j=100.0,
                                   max_rounds=20)
        assert report.rounds_to_first_death >= report.total_rounds_simulated
        assert report.rounds_to_fraction_dead is None

    def test_fraction_death_round_after_first(self):
        report = simulate_lifetime(deployment(), "raw", battery_j=0.02,
                                   max_rounds=8000, death_fraction=0.1)
        if report.rounds_to_fraction_dead is not None:
            assert report.rounds_to_fraction_dead >= report.rounds_to_first_death
