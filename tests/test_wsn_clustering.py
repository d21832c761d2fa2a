"""Unit tests for cluster-head selection."""

import numpy as np
import pytest

from repro.wsn import pairwise_distances, select_aggregator


class TestSelectAggregator:
    def test_proximity_picks_min_total_distance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        chosen = select_aggregator(pts)
        totals = pairwise_distances(pts).sum(axis=1)
        assert chosen == int(np.argmin(totals))

    def test_central_node_wins(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.1], [0.0, 10.0],
                        [10.0, 10.0]])
        assert select_aggregator(pts) == 2

    def test_energy_method(self):
        pts = np.zeros((3, 2)) + np.arange(3)[:, None]
        assert select_aggregator(pts, "energy", [0.1, 0.9, 0.5]) == 1

    def test_hybrid_balances(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        # Central node also has the most energy -> must win under hybrid.
        assert select_aggregator(pts, "hybrid", [0.0, 1.0, 0.0]) == 1

    def test_energy_requires_energies(self):
        with pytest.raises(ValueError):
            select_aggregator(np.zeros((3, 2)), "energy")

    def test_energies_length_mismatch(self):
        with pytest.raises(ValueError):
            select_aggregator(np.zeros((3, 2)), "energy", [1.0])

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            select_aggregator(np.zeros((3, 2)), "random", [1, 2, 3])

