"""Unit tests for cluster-head selection."""

import numpy as np

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

    def test_lone_survivor_is_its_own_aggregator(self):
        # A failover re-elects among the alive devices; one may be left.
        assert select_aggregator(np.array([[3.0, 4.0]])) == 0
