"""Unit tests for node placement and geometry."""

import numpy as np
import pytest

from repro.wsn import distance, pairwise_distances, place_grid, place_uniform


class TestPlacement:
    def test_uniform_count_and_bounds(self):
        pts = place_uniform(50, (80.0, 40.0), np.random.default_rng(0))
        assert pts.shape == (50, 2)
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 80
        assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= 40

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            place_uniform(0)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="count must be positive"):
            place_grid(0)

    def test_grid_covers_area(self):
        pts = place_grid(16, (100.0, 100.0))
        assert pts.shape == (16, 2)
        # Grid points should spread over most of the area.
        assert pts[:, 0].max() - pts[:, 0].min() > 50

    def test_grid_jitter_within_bounds_of_cell(self):
        a = place_grid(9, (90.0, 90.0))
        b = place_grid(9, (90.0, 90.0), jitter=1.0,
                       rng=np.random.default_rng(0))
        assert np.abs(a - b).max() <= 1.0 + 1e-9


class TestDistances:
    def test_pairwise_symmetric_zero_diagonal(self):
        pts = place_uniform(10, rng=np.random.default_rng(0))
        d = pairwise_distances(pts)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0)

    def test_pairwise_matches_scalar_distance(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_distances(pts)
        assert abs(d[0, 1] - 5.0) < 1e-12
        assert abs(distance(pts[0], pts[1]) - 5.0) < 1e-12

    def test_triangle_inequality(self):
        pts = place_uniform(8, rng=np.random.default_rng(1))
        d = pairwise_distances(pts)
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9
