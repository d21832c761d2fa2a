"""Unit tests for quality and cost metrics."""

import numpy as np
import pytest

from repro.metrics import (
    CostBreakdown,
    batch_psnr,
    bytes_to_kb,
    mse,
    nmse,
    psnr,
    savings_factor,
    ssim,
)


class TestQuality:
    def test_mse_value(self):
        assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))

    def test_nmse_perfect_zero(self):
        x = np.random.default_rng(0).random(10)
        assert nmse(x, x) == 0.0

    def test_nmse_of_zero_prediction_is_one(self):
        x = np.random.default_rng(0).random(10)
        assert abs(nmse(x, np.zeros(10)) - 1.0) < 1e-12

    @pytest.mark.parametrize("reconstructed, expected", [
        (np.zeros(4), 0.0), (np.full(4, 0.1), float("inf")),
    ], ids=["exact", "nonzero"])
    def test_nmse_of_a_silent_signal(self, reconstructed, expected):
        assert nmse(np.zeros(4), reconstructed) == expected

    def test_psnr_infinite_for_exact(self):
        x = np.random.default_rng(0).random((4, 4))
        assert psnr(x, x) == float("inf")

    def test_psnr_known_value(self):
        x = np.zeros((10, 10))
        y = np.full((10, 10), 0.1)
        assert abs(psnr(x, y) - 20.0) < 1e-9    # mse=0.01 -> 20 dB

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        x = rng.random((8, 8))
        small = x + rng.normal(0, 0.01, x.shape)
        large = x + rng.normal(0, 0.1, x.shape)
        assert psnr(x, small) > psnr(x, large)

    def test_batch_psnr_per_sample(self):
        x = np.random.default_rng(0).random((3, 5, 5))
        values = batch_psnr(x, x + 0.05)
        assert values.shape == (3,)
        assert np.all(values > 0)


    def test_batch_psnr_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            batch_psnr(np.zeros((2, 4)), np.zeros((2, 5)))


class TestSSIM:
    def test_identical_images_score_one(self):
        x = np.random.default_rng(0).random((16, 16))
        assert abs(ssim(x, x) - 1.0) < 1e-9

    def test_noise_lowers_ssim(self):
        rng = np.random.default_rng(0)
        x = rng.random((32, 32))
        assert ssim(x, np.clip(x + rng.normal(0, 0.2, x.shape), 0, 1)) < 0.95

    def test_color_images_averaged(self):
        x = np.random.default_rng(0).random((8, 8, 3))
        assert abs(ssim(x, x) - 1.0) < 1e-9

    def test_structural_sensitivity(self):
        rng = np.random.default_rng(0)
        x = rng.random((32, 32))
        shuffled = x.copy().ravel()
        rng.shuffle(shuffled)
        assert ssim(x, shuffled.reshape(32, 32)) < ssim(x, x * 0.9 + 0.05)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            ssim(np.zeros(4), np.zeros(4))


class TestCost:
    def test_bytes_to_kb(self):
        assert bytes_to_kb(2048) == 2.0

    def test_breakdown_totals(self):
        cost = CostBreakdown("x", setup_bytes=1000, per_image_bytes=10,
                             images=100)
        assert cost.total_bytes == 2000
        assert abs(cost.total_kb - 2000 / 1024) < 1e-12

    def test_scaled_keeps_model(self):
        cost = CostBreakdown("x", setup_bytes=100, per_image_bytes=5, images=1)
        bigger = cost.scaled(1000)
        assert bigger.total_bytes == 100 + 5000
        assert cost.total_bytes == 105

    def test_savings_factor(self):
        a = CostBreakdown("base", per_image_bytes=100, images=10)
        b = CostBreakdown("ours", per_image_bytes=10, images=10)
        assert abs(savings_factor(a, b) - 10.0) < 1e-12

    def test_savings_factor_zero_cost(self):
        a = CostBreakdown("base", per_image_bytes=100, images=10)
        b = CostBreakdown("ours")
        assert savings_factor(a, b) == float("inf")
