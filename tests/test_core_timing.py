"""Unit tests for the compute/transmission timing model."""

import pytest

from repro.core import (
    DeviceProfile,
    OrchestrationTimingModel,
    conv2d_flops,
    dense_flops,
    dense_stack_flops,
    edge_server_profile,
    iot_aggregator_profile,
    overhead_report,
    training_flops,
)


class TestDeviceProfile:
    def test_seconds_for(self):
        device = DeviceProfile("x", 1e6)
        assert device.seconds_for(2e6) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("x", 0)
        with pytest.raises(ValueError):
            DeviceProfile("x", 1e6).seconds_for(-1)

    def test_profile_ordering(self):
        # IoT-class << edge, the premise of the whole design.
        assert iot_aggregator_profile().flops_per_second * 100 < \
            edge_server_profile().flops_per_second


class TestFlopFormulas:
    def test_dense(self):
        assert dense_flops(10, 20) == 400

    def test_conv(self):
        assert conv2d_flops(3, 8, (3, 3), (28, 28)) == \
            2 * 8 * 28 * 28 * 3 * 9

    def test_training_multiplier(self):
        assert training_flops(100) == 300.0

    def test_stack(self):
        assert dense_stack_flops([10, 20, 5]) == 2 * 10 * 20 + 2 * 20 * 5


class TestTimingModel:
    def test_round_bytes(self):
        model = OrchestrationTimingModel()
        up, down = model.round_bytes(batch_size=32, input_dim=784,
                                     latent_dim=128)
        assert up == 32 * 128 * 4
        assert down == 32 * (784 + 128) * 4

    def test_round_components_positive_and_additive(self):
        model = OrchestrationTimingModel()
        timing = model.training_round(32, 784, 128,
                                      encoder_forward_flops=1e5,
                                      decoder_forward_flops=1e5)
        parts = [timing.aggregator_compute_s, timing.edge_compute_s,
                 timing.uplink_s, timing.downlink_s]
        assert all(p > 0 for p in parts)
        assert abs(timing.total_s - sum(parts)) < 1e-12

    def test_weak_aggregator_dominates_equal_flops(self):
        model = OrchestrationTimingModel()
        timing = model.training_round(32, 784, 128, 1e6, 1e6)
        assert timing.aggregator_compute_s > 50 * timing.edge_compute_s

    def test_bigger_latent_costs_more_uplink(self):
        model = OrchestrationTimingModel()
        small = model.training_round(32, 784, 128, 1e5, 1e5)
        large = model.training_round(32, 784, 1024, 1e5, 1e5)
        assert large.uplink_s > small.uplink_s


class TestOverheadReport:
    def test_edge_share(self):
        report = overhead_report(32, 784, 128,
                                 encoder_forward_flops=1e5,
                                 decoder_forward_flops=9e5)
        assert abs(report.edge_compute_share - 0.9) < 1e-12

    def test_byte_counts(self):
        report = overhead_report(10, 100, 20, 1e3, 1e3)
        assert report.uplink_bytes_per_round == 10 * 20 * 4
        assert report.downlink_bytes_per_round == 10 * 120 * 4

    def test_zero_flops_share(self):
        report = overhead_report(1, 1, 1, 0, 0)
        assert report.edge_compute_share == 0.0
