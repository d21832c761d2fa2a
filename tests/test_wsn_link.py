"""Unit tests for link models."""

import numpy as np
import pytest

from repro.wsn import LinkModel, downlink, sensor_link, uplink


class TestLinkModel:
    def test_frames_for_payload(self):
        link = LinkModel(max_payload_bytes=100, header_bytes=10)
        assert link.frames_for(0) == 0
        assert link.frames_for(1) == 1
        assert link.frames_for(100) == 1
        assert link.frames_for(101) == 2

    def test_wire_bytes_adds_headers(self):
        link = LinkModel(max_payload_bytes=100, header_bytes=10)
        assert link.wire_bytes(250) == 250 + 3 * 10

    def test_transfer_time_zero_for_empty(self):
        assert sensor_link().transfer_time(0) == 0.0

    def test_transfer_time_monotone(self):
        link = sensor_link()
        assert link.transfer_time(2000) > link.transfer_time(1000)

    def test_transfer_time_includes_latency(self):
        link = LinkModel(bandwidth_bps=8e6, latency_s=0.5,
                         max_payload_bytes=1000, header_bytes=0)
        assert abs(link.transfer_time(1000) - (0.5 + 0.001)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkModel(max_payload_bytes=0)
        with pytest.raises(ValueError):
            LinkModel(latency_s=-1)
        with pytest.raises(ValueError):
            sensor_link().frames_for(-1)

    def test_nan_bandwidth_rejected(self):
        """NaN fails ``<= 0`` as well as ``> 0``: it must not slip
        through into NaN frame and transfer times."""
        with pytest.raises(ValueError, match="bandwidth"):
            LinkModel(bandwidth_bps=float("nan"))

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="latency_s"):
            LinkModel(latency_s=latency)

    @pytest.mark.parametrize("header", [float("nan"), float("inf"), 2.5])
    def test_non_integer_header_rejected(self, header):
        # NaN/inf headers gave NaN wire bytes, 2.5 gave 207.5 for 200 B.
        with pytest.raises(ValueError, match="header_bytes"):
            LinkModel(header_bytes=header)

    def test_fractional_max_payload_rejected(self):
        # 96.5 fragmented 200 B into [96.5, 96.5, 7.0].
        with pytest.raises(ValueError, match="max_payload_bytes"):
            LinkModel(max_payload_bytes=96.5)

    def test_numpy_integer_framing_accepted(self):
        link = LinkModel(max_payload_bytes=np.int64(96),
                         header_bytes=np.int32(17))
        assert link.frame_sizes(200) == [96, 96, 8]
        assert link.wire_bytes(200) == 200 + 3 * 17


class TestFactories:
    def test_downlink_faster_than_uplink(self):
        # The paper's overhead analysis assumes downlink is much cheaper.
        assert downlink().bandwidth_bps >= 5 * uplink().bandwidth_bps

    def test_sensor_link_is_slowest(self):
        assert sensor_link().bandwidth_bps < uplink().bandwidth_bps

    def test_same_payload_cheaper_on_downlink(self):
        payload = 100_000
        assert downlink().transfer_time(payload) < uplink().transfer_time(payload)


class TestFragmentationEdgeCases:
    """Satellite coverage: zero-byte, exact-fit and near-boundary payloads."""

    def test_zero_byte_payload_has_no_frames(self):
        link = LinkModel(max_payload_bytes=100, header_bytes=10)
        assert link.frames_for(0) == 0
        assert link.frame_sizes(0) == []
        assert link.wire_bytes(0) == 0
        assert link.transfer_time(0) == 0.0

    def test_payload_exactly_max_payload_is_one_frame(self):
        link = LinkModel(max_payload_bytes=96, header_bytes=17)
        assert link.frames_for(96) == 1
        assert link.frame_sizes(96) == [96]
        assert link.wire_bytes(96) == 96 + 17

    def test_payload_one_over_max_spills_a_tiny_frame(self):
        link = LinkModel(max_payload_bytes=96, header_bytes=17)
        assert link.frame_sizes(97) == [96, 1]
        assert link.wire_bytes(97) == 97 + 2 * 17

    def test_exact_multiple_has_no_partial_frame(self):
        link = LinkModel(max_payload_bytes=100, header_bytes=5)
        sizes = link.frame_sizes(300)
        assert sizes == [100, 100, 100]

    def test_no_header_only_frames_ever(self):
        link = LinkModel(max_payload_bytes=50, header_bytes=9)
        for n in (0, 1, 49, 50, 51, 99, 100, 101, 1000):
            assert all(size > 0 for size in link.frame_sizes(n))
            assert sum(link.frame_sizes(n)) == n

    def test_frame_sizes_consistent_with_wire_bytes(self):
        link = sensor_link()
        for n in (0, 1, 95, 96, 97, 4321):
            sizes = link.frame_sizes(n)
            assert len(sizes) == link.frames_for(n)
            rebuilt = sum(sizes) + len(sizes) * link.header_bytes
            assert rebuilt == link.wire_bytes(n)

    def test_frame_time_matches_transfer_time_decomposition(self):
        link = sensor_link()
        n = 1000
        per_frame = sum(link.frame_time(size) for size in link.frame_sizes(n))
        assert link.transfer_time(n) == pytest.approx(
            link.latency_s + per_frame, rel=1e-12)

    def test_frame_time_validation(self):
        with pytest.raises(ValueError):
            sensor_link().frame_time(-1)

    def test_header_only_link_configuration(self):
        """A link whose header dwarfs its payload still fragments sanely."""
        link = LinkModel(max_payload_bytes=1, header_bytes=40)
        assert link.frames_for(3) == 3
        assert link.frame_sizes(3) == [1, 1, 1]
        assert link.wire_bytes(3) == 3 + 3 * 40
