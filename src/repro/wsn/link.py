"""Link models: bandwidth, latency and packetisation overhead.

Two link classes appear in the paper's architecture (Fig. 1):

* intra-cluster wireless sensor links (IEEE 802.15.4-class, ~250 kbit/s,
  small frames) between IoT devices and the data aggregator;
* the aggregator <-> edge-server backhaul, whose downlink is much cheaper
  than its uplink (Sec. III-E) — modelled as asymmetric bandwidth.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class LinkModel:
    """Bandwidth/latency/packet model of one link class.

    Attributes
    ----------
    bandwidth_bps:
        Usable bit rate.
    latency_s:
        Per-message propagation + access latency.
    max_payload_bytes:
        Payload carried by one frame; larger messages are fragmented.
    header_bytes:
        Per-frame header/trailer overhead.
    """

    bandwidth_bps: float = 250_000.0
    latency_s: float = 0.002
    max_payload_bytes: int = 96
    header_bytes: int = 17

    def __post_init__(self):
        if not self.bandwidth_bps > 0:
            raise ValueError(f"bandwidth must be positive, "
                             f"got {self.bandwidth_bps!r}")
        # Whole bytes: frame sizes and wire bytes assume integer framing.
        if not (isinstance(self.max_payload_bytes, numbers.Integral)
                and self.max_payload_bytes > 0):
            raise ValueError("max_payload_bytes must be a positive integer, "
                             f"got {self.max_payload_bytes!r}")
        if not (isinstance(self.header_bytes, numbers.Integral)
                and self.header_bytes >= 0):
            raise ValueError("header_bytes must be an integer >= 0, "
                             f"got {self.header_bytes!r}")
        if not 0.0 <= self.latency_s < math.inf:
            raise ValueError(f"latency_s must be finite and non-negative, "
                             f"got {self.latency_s!r}")

    def frames_for(self, n_bytes: int) -> int:
        """Number of frames needed to carry ``n_bytes`` of payload."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes == 0:
            return 0
        return math.ceil(n_bytes / self.max_payload_bytes)

    def frame_sizes(self, n_bytes: int) -> List[int]:
        """Per-frame payload sizes carrying ``n_bytes`` (last may be short).

        Zero payload fragments into zero frames — the model never emits
        header-only frames.  Per-frame ARQ in
        :class:`repro.sim.channel.UnreliableChannel` iterates this.
        """
        count = self.frames_for(n_bytes)
        if count == 0:
            return []
        full = [self.max_payload_bytes] * (count - 1)
        return full + [n_bytes - (count - 1) * self.max_payload_bytes]

    def frame_time(self, payload_bytes: int) -> float:
        """Airtime of one frame (header + payload), excluding access latency."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        return (payload_bytes + self.header_bytes) * 8.0 / self.bandwidth_bps

    def wire_bytes(self, n_bytes: int) -> int:
        """Bytes actually put on the air, including frame headers."""
        return n_bytes + self.frames_for(n_bytes) * self.header_bytes

    def transfer_time(self, n_bytes: int) -> float:
        """Seconds to move ``n_bytes`` across the link."""
        if n_bytes == 0:
            return 0.0
        return self.latency_s + self.wire_bytes(n_bytes) * 8.0 / self.bandwidth_bps


def sensor_link() -> LinkModel:
    """Default intra-cluster 802.15.4-class link."""
    return LinkModel(bandwidth_bps=250_000.0, latency_s=0.002,
                     max_payload_bytes=96, header_bytes=17)


def uplink() -> LinkModel:
    """Default aggregator -> edge uplink (constrained)."""
    return LinkModel(bandwidth_bps=1_000_000.0, latency_s=0.010,
                     max_payload_bytes=1400, header_bytes=40)


def downlink() -> LinkModel:
    """Default edge -> aggregator downlink (an order of magnitude cheaper,
    per the paper's overhead analysis)."""
    return LinkModel(bandwidth_bps=10_000_000.0, latency_s=0.005,
                     max_payload_bytes=1400, header_bytes=40)
