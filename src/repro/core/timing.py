"""Compute/transmission time model for IoT-Edge orchestrated training.

"Time" in the paper's Figures 4 and 6-8 is wall-clock on their testbed.
This reproduction replaces the testbed with a deterministic cost model:
every training round is charged the FLOPs it executes on each device
class (aggregator = IoT-class hardware, edge = server-class) and the
bytes it moves over each link.  The model preserves the *orderings* the
paper reports — a shallow encoder on a weak device plus a small latent
uplink beats a fixed wide model — while keeping runs laptop-scale and
reproducible (see the README's "Substitutions" section).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..wsn.link import LinkModel, downlink, uplink
from ..wsn.network import VALUE_BYTES


@dataclass(frozen=True)
class DeviceProfile:
    """Sustained compute throughput of one device class."""

    name: str
    flops_per_second: float

    def __post_init__(self):
        if self.flops_per_second <= 0:
            raise ValueError("flops_per_second must be positive")

    def seconds_for(self, flops: float) -> float:
        """Modeled seconds to execute ``flops`` floating-point ops."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        return flops / self.flops_per_second


def iot_aggregator_profile() -> DeviceProfile:
    """Cortex-M7-class data aggregator: tens of MFLOPS sustained."""
    return DeviceProfile("iot-aggregator", 5.0e7)


def edge_server_profile() -> DeviceProfile:
    """Small edge server (embedded GPU class): tens of GFLOPS."""
    return DeviceProfile("edge-server", 2.0e10)


# ----------------------------------------------------------------------
# FLOP counting
# ----------------------------------------------------------------------
def dense_flops(in_features: int, out_features: int) -> int:
    """Multiply-accumulate FLOPs for one dense forward pass, per sample."""
    return 2 * in_features * out_features


def conv2d_flops(in_channels: int, out_channels: int,
                 kernel: Tuple[int, int], out_hw: Tuple[int, int]) -> int:
    """FLOPs for one conv2d forward pass, per sample."""
    kh, kw = kernel
    oh, ow = out_hw
    return 2 * out_channels * oh * ow * in_channels * kh * kw


def training_flops(forward_flops: float) -> float:
    """Forward + backward + update, the standard ~3x forward estimate."""
    return 3.0 * forward_flops


def dense_stack_flops(dims: Sequence[int]) -> int:
    """Forward FLOPs of a dense chain ``dims[0] -> dims[1] -> ...``."""
    return sum(dense_flops(a, b) for a, b in zip(dims[:-1], dims[1:]))


# ----------------------------------------------------------------------
# Round timing
# ----------------------------------------------------------------------
@dataclass
class RoundTiming:
    """Per-minibatch time breakdown of the orchestrated protocol."""

    aggregator_compute_s: float
    edge_compute_s: float
    uplink_s: float
    downlink_s: float

    @property
    def total_s(self) -> float:
        return (self.aggregator_compute_s + self.edge_compute_s
                + self.uplink_s + self.downlink_s)


class OrchestrationTimingModel:
    """Charges one ping-pong training round its compute and bytes.

    The protocol (Sec. III-B): aggregator encodes the batch and uplinks
    noisy latents; the edge decodes, downlinks reconstructions; loss and
    gradients flow back (latent gradients ride the downlink); both sides
    update.

    Parameters
    ----------
    aggregator, edge:
        Device profiles for the two sides.
    up, down:
        Link models for latent uplink and reconstruction/gradient
        downlink.

    A scalar takes :data:`~repro.wsn.network.VALUE_BYTES` bytes on the
    wire.
    """

    def __init__(self, aggregator: DeviceProfile = None,
                 edge: DeviceProfile = None,
                 up: LinkModel = None, down: LinkModel = None):
        self.aggregator = aggregator or iot_aggregator_profile()
        self.edge = edge or edge_server_profile()
        self.up = up or uplink()
        self.down = down or downlink()

    def round_bytes(self, batch_size: int, input_dim: int,
                    latent_dim: int) -> Tuple[int, int]:
        """(uplink_bytes, downlink_bytes) for one training round.

        Uplink: noisy latents, ``B x M`` scalars.  Downlink:
        reconstructions ``B x N`` plus latent gradients ``B x M``.
        """
        up_bytes = batch_size * latent_dim * VALUE_BYTES
        down_bytes = batch_size * (input_dim + latent_dim) * VALUE_BYTES
        return up_bytes, down_bytes

    def training_round(self, batch_size: int, input_dim: int, latent_dim: int,
                       encoder_forward_flops: float,
                       decoder_forward_flops: float) -> RoundTiming:
        """Time one orchestrated minibatch round.

        ``*_forward_flops`` are per-sample forward costs; training charges
        the standard 3x factor for forward+backward+update.
        """
        up_bytes, down_bytes = self.round_bytes(batch_size, input_dim, latent_dim)
        agg_s = self.aggregator.seconds_for(
            training_flops(encoder_forward_flops) * batch_size)
        edge_s = self.edge.seconds_for(
            training_flops(decoder_forward_flops) * batch_size)
        return RoundTiming(
            aggregator_compute_s=agg_s,
            edge_compute_s=edge_s,
            uplink_s=self.up.transfer_time(up_bytes),
            downlink_s=self.down.transfer_time(down_bytes),
        )


@dataclass
class OverheadReport:
    """Sec. III-E's overhead analysis, quantified for one configuration."""

    aggregator_flops_per_round: float
    edge_flops_per_round: float
    uplink_bytes_per_round: int
    downlink_bytes_per_round: int

    @property
    def edge_compute_share(self) -> float:
        """Fraction of training compute carried by the edge server."""
        total = self.aggregator_flops_per_round + self.edge_flops_per_round
        return self.edge_flops_per_round / total if total else 0.0


def overhead_report(batch_size: int, input_dim: int, latent_dim: int,
                    encoder_forward_flops: float,
                    decoder_forward_flops: float) -> OverheadReport:
    """Quantify how OrcoDCS splits training overhead (Sec. III-E).

    The claim to verify: the aggregator's share is minimal because the
    encoder is a single dense layer, while the edge absorbs the decoder.
    """
    return OverheadReport(
        aggregator_flops_per_round=training_flops(encoder_forward_flops) * batch_size,
        edge_flops_per_round=training_flops(decoder_forward_flops) * batch_size,
        uplink_bytes_per_round=batch_size * latent_dim * VALUE_BYTES,
        downlink_bytes_per_round=batch_size * (input_dim + latent_dim) * VALUE_BYTES,
    )
