"""Microbenchmarks for the substrates (repeated-timing mode).

These measure the hot paths the figure experiments sit on: autograd
training rounds, conv forward/backward at DCSNet's layer shapes, the
Adam update over the DCSNet baseline's parameters (both in float32, the
dtype DCSNet trains in), WSN aggregation simulation, deployed data
collection and dataset generation; and two the event engine sits on:
the edge's pick queue and partial fleet waves.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.baselines.dcsnet import build_dcsnet_decoder, build_dcsnet_encoder
from repro.core import (AsymmetricAutoencoder, EncoderDeployment, FleetTrainer,
                        OrcoDCSConfig, OrcoDCSFramework)
from repro.core.rounds import PickQueue
from repro.datasets import (FieldRegime, SensorField, generate_digits,
                            normalized_rounds, render_sign)
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.sim import ARQConfig, ChannelSpec, CodingSpec
from repro.wsn import (
    WSNetwork,
    build_aggregation_tree,
    place_grid,
    select_aggregator,
    simulate_raw_aggregation,
)


class TestNNSubstrate:
    def test_dense_training_round(self, benchmark):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Dense(784, 128, rng=rng), nn.Sigmoid(),
                              nn.Dense(128, 784, rng=rng), nn.Sigmoid())
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        loss = nn.HuberLoss()
        batch = rng.random((32, 784))

        def round_step():
            out = model(Tensor(batch))
            value = loss(out, batch)
            optimizer.zero_grad()
            value.backward()
            optimizer.step()
            return value.item()

        result = benchmark(round_step)
        assert result > 0

    @pytest.mark.parametrize("batch,c_in,c_out,size", [
        (9, 16, 8, 32),    # DCSNet on signs: the second upsampled conv
        (30, 8, 1, 28),    # DCSNet on digits: the output conv
    ], ids=["16to8-32x32-batch9", "8to1-28x28-batch30"])
    def test_conv2d_forward_backward(self, benchmark, batch, c_in, c_out,
                                     size):
        """One float32 3x3 conv (padding 1), forward and every gradient."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((batch, c_in, size, size), dtype=np.float32),
                   requires_grad=True)
        w = Tensor((rng.standard_normal((c_out, c_in, 3, 3)) * 0.1)
                   .astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(c_out, np.float32), requires_grad=True)

        def step():
            out = F.conv2d(x, w, b, padding=1)
            out.sum().backward()
            grads = (x.grad, w.grad, b.grad)
            for tensor in (x, w, b):
                tensor.zero_grad()
            return out.dtype, grads

        dtype, grads = benchmark(step)
        assert dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads)

    def test_adam_step_large(self, benchmark):
        """One Adam step over DCSNet's float32 parameters on the signs
        task (3x32x32 input, fixed 1024-d latent): ~5.3M elements, the
        optimiser load behind the paper's baseline figures."""
        rng = np.random.default_rng(0)
        params = (
            build_dcsnet_encoder(3 * 32 * 32, rng).astype(np.float32)
            .parameters()
            + build_dcsnet_decoder((3, 32, 32), rng).astype(np.float32)
            .parameters())
        for param in params:
            param.grad = rng.standard_normal(param.shape, np.float32)
        optimizer = nn.Adam(params, lr=1e-3)
        benchmark(optimizer.step)
        assert sum(p.data.size for p in params) > 5_000_000
        assert all(p.data.dtype == np.float32 for p in params)
        assert all(np.isfinite(p.data).all() for p in params)

    def test_maxpool_forward_backward(self, benchmark):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((32, 16, 28, 28)), requires_grad=True)

        def step():
            out = F.max_pool2d(x, 2)
            out.sum().backward()
            x.zero_grad()
            return out.shape

        assert benchmark(step) == (32, 16, 14, 14)


class TestSchedulingSubstrate:
    ROUNDS = 64

    @classmethod
    def _drain(cls, size):
        """Serve ``size`` round-robin clusters ``ROUNDS`` rounds each
        through one pick queue; returns the number of picks."""
        clusters = [SimpleNamespace(rounds_completed=0) for _ in range(size)]
        budget = [cls.ROUNDS] * size
        queue = PickQueue("round_robin", clusters)
        picks = 0
        while True:
            index = queue.pick(lambda k: budget[k] > 0)
            if index is None:
                return picks
            budget[index] -= 1
            clusters[index].rounds_completed += 1
            picks += 1

    def test_pick_queue_scaling(self, benchmark):
        """Per-pick cost at 256 clusters stays within 3x of 16 clusters
        (a scan over the pending clusters costs ~16x)."""

        def per_pick_s(size):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                picks = self._drain(size)
                best = min(best, (time.perf_counter() - start) / picks)
            return best

        ratio = per_pick_s(256) / per_pick_s(16)
        benchmark.extra_info["per_pick_ratio_256_vs_16"] = ratio
        assert benchmark(self._drain, 256) == 256 * self.ROUNDS
        assert ratio < 3.0, f"per-pick cost grew {ratio:.2f}x from 16 to 256"

    def test_partial_fleet_wave(self, benchmark):
        """One partial wave as a fused lossy run trains it: 28 of 32
        stacked clusters (40 devices, latent 6, batch 8) through
        ``FleetTrainer.step(active=...)``."""
        fleet = FleetTrainer([
            OrcoDCSFramework(OrcoDCSConfig(input_dim=40, latent_dim=6,
                                           seed=k, noise_sigma=0.05,
                                           batch_size=8))
            for k in range(32)])
        active = [k for k in range(32) if k not in (3, 11, 17, 30)]
        batches = np.random.default_rng(0).random((len(active), 8, 40))
        records = benchmark(lambda: fleet.step(batches, active=active))
        assert len(records) == 28
        assert all(np.isfinite(r.train_loss) for r in records)


class TestWSNSubstrate:
    def test_tree_build_and_raw_round(self, benchmark):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 150, (256, 2))

        def simulate():
            network = WSNetwork(positions, comm_range_m=30.0,
                                battery_capacity_j=1e6)
            network.set_aggregator(select_aggregator(positions))
            tree = build_aggregation_tree(network)
            return simulate_raw_aggregation(network, tree)

        report = benchmark(simulate)
        assert report.values_transmitted >= 255

    def test_collection_round(self, benchmark):
        """One deployed data-collection round (Sec. III-C): 128 devices on
        a jittered 16 x 8 grid, two of them dead, erasure-coded lossy
        sensor hops, an ARQ uplink and the edge decode."""
        rng = np.random.default_rng(0)
        positions = place_grid(128, (160.0, 80.0), jitter=2.0, rng=rng)
        network = WSNetwork(positions, comm_range_m=15.0,
                            battery_capacity_j=1e9)
        network.set_aggregator(select_aggregator(positions))
        network.attach_unreliable(
            sensor=ChannelSpec.preset("802154_indoor",
                                      arq=ARQConfig(max_retries=1),
                                      coding=CodingSpec(parity_frames=1)),
            up=ChannelSpec.preset("802154_indoor", arq=ARQConfig(max_retries=3)),
            rng=np.random.default_rng(1))
        model = AsymmetricAutoencoder(OrcoDCSConfig(input_dim=128,
                                                    latent_dim=16, seed=0))
        deployment = EncoderDeployment(model, network,
                                       build_aggregation_tree(network))
        deployment.distribute()
        victims = (5, 77)
        assert network.aggregator_id not in victims
        for device in victims:
            network.kill_node(device)
        readings = dict(zip(network.device_ids, rng.random(128).tolist()))

        latent, reconstruction = benchmark(deployment.end_to_end_round,
                                           readings)
        assert latent.shape == (16,) and reconstruction.shape == (128,)
        assert np.isfinite(reconstruction).all()
        assert len(network.alive_device_ids) == 126


class TestDatasetSubstrate:
    def test_digit_generation(self, benchmark):
        def generate():
            images, labels = generate_digits(64, np.random.default_rng(0))
            return images.shape

        assert benchmark(generate) == (64, 28, 28)

    def test_sensor_field_rounds(self, benchmark):
        """One cluster's sensor dataset as the resilience experiment
        builds it (32 devices, 128 rounds)."""
        positions = np.random.default_rng(0).uniform(0.0, 80.0, (32, 2))

        def generate():
            field = SensorField(regime=FieldRegime(mean=18.0, amplitude=2.0,
                                                   correlation_length=6.0),
                                rng=np.random.default_rng(0))
            data, _, _ = normalized_rounds(field.generate_rounds(positions,
                                                                 128))
            return data.shape

        assert benchmark(generate) == (128, 32)

    def test_sign_rendering(self, benchmark):
        rng = np.random.default_rng(0)
        shape = benchmark(lambda: render_sign(7, rng).shape)
        assert shape == (32, 32, 3)
