"""Unit tests for trained-encoder deployment (Sec. III-C)."""

import numpy as np
import pytest

from repro.core import (
    AsymmetricAutoencoder,
    EncoderDeployment,
    OrcoDCSConfig,
)
from repro.wsn import WSNetwork, build_aggregation_tree, select_aggregator


def deployed_cluster(n=16, latent=4, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 60, (n, 2))
    network = WSNetwork(positions, comm_range_m=25.0, battery_capacity_j=100.0)
    network.set_aggregator(select_aggregator(positions))
    tree = build_aggregation_tree(network)
    config = OrcoDCSConfig(input_dim=n, latent_dim=latent, seed=seed,
                           dtype=dtype)
    model = AsymmetricAutoencoder(config)
    return EncoderDeployment(model, network, tree), network, tree, model


def readings_for(network, seed=1):
    rng = np.random.default_rng(seed)
    return {nid: float(rng.random()) for nid in network.device_ids}


class TestSetup:
    def test_device_count_must_match(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 50, (10, 2))
        network = WSNetwork(positions, comm_range_m=30.0)
        network.set_aggregator(0)
        tree = build_aggregation_tree(network)
        model = AsymmetricAutoencoder(OrcoDCSConfig(input_dim=12, latent_dim=3))
        with pytest.raises(ValueError):
            EncoderDeployment(model, network, tree)

    def test_requires_distribution_before_rounds(self):
        deployment, network, _, _ = deployed_cluster()
        with pytest.raises(RuntimeError):
            deployment.compressed_round(readings_for(network))

    def test_distribute_charges_network(self):
        deployment, network, _, _ = deployed_cluster()
        report = deployment.distribute()
        assert report.wire_bytes > 0
        assert network.ledger.total_wire_bytes("encoder_distribution") > 0
        assert deployment.distributed


class TestEquivalence:
    def test_distributed_encoding_matches_centralized(self):
        deployment, network, _, model = deployed_cluster()
        deployment.distribute()
        readings = readings_for(network)
        collected = deployment.compressed_round(readings)
        centralized = deployment.centralized_latent(readings)
        assert np.allclose(collected.latent, centralized, atol=1e-10)

    def test_matches_model_encode(self):
        deployment, network, _, model = deployed_cluster()
        deployment.distribute()
        readings = readings_for(network)
        collected = deployment.compressed_round(readings)
        stacked = np.array([readings[nid] for nid in network.device_ids])
        from repro.nn.tensor import Tensor
        expected = model.encoder(Tensor(stacked[None, :])).data[0]
        assert np.allclose(collected.latent, expected, atol=1e-10)

    def test_float32_model_keeps_eq1_exact(self):
        """A float32 model is deployed as float64 columns (its weights,
        exactly), so partial sums still reproduce eq. (1) to 1e-9 — on a
        healthy round and on one with a dead device."""
        deployment, network, _, model = deployed_cluster(n=40, latent=6,
                                                         dtype=np.float32)
        assert model.encoder[0].weight.dtype == np.float32
        assert deployment.weight_e.dtype == np.float64
        np.testing.assert_array_equal(deployment.weight_e,
                                      model.encoder_weights()[0])
        deployment.distribute()
        readings = readings_for(network)
        healthy = deployment.compressed_round(readings)
        assert len(healthy.contributors) == network.num_devices
        np.testing.assert_allclose(
            healthy.latent, deployment.centralized_latent(readings),
            rtol=0, atol=1e-9)
        victim = next(nid for nid in network.device_ids
                      if nid != network.aggregator_id)
        network.kill_node(victim)
        masked = deployment.compressed_round(readings)
        kept = set(masked.contributors)
        assert victim not in kept
        expected = deployment.centralized_latent(
            {nid: value if nid in kept else 0.0
             for nid, value in readings.items()})
        np.testing.assert_allclose(masked.latent, expected, rtol=0, atol=1e-9)
        reconstruction = deployment.reconstruct_at_edge(masked.latent)
        assert reconstruction.dtype == np.float32
        assert reconstruction.shape == (40,)

class TestRounds:
    def test_missing_reading_rejected(self):
        deployment, network, _, _ = deployed_cluster()
        deployment.distribute()
        readings = readings_for(network)
        readings.pop(network.device_ids[0])
        with pytest.raises(ValueError):
            deployment.compressed_round(readings)

    def test_empty_battery_masks_like_a_fault(self):
        """A device whose battery ran dry drops out of the round exactly
        as a killed one does, and needs no reading."""
        rounds = []
        for drain in (True, False):
            deployment, network, tree, _ = deployed_cluster(seed=3)
            deployment.distribute()
            leaf = next(n for n in tree.nodes
                        if not tree.children[n] and n != tree.root)
            if drain:
                network.nodes[leaf].battery.remaining_j = 0.0
            else:
                network.kill_node(leaf)
            readings = readings_for(network)
            readings.pop(leaf)
            assert network.dead_device_ids() == {leaf}
            rounds.append(deployment.compressed_round(readings))
        drained, killed = rounds
        assert leaf not in drained.contributors
        assert drained.contributors == killed.contributors
        np.testing.assert_array_equal(drained.latent, killed.latent)

    def test_charged_round_bills_network(self):
        deployment, network, _, _ = deployed_cluster()
        deployment.distribute()
        before = network.ledger.total_wire_bytes()
        deployment.compressed_round(readings_for(network))
        billed = network.ledger.total_wire_bytes("compressed_round")
        assert billed > 0
        assert network.ledger.total_wire_bytes() > before

    def test_uplink_latent_charges_backhaul(self):
        deployment, network, _, _ = deployed_cluster()
        deployment.distribute()
        collected = deployment.compressed_round(readings_for(network))
        elapsed = deployment.uplink_latent(collected.latent)
        assert elapsed > 0
        assert network.ledger.total_wire_bytes("latent_uplink") > 0

    def test_end_to_end_round(self):
        deployment, network, _, _ = deployed_cluster()
        deployment.distribute()
        latent, reconstruction = deployment.end_to_end_round(
            readings_for(network))
        assert latent.shape == (4,)
        assert reconstruction.shape == (16,)
        assert reconstruction.min() >= 0 and reconstruction.max() <= 1

    def test_cheaper_than_raw_plus_full_uplink(self):
        # Per-round cost of compressed collection must undercut shipping
        # the raw vector when M << N.
        deployment, network, tree, _ = deployed_cluster(n=40, latent=3)
        deployment.distribute()
        network.reset_ledger()
        deployment.compressed_round(readings_for(network))
        compressed = network.ledger.total_wire_bytes()
        network.reset_ledger()
        from repro.wsn import simulate_raw_aggregation
        simulate_raw_aggregation(network, tree)
        raw = network.ledger.total_wire_bytes()
        assert compressed < raw


class TestUnreliableSensorHops:
    """Intra-cluster loss on sensor hops: severed subtrees vs coding."""

    def _deployed_lossy(self, loss, coding=None, retries=0, seed=0):
        from repro.sim import ARQConfig, ChannelSpec
        deployment, network, tree, model = deployed_cluster(seed=seed)
        network.attach_unreliable(
            sensor=ChannelSpec(loss=loss, arq=ARQConfig(max_retries=retries),
                               coding=coding),
            rng=np.random.default_rng(42))
        deployment.distribute()
        return deployment, network, tree

    def test_failed_hops_sever_contributions(self):
        deployment, network, _ = self._deployed_lossy(loss=0.4)
        readings = readings_for(network)
        collected = deployment.compressed_round(readings)
        assert collected.report.failed_hops
        assert len(collected.contributors) < network.num_devices
        # The latent equals the centralized masked product over the
        # contributors that actually reached the aggregator.
        stacked = np.array([readings[nid] if nid in collected.contributors
                            else 0.0 for nid in network.device_ids])
        expected = 1.0 / (1.0 + np.exp(
            -(deployment.weight_e @ stacked + deployment.bias_e)))
        np.testing.assert_array_equal(collected.latent, expected)

    def test_delivered_rounds_unchanged_by_channel(self):
        deployment, network, _ = self._deployed_lossy(loss=0.0)
        readings = readings_for(network)
        collected = deployment.compressed_round(readings)
        assert not collected.report.failed_hops
        np.testing.assert_allclose(
            collected.latent, deployment.centralized_latent(readings),
            rtol=1e-12, atol=0)

    def test_coded_hops_restore_contributors_at_parity_cost(self):
        from repro.sim import CodingSpec
        readings = None
        plain_contrib = coded_contrib = None
        plain, plain_net, _ = self._deployed_lossy(loss=0.35)
        readings = readings_for(plain_net)
        plain_round = plain.compressed_round(readings)
        plain_contrib = len(plain_round.contributors)
        coded, coded_net, _ = self._deployed_lossy(
            loss=0.35, coding=CodingSpec(parity_frames=4))
        coded_round = coded.compressed_round(readings)
        coded_contrib = len(coded_round.contributors)
        assert coded_contrib > plain_contrib
        # Parity frames radiate extra bytes on every hop.
        assert coded_net.ledger.total_wire_bytes("compressed_round") \
            > plain_net.ledger.total_wire_bytes("compressed_round")

    def test_partial_sum_rides_coded_scalars_exactly(self):
        """Coded partial sums through hybrid_encode_partial: the M-vector
        a relay forwards survives any k erasures of its M+k coded
        scalars, bit for bit."""
        from repro.wsn.aggregation import hybrid_encode_partial
        from test_sim_coding import decode_floats, encode_floats

        deployment, network, tree = self._deployed_lossy(loss=0.0)
        readings = readings_for(network)
        partial, _, _ = hybrid_encode_partial(
            tree, readings, deployment.weight_e, deployment.device_index)
        coded = encode_floats(partial, 3)
        assert coded.size == partial.size + 3
        # Drop any 3 coded scalars; the aggregator still decodes the
        # exact partial sum.
        survivors = [6, 1, 5, 2][:partial.size]
        decoded = decode_floats(survivors, coded[survivors], partial.size)
        assert np.array_equal(decoded.view(np.uint64),
                              partial.view(np.uint64))
