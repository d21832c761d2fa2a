"""Unit tests for the WSN simulator."""

import numpy as np
import pytest

from repro.wsn import (
    EDGE_SERVER_ID,
    DeadNodeError,
    NodeRole,
    TransmissionLedger,
    WSNetwork,
    distance,
    place_grid,
    place_uniform,
)


def small_network(n=6, range_m=200.0):
    positions = np.array([[i * 10.0, 0.0] for i in range(n)])
    net = WSNetwork(positions, comm_range_m=range_m)
    net.set_aggregator(0)
    return net


class TestTopology:
    def test_roles_after_set_aggregator(self):
        net = small_network()
        assert net.nodes[0].role is NodeRole.AGGREGATOR
        assert net.nodes[1].role is NodeRole.DEVICE
        net.set_aggregator(2)
        assert net.nodes[0].role is NodeRole.DEVICE
        assert net.aggregator_id == 2

    def test_set_aggregator_unknown_node(self):
        with pytest.raises(KeyError):
            small_network().set_aggregator(99)

    def test_connectivity_matrix(self):
        net = small_network(range_m=15.0)
        adjacency = net.connectivity()
        assert adjacency[0, 1] and not adjacency[0, 2]
        assert not adjacency.diagonal().any()

    def test_neighbors(self):
        net = small_network(range_m=15.0)
        assert net.neighbors(2) == [1, 3]

    def test_positions_shape(self):
        assert small_network(5).positions().shape == (5, 2)

    def test_invalid_positions(self):
        with pytest.raises(ValueError):
            WSNetwork(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            WSNetwork(np.zeros((3, 2)), comm_range_m=0)

    def test_nan_battery_and_range_rejected(self):
        """NaN passed both ``<= 0`` checks: a NaN battery built a
        network with no device alive, and a NaN range bridged every
        tree edge as an ``extended_edges`` hop."""
        positions = place_grid(16, (60.0, 60.0))
        with pytest.raises(ValueError, match="capacity"):
            WSNetwork(positions, battery_capacity_j=float("nan"))
        with pytest.raises(ValueError, match="comm_range_m"):
            WSNetwork(positions, comm_range_m=float("nan"))

    def test_node_positions_are_read_only_copies(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        net = WSNetwork(positions)
        positions[1] = [99.0, 99.0]
        assert net.nodes[1].position.tolist() == [10.0, 0.0]
        with pytest.raises(ValueError):
            net.nodes[1].position[0] = 5.0
        with pytest.raises(ValueError):
            net.edge.position[0] = 5.0

    @pytest.mark.parametrize("layout", ["jittered_grid", "uniform"])
    def test_link_distance_equals_distance_bitwise(self, layout):
        rng = np.random.default_rng(4)
        positions = (place_grid(36, (60.0, 60.0), jitter=2.0, rng=rng)
                     if layout == "jittered_grid"
                     else place_uniform(36, (60.0, 60.0), rng))
        net = WSNetwork(positions)
        net.set_aggregator(0)
        ids = net.device_ids + [EDGE_SERVER_ID]
        position = {nid: net.nodes[nid].position for nid in net.device_ids}
        position[EDGE_SERVER_ID] = net.edge.position
        for _ in range(2):   # first call computes, second reads the memo
            for src in ids:
                for dst in ids:
                    expected = distance(position[src], position[dst])
                    assert (np.float64(net.link_distance(src, dst)).tobytes()
                            == np.float64(expected).tobytes())

    def test_backhaul_distance_follows_the_aggregator(self):
        moved, direct = small_network(), small_network()
        moved.uplink_to_edge(100)
        moved.set_aggregator(5)
        moved.uplink_to_edge(100)
        direct.set_aggregator(5)
        direct.uplink_to_edge(100)
        assert moved.nodes[5].battery.consumed_j \
            == direct.nodes[5].battery.consumed_j > 0


class TestTransmissions:
    def test_unicast_records_and_charges(self):
        net = small_network()
        elapsed = net.unicast(1, 2, 100, kind="test")
        assert elapsed > 0
        assert net.ledger.total_payload_bytes("test") == 100
        assert net.nodes[1].battery.consumed_j > 0
        assert net.nodes[2].battery.consumed_j > 0
        # TX costs more than RX (amplifier energy).
        assert net.nodes[1].battery.consumed_j > net.nodes[2].battery.consumed_j

    def test_unicast_out_of_range(self):
        net = small_network(range_m=5.0)
        with pytest.raises(ValueError):
            net.unicast(0, 5, 10)

    def test_unicast_force_overrides_range(self):
        net = small_network(range_m=5.0)
        assert net.unicast(0, 5, 10, force=True) > 0

    def test_unicast_to_self(self):
        with pytest.raises(ValueError):
            small_network().unicast(1, 1, 10)

    def test_broadcast_charges_neighbors(self):
        net = small_network(range_m=15.0)
        net.broadcast(2, 50)
        assert net.nodes[1].battery.consumed_j > 0
        assert net.nodes[3].battery.consumed_j > 0
        assert net.nodes[5].battery.consumed_j == 0

    def test_uplink_downlink_roundtrip(self):
        net = small_network()
        up = net.uplink_to_edge(1000)
        down = net.downlink_from_edge(1000)
        assert down < up    # downlink is the cheap direction
        kinds = net.ledger.by_kind()
        assert "uplink" in kinds and "downlink" in kinds

    def test_uplink_requires_aggregator(self):
        net = WSNetwork(np.zeros((2, 2)) + [[0, 0], [1, 1]])
        with pytest.raises(RuntimeError):
            net.uplink_to_edge(10)

    def test_edge_server_never_drains(self):
        net = small_network()
        net.downlink_from_edge(10_000)
        assert net.edge.battery.consumed_j == 0


class TestLedger:
    def test_totals_by_kind(self):
        ledger = TransmissionLedger()
        ledger.record(0, 1, 100, 120, "a", 0.1)
        ledger.record(1, 2, 50, 60, "b", 0.2)
        assert ledger.total_payload_bytes() == 150
        assert ledger.total_wire_bytes("a") == 120
        assert abs(ledger.total_kb() - 180 / 1024) < 1e-12
        assert abs(ledger.total_time_s("b") - 0.2) < 1e-12
        assert len(ledger) == 2

    def test_per_node_tx(self):
        ledger = TransmissionLedger()
        ledger.record(0, 1, 10, 12, "a", 0.0)
        ledger.record(0, 2, 10, 12, "a", 0.0)
        ledger.record(1, 2, 10, 12, "a", 0.0)
        per_node = ledger.per_node_tx_bytes()
        assert per_node[0] == 24 and per_node[1] == 12

    def test_merge(self):
        a, b = TransmissionLedger(), TransmissionLedger()
        a.record(0, 1, 1, 1, "x", 0)
        b.record(1, 2, 2, 2, "y", 0)
        a.merge(b)
        assert len(a) == 2

    def test_reset_ledger_swaps(self):
        net = small_network()
        net.unicast(0, 1, 10)
        old = net.reset_ledger()
        assert len(old) == 1
        assert len(net.ledger) == 0


class TestReports:
    def test_energy_report_keys(self):
        net = small_network(4)
        net.unicast(0, 1, 10)
        report = net.energy_report()
        assert set(report) == {0, 1, 2, 3}
        assert report[0] > 0

    def test_alive_fraction(self):
        net = small_network(4)
        assert net.alive_fraction() == 1.0

    def test_delivered_fraction_counts_messages_of_a_kind(self):
        ledger = TransmissionLedger()
        # Nothing sent yet: no message was lost.
        assert ledger.delivered_fraction() == 1.0
        ledger.record(1, 0, 10, 16, "raw", 0.01, 1, True)
        ledger.record(2, 0, 10, 48, "raw", 0.03, 3, False)
        assert ledger.delivered_fraction() == 0.5
        assert ledger.delivered_fraction("raw") == 0.5
        assert ledger.delivered_fraction("latent") == 1.0

    def test_downlink_needs_an_aggregator(self):
        net = WSNetwork(np.array([[0.0, 0.0], [10.0, 0.0]]),
                        comm_range_m=50.0)
        with pytest.raises(RuntimeError, match="no aggregator"):
            net.downlink_from_edge(64)
        net.set_aggregator(1)
        assert net.downlink_from_edge(64) > 0.0
        assert net.ledger.records[-1].dst == 1


class TestLiveness:
    def test_kill_and_revive(self):
        net = small_network()
        net.kill_node(2)
        assert not net.is_alive(2)
        assert 2 not in net.alive_device_ids
        assert net.alive_fraction() == pytest.approx(5 / 6)
        net.revive_node(2)
        assert net.is_alive(2)

    def test_dead_device_ids_complement_alive(self):
        net = small_network()
        net.kill_node(2)
        net.nodes[4].battery.remaining_j = 0.0
        net.nodes[5].battery.remaining_j = float("nan")
        assert net.dead_device_ids() == {2, 4, 5}
        assert net.alive_device_ids == [0, 1, 3]

    def test_device_ids_is_a_fresh_sorted_list(self):
        net = WSNetwork(np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]]))
        ids = net.device_ids
        ids.reverse()
        ids.append(7)
        assert net.device_ids == [0, 1, 2]
        assert net.device_ids is not net.device_ids

    def test_kill_unknown_node(self):
        with pytest.raises(KeyError):
            small_network().kill_node(99)
        with pytest.raises(KeyError):
            small_network().revive_node(99)

    def test_dead_node_cannot_transmit_or_receive(self):
        net = small_network()
        net.kill_node(1)
        with pytest.raises(DeadNodeError):
            net.unicast(1, 2, 10)
        with pytest.raises(DeadNodeError):
            net.unicast(2, 1, 10)
        with pytest.raises(DeadNodeError):
            net.broadcast(1, 10)

    def test_dead_aggregator_blocks_backhaul(self):
        net = small_network()
        net.kill_node(net.aggregator_id)
        with pytest.raises(DeadNodeError):
            net.uplink_to_edge(100)
        with pytest.raises(DeadNodeError):
            net.downlink_from_edge(100)

    def test_broadcast_skips_dead_neighbors(self):
        net = small_network(range_m=15.0)
        net.kill_node(3)
        consumed_before = net.nodes[3].battery.consumed_j
        net.broadcast(2, 10)
        assert net.nodes[3].battery.consumed_j == consumed_before


class TestUnreliableTransmit:
    def _lossy_network(self, loss=0.4, seed=0, **spec_kwargs):
        from repro.sim import ChannelSpec
        net = small_network()
        net.attach_unreliable(sensor=ChannelSpec(loss=loss, **spec_kwargs),
                              up=ChannelSpec(loss=loss, **spec_kwargs),
                              down=ChannelSpec(loss=loss, **spec_kwargs),
                              rng=np.random.default_rng(seed))
        return net

    def test_retransmissions_charged_to_ledger_and_battery(self):
        from repro.sim import ARQConfig
        ideal = small_network()
        # Deep retry budget: every message is eventually delivered, so
        # loss shows up purely as extra radiated bytes.
        lossy = self._lossy_network(arq=ARQConfig(max_retries=25))
        payload = 5000
        for _ in range(10):
            ideal.unicast(1, 2, payload)
            lossy.unicast(1, 2, payload)
        assert lossy.ledger.total_wire_bytes() > ideal.ledger.total_wire_bytes()
        assert lossy.ledger.total_attempts() > ideal.ledger.total_attempts()
        assert lossy.nodes[1].battery.consumed_j \
            > ideal.nodes[1].battery.consumed_j

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_refused_hop_consumes_no_loss_verdicts(self, vectorize):
        """A hop refused for a dead end or for range leaves the sensor
        channel untouched: the next hop sees what it would have seen."""
        refused = self._lossy_network(seed=5, vectorize=vectorize)
        clean = self._lossy_network(seed=5, vectorize=vectorize)
        refused.comm_range_m = clean.comm_range_m = 25.0
        refused.kill_node(4)
        with pytest.raises(DeadNodeError):
            refused.unicast(1, 4, 40)
        with pytest.raises(DeadNodeError):
            refused.unicast(4, 1, 40)
        with pytest.raises(ValueError, match="out of radio range"):
            refused.unicast(0, 5, 40)
        assert not refused.ledger.records
        for _ in range(5):
            assert refused.unicast(1, 2, 40) == clean.unicast(1, 2, 40)
        assert refused.ledger.records == clean.ledger.records

    def test_records_carry_attempts_and_delivery(self):
        lossy = self._lossy_network(loss=0.6, seed=2)
        for _ in range(20):
            lossy.unicast(1, 2, 2000)
        attempts = [r.attempts for r in lossy.ledger.records]
        assert max(attempts) > min(attempts)
        fraction = lossy.ledger.delivered_fraction()
        assert 0.0 <= fraction <= 1.0

    def test_delivery_failure_recorded_not_raised(self):
        from repro.sim import ARQConfig, ChannelSpec
        net = small_network()
        net.attach_unreliable(
            sensor=ChannelSpec(loss=0.9, arq=ARQConfig(max_retries=0)),
            rng=np.random.default_rng(0))
        for _ in range(20):
            net.unicast(1, 2, 2000)
        assert net.ledger.delivered_fraction() < 1.0

    def test_unattached_links_stay_ideal(self):
        from repro.sim import ChannelSpec
        net = small_network()
        net.attach_unreliable(up=ChannelSpec(loss=0.5),
                              rng=np.random.default_rng(0))
        elapsed = net.unicast(1, 2, 1000)
        assert elapsed == net.sensor_link.transfer_time(1000)
        record = net.ledger.records[-1]
        assert record.delivered and record.wire_bytes == \
            net.sensor_link.wire_bytes(1000)

    def test_lossless_channel_matches_ideal_accounting(self):
        from repro.sim import ChannelSpec
        ideal = small_network()
        clean = small_network()
        clean.attach_unreliable(sensor=ChannelSpec(loss=0.0),
                                rng=np.random.default_rng(0))
        t_ideal = ideal.unicast(1, 2, 3000)
        t_clean = clean.unicast(1, 2, 3000)
        assert t_ideal == t_clean
        assert ideal.ledger.total_wire_bytes() == clean.ledger.total_wire_bytes()
        assert ideal.nodes[1].battery.consumed_j \
            == clean.nodes[1].battery.consumed_j
