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
        record = net.ledger.records[-1]
        assert (record.kind, record.payload_bytes) == ("test", 100)
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

    def test_uplink_requires_aggregator(self):
        net = WSNetwork(np.zeros((2, 2)) + [[0, 0], [1, 1]])
        with pytest.raises(RuntimeError):
            net.uplink_to_edge(10)

    def test_edge_server_never_drains(self):
        net = small_network()
        net.uplink_to_edge(10_000)
        assert net.edge.battery.consumed_j == 0


class TestLedger:
    def test_totals_by_kind(self):
        ledger = TransmissionLedger()
        ledger.record(0, 1, 100, 120, "a", 0.1)
        ledger.record(1, 2, 50, 60, "b", 0.2)
        assert ledger.total_wire_bytes("a") == 120
        assert abs(ledger.total_kb() - 180 / 1024) < 1e-12
        assert ledger.by_kind() == {"a": 120, "b": 60}
        assert len(ledger) == 2

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

    def test_dead_aggregator_blocks_backhaul(self):
        net = small_network()
        net.kill_node(net.aggregator_id)
        with pytest.raises(DeadNodeError):
            net.uplink_to_edge(100)


class TestUnreliableTransmit:
    def _lossy_network(self, loss=0.4, seed=0, **spec_kwargs):
        from repro.sim import ChannelSpec
        net = small_network()
        net.attach_unreliable(sensor=ChannelSpec(loss=loss, **spec_kwargs),
                              up=ChannelSpec(loss=loss, **spec_kwargs),
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
        assert sum(r.attempts for r in lossy.ledger.records) \
            > sum(r.attempts for r in ideal.ledger.records)
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
        assert all(isinstance(r.delivered, bool) for r in lossy.ledger.records)

    def test_delivery_failure_recorded_not_raised(self):
        from repro.sim import ARQConfig, ChannelSpec
        net = small_network()
        net.attach_unreliable(
            sensor=ChannelSpec(loss=0.9, arq=ARQConfig(max_retries=0)),
            rng=np.random.default_rng(0))
        for _ in range(20):
            net.unicast(1, 2, 2000)
        assert not all(r.delivered for r in net.ledger.records)

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
