"""Unit tests for aggregation trees and the three aggregation modes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (ARQConfig, ChannelSpec, CodingSpec, GilbertElliottLoss,
                       UnreliableChannel)
from repro.wsn import (
    AggregationReport,
    AggregationTree,
    Battery,
    BatteryDepletedError,
    DeadNodeError,
    WSNetwork,
    build_aggregation_tree,
    hybrid_encode,
    hybrid_encode_partial,
    reachable_nodes,
    simulate_encoder_distribution,
    simulate_hybrid_aggregation,
    simulate_masked_hybrid_aggregation,
    simulate_raw_aggregation,
)
from repro.wsn.aggregation import _simulate_upward
from repro.wsn.network import VALUE_BYTES


def line_network(n=7, spacing=10.0, range_m=15.0):
    positions = np.array([[i * spacing, 0.0] for i in range(n)])
    net = WSNetwork(positions, comm_range_m=range_m)
    net.set_aggregator(0)
    return net


def grid_network(n=25, range_m=30.0):
    side = int(np.sqrt(n))
    positions = np.array([[i * 10.0, j * 10.0]
                          for i in range(side) for j in range(side)])
    net = WSNetwork(positions, comm_range_m=range_m)
    net.set_aggregator(0)
    return net


class TestAggregationTree:
    def test_structure_accessors(self):
        tree = AggregationTree({0: None, 1: 0, 2: 0, 3: 1})
        assert tree.root == 0
        assert sorted(tree.children[0]) == [1, 2]
        assert tree.depth(3) == 2
        assert tree.max_depth() == 2
        assert tree.subtree_size(0) == 4
        assert tree.subtree_size(1) == 2

    def test_post_order_children_first(self):
        tree = AggregationTree({0: None, 1: 0, 2: 1, 3: 1})
        order = tree.post_order()
        assert order.index(2) < order.index(1) < order.index(0)
        assert order.index(3) < order.index(1)
        assert order[-1] == 0

    def test_rejects_multiple_roots(self):
        with pytest.raises(ValueError):
            AggregationTree({0: None, 1: None})

    def test_rejects_unknown_parent(self):
        with pytest.raises(ValueError):
            AggregationTree({0: None, 1: 9})

    def test_rejects_cycle(self):
        # One parent per node: a cycle is never reached from the root.
        for parent in ({0: None, 1: 2, 2: 1},
                       {0: None, 1: 0, 2: 3, 3: 4, 4: 2}):
            with pytest.raises(ValueError, match="tree is not connected"):
                AggregationTree(parent)


class TestBuildTree:
    def test_line_topology_chains(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        assert tree.root == 0
        for node in range(1, 7):
            assert tree.parent[node] == node - 1

    def test_spans_every_node(self):
        net = grid_network()
        tree = build_aggregation_tree(net)
        assert sorted(tree.nodes) == net.device_ids

    def test_bridges_disconnected_components(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [500.0, 0.0]])
        net = WSNetwork(positions, comm_range_m=10.0)
        net.set_aggregator(0)
        tree = build_aggregation_tree(net)
        assert sorted(tree.nodes) == [0, 1, 2]
        assert len(tree.extended_edges) == 1

    def test_paths_minimise_total_metres(self):
        # Bellman-Ford over the in-range pairs: the least metres from
        # every node to the root, which each tree path must match.
        net = grid_network(range_m=25.0)
        dist = np.linalg.norm(net.positions()[:, None]
                              - net.positions()[None], axis=-1)
        hop = np.where(dist <= net.comm_range_m, dist, np.inf)
        best = np.full(len(dist), np.inf)
        best[net.aggregator_id] = 0.0
        for _ in range(len(dist)):
            best = np.minimum(best, (hop + best[None]).min(axis=1))
        tree = build_aggregation_tree(net)
        assert not tree.extended_edges
        for node in net.device_ids:
            path = _path_to_root(tree, node)
            metres = sum(dist[a, b] for a, b in zip(path, path[1:]))
            assert metres == pytest.approx(best[node], abs=1e-9)

    def test_roots_at_the_network_aggregator(self):
        net = grid_network()
        for aggregator in (12, 7):
            net.set_aggregator(aggregator)
            tree = build_aggregation_tree(net)
            assert tree.root == aggregator and tree.parent[aggregator] is None
            assert sorted(tree.nodes) == net.device_ids

    def test_requires_root(self):
        net = WSNetwork(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            build_aggregation_tree(net)


class TestTDMA:
    def test_every_non_root_transmits_once(self):
        net = grid_network()
        tree = build_aggregation_tree(net)
        transmitted = [n for slot in tree.tdma_slots() for n in slot]
        assert sorted(transmitted) == sorted(n for n in tree.nodes
                                             if n != tree.root)

    def test_no_shared_receiver_within_slot(self):
        net = grid_network()
        tree = build_aggregation_tree(net)
        for slot in tree.tdma_slots():
            parents = [tree.parent[n] for n in slot]
            assert len(parents) == len(set(parents))

    def test_children_transmit_before_parents(self):
        net = grid_network()
        tree = build_aggregation_tree(net)
        slot_of = {}
        for index, slot in enumerate(tree.tdma_slots()):
            for node in slot:
                slot_of[node] = index
        for node in tree.nodes:
            parent = tree.parent[node]
            if parent is not None and parent != tree.root:
                assert slot_of[node] < slot_of[parent]


class TestRawAggregation:
    def test_line_counts_are_subtree_sizes(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        report = simulate_raw_aggregation(net, tree)
        # Line of 7 rooted at 0: node i forwards 7-i values.
        assert report.values_transmitted == sum(7 - i for i in range(1, 7))
        assert report.per_node_values[6] == 1
        assert report.per_node_values[1] == 6

    def test_payload_bytes_match_counts(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        report = simulate_raw_aggregation(net, tree)
        assert report.payload_bytes == report.values_transmitted * VALUE_BYTES

    def test_vector_payloads_scale(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        single = simulate_raw_aggregation(net, tree, values_per_node=1)
        net2 = line_network()
        double = simulate_raw_aggregation(net2, build_aggregation_tree(net2),
                                          values_per_node=2)
        assert double.values_transmitted == 2 * single.values_transmitted


class TestHybridAggregation:
    def test_counts_capped_at_latent_dim(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        report = simulate_hybrid_aggregation(net, tree, latent_dim=3)
        assert report.values_transmitted == sum(min(7 - i, 3)
                                                for i in range(1, 7))
        assert max(report.per_node_values.values()) == 3

    def test_cheaper_than_raw_when_m_small(self):
        net_a, net_b = grid_network(), grid_network()
        tree_a = build_aggregation_tree(net_a)
        tree_b = build_aggregation_tree(net_b)
        raw = simulate_raw_aggregation(net_a, tree_a)
        hybrid = simulate_hybrid_aggregation(net_b, tree_b, latent_dim=2)
        assert hybrid.values_transmitted < raw.values_transmitted

    def test_equals_raw_when_m_huge(self):
        net_a, net_b = line_network(), line_network()
        raw = simulate_raw_aggregation(net_a, build_aggregation_tree(net_a))
        hybrid = simulate_hybrid_aggregation(
            net_b, build_aggregation_tree(net_b), latent_dim=100)
        assert hybrid.values_transmitted == raw.values_transmitted

    def test_latent_dim_validation(self):
        net = line_network()
        with pytest.raises(ValueError):
            simulate_hybrid_aggregation(net, build_aggregation_tree(net), 0)


class TestHybridEncode:
    def _check_equivalence(self, net, latent_dim, seed=0):
        tree = build_aggregation_tree(net)
        rng = np.random.default_rng(seed)
        ids = net.device_ids
        readings = {nid: float(rng.standard_normal()) for nid in ids}
        index = {nid: i for i, nid in enumerate(ids)}
        weight = rng.standard_normal((latent_dim, len(ids)))
        latent, sent = hybrid_encode(tree, readings, weight, index)
        stacked = np.array([readings[nid] for nid in ids])
        assert np.allclose(latent, weight @ stacked, atol=1e-10)
        return sent

    def test_distributed_equals_centralized_line(self):
        self._check_equivalence(line_network(), latent_dim=3)

    def test_distributed_equals_centralized_grid(self):
        self._check_equivalence(grid_network(), latent_dim=5)

    def test_distributed_equals_centralized_m_exceeds_n(self):
        self._check_equivalence(line_network(4, range_m=35.0), latent_dim=9)

    def test_coded_nodes_send_m_values(self):
        net = line_network()
        sent = self._check_equivalence(net, latent_dim=3)
        # Deep-in-tree nodes (large subtree) must be in coded mode.
        assert sent[1] == 3
        # The farthest leaf forwards raw: one scalar.
        assert sent[6] == 1


class TestEncoderDistribution:
    def test_values_counted_per_subtree(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        report = simulate_encoder_distribution(net, tree, latent_dim=4)
        # Edge into node i carries subtree_size(i) columns of (M+1) scalars.
        expected = sum((7 - i) * 5 for i in range(1, 7))
        assert report.values_transmitted == expected

    def test_network_is_charged(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        simulate_encoder_distribution(net, tree, latent_dim=4)
        assert net.ledger.total_wire_bytes("encoder_distribution") > 0


class TestMaskedHybridEncode:
    def _setup(self, net, latent_dim, seed=0):
        tree = build_aggregation_tree(net)
        rng = np.random.default_rng(seed)
        ids = net.device_ids
        readings = {nid: float(rng.standard_normal()) for nid in ids}
        index = {nid: i for i, nid in enumerate(ids)}
        weight = rng.standard_normal((latent_dim, len(ids)))
        return tree, readings, index, weight

    def test_no_failures_matches_full_encode(self):
        net = line_network()
        tree, readings, index, weight = self._setup(net, latent_dim=3)
        full, _ = hybrid_encode(tree, readings, weight, index)
        partial, sent, contributors = hybrid_encode_partial(
            tree, readings, weight, index)
        assert np.allclose(partial, full, atol=1e-12)
        assert contributors == frozenset(tree.nodes)

    def test_dead_leaf_masks_its_column(self):
        net = grid_network()
        tree, readings, index, weight = self._setup(net, latent_dim=5)
        leaves = [n for n in tree.nodes if not tree.children[n]]
        dead = leaves[0]
        partial, _, contributors = hybrid_encode_partial(
            tree, readings, weight, index, failed={dead})
        assert dead not in contributors
        stacked = np.array([readings[n] if n in contributors else 0.0
                            for n in net.device_ids])
        assert np.allclose(partial, weight @ stacked, atol=1e-10)

    def test_dead_relay_drops_its_subtree(self):
        net = line_network()   # chain 0-1-2-...-6, root 0
        tree, readings, index, weight = self._setup(net, latent_dim=3)
        partial, sent, contributors = hybrid_encode_partial(
            tree, readings, weight, index, failed={3})
        # Nodes 3..6 are all severed: 3 is dead, 4-6 route through it.
        assert contributors == frozenset({0, 1, 2})
        stacked = np.array([readings[n] if n <= 2 else 0.0
                            for n in net.device_ids])
        assert np.allclose(partial, weight @ stacked, atol=1e-10)
        assert all(n not in sent for n in (3, 4, 5, 6))

    def test_masked_equals_centralized_masked_product(self):
        net = grid_network()
        tree, readings, index, weight = self._setup(net, latent_dim=4, seed=3)
        failed = {7, 12}
        partial, _, contributors = hybrid_encode_partial(
            tree, readings, weight, index, failed=failed)
        alive_cols = sorted(index[n] for n in contributors)
        stacked = np.array([readings[n] for n in sorted(contributors)])
        reference = weight[:, alive_cols] @ stacked
        assert np.allclose(partial, reference, atol=1e-10)

    def test_failed_root_requires_failover(self):
        net = line_network()
        tree, readings, index, weight = self._setup(net, latent_dim=3)
        with pytest.raises(ValueError):
            hybrid_encode_partial(tree, readings, weight, index, failed={0})

    def test_reachable_nodes_helper(self):
        tree = AggregationTree({0: None, 1: 0, 2: 1, 3: 1, 4: 0})
        assert reachable_nodes(tree, set()) == frozenset({0, 1, 2, 3, 4})
        assert reachable_nodes(tree, {1}) == frozenset({0, 4})


class TestMaskedHybridAggregationCost:
    def test_masked_cost_cheaper_than_full(self):
        full_net = line_network()
        full_tree = build_aggregation_tree(full_net)
        full = simulate_hybrid_aggregation(full_net, full_tree, latent_dim=3)

        masked_net = line_network()
        masked_tree = build_aggregation_tree(masked_net)
        masked = simulate_masked_hybrid_aggregation(
            masked_net, masked_tree, latent_dim=3, failed={4})
        assert masked.values_transmitted < full.values_transmitted
        assert masked.wire_bytes < full.wire_bytes

    def test_masked_with_no_failures_matches_full(self):
        net_a, net_b = line_network(), line_network()
        tree_a = build_aggregation_tree(net_a)
        tree_b = build_aggregation_tree(net_b)
        full = simulate_hybrid_aggregation(net_a, tree_a, latent_dim=3)
        masked = simulate_masked_hybrid_aggregation(net_b, tree_b,
                                                    latent_dim=3)
        assert masked.values_transmitted == full.values_transmitted
        assert masked.wire_bytes == full.wire_bytes

    def test_latent_dim_validated(self):
        net = line_network()
        with pytest.raises(ValueError, match="latent_dim"):
            simulate_masked_hybrid_aggregation(
                net, build_aggregation_tree(net), latent_dim=0)

    def test_report_sizes_in_kilobytes(self):
        net = line_network()
        report = simulate_masked_hybrid_aggregation(
            net, build_aggregation_tree(net), latent_dim=3, failed={4})
        assert report.wire_bytes > 0
        assert report.total_kb == report.wire_bytes / 1024.0

    def test_surviving_counts_shrink_with_dead_descendants(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        report = simulate_masked_hybrid_aggregation(net, tree, latent_dim=5,
                                                    failed={5})
        # Node 4's surviving subtree is itself only (5 and 6 are gone).
        assert report.per_node_values[4] == 1
        assert 5 not in report.per_node_values
        assert 6 not in report.per_node_values


class _FirstFrameLoss:
    """Loss model that kills exactly the first frame it ever sees —
    with a zero-retry ARQ budget the first message fails, the rest
    sail through (deterministic, ignores the RNG)."""

    def __init__(self):
        self.armed = True

    def frame_lost(self, rng):
        verdict = self.armed
        self.armed = False
        return verdict

    def reset(self):
        pass

    @property
    def mean_loss_rate(self):
        return 0.0


def _lossy_line_network():
    """Line network whose deepest hop (node 6 -> 5) deterministically
    exhausts its zero-retry budget; every later hop is clean."""
    net = line_network()
    channel = UnreliableChannel(net.sensor_link, loss=0.0,
                                arq=ARQConfig(max_retries=0),
                                rng=np.random.default_rng(0))
    channel.loss = _FirstFrameLoss()
    net.sensor_channel = channel
    return net


class TestLossAdaptiveCounts:
    """A severed subtree shrinks the payloads its ancestors forward —
    the TDMA cost model no longer assumes full participation."""

    def test_raw_ancestors_forward_only_delivered_values(self):
        net = _lossy_line_network()
        tree = build_aggregation_tree(net)
        report = simulate_raw_aggregation(net, tree)
        assert report.failed_hops == {6}
        # Deepest-first TDMA: 6 fails, so 5..1 forward one value less.
        assert report.per_node_values == {6: 1, 5: 1, 4: 2, 3: 3,
                                          2: 4, 1: 5}
        assert report.values_transmitted == 16   # 21 under full delivery
        assert report.payload_bytes == 16 * 4

    def test_hybrid_switchover_tracks_surviving_pool(self):
        net = _lossy_line_network()
        tree = build_aggregation_tree(net)
        report = simulate_hybrid_aggregation(net, tree, latent_dim=3)
        assert report.failed_hops == {6}
        # Node 3's surviving pool is exactly 3 -> it codes; with full
        # delivery it would have coded at node 4 already.
        assert report.per_node_values == {6: 1, 5: 1, 4: 2, 3: 3,
                                          2: 3, 1: 3}
        assert report.values_transmitted == 13   # 15 under full delivery

    def test_ideal_links_reproduce_static_subtree_counts(self):
        net = line_network()
        tree = build_aggregation_tree(net)
        report = simulate_raw_aggregation(net, tree)
        assert report.failed_hops == set()
        assert report.per_node_values == {
            node: tree.subtree_size(node) for node in tree.nodes
            if node != tree.root}


# ----------------------------------------------------------------------
# Reference implementations the cached and vectorized paths must match
# ----------------------------------------------------------------------
def _path_to_root(tree, node):
    """Nodes on the way from ``node`` (inclusive) to the root (inclusive)."""
    path = [node]
    while tree.parent[path[-1]] is not None:
        path.append(tree.parent[path[-1]])
    return path


def _reference_reachable(tree, failed):
    """A node is reachable iff its whole path to the root avoids failures."""
    return frozenset(node for node in tree.nodes
                     if all(hop not in failed
                            for hop in _path_to_root(tree, node)))


def _reference_encode_partial(tree, readings, weight, device_index,
                              failed=frozenset()):
    """Masked eq. (6) with one vector add per raw reading, in post-order."""
    alive = _reference_reachable(tree, failed)
    latent_dim = weight.shape[0]
    raw_carry, coded_carry, sent = {}, {}, {}
    for node in tree.post_order():
        if node not in alive:
            continue
        raw = [(node, readings[node])]
        coded = None
        for child in tree.children[node]:
            raw.extend(raw_carry.pop(child, []))
            child_coded = coded_carry.pop(child, None)
            if child_coded is not None:
                coded = child_coded if coded is None else coded + child_coded
        if coded is not None or len(raw) >= latent_dim or node == tree.root:
            acc = coded if coded is not None else np.zeros(latent_dim)
            for dev, value in raw:
                acc = acc + weight[:, device_index[dev]] * value
            if node == tree.root:
                return acc, sent, alive
            coded_carry[node] = acc
            sent[node] = latent_dim
        else:
            raw_carry[node] = raw
            sent[node] = len(raw)
    raise AssertionError("post_order did not end at the root")


def _reference_slots(tree):
    """Per-level TDMA slots, deepest level first, one child per parent."""
    by_level = {}
    for node in tree.nodes:
        if node != tree.root:
            by_level.setdefault(tree.depth(node), []).append(node)
    slots = []
    for level in sorted(by_level, reverse=True):
        pending = {}
        for node in by_level[level]:
            pending.setdefault(tree.parent[node], []).append(node)
        for turn in range(max(len(v) for v in pending.values())):
            slots.append([children[turn] for children in pending.values()
                          if turn < len(children)])
    return slots


def _random_tree(rng, count):
    """Random recursive tree with shuffled labels, so ids and depths are
    unrelated."""
    labels = rng.permutation(count)
    parent = {int(labels[0]): None}
    for position in range(1, count):
        parent[int(labels[position])] = int(labels[rng.integers(position)])
    return AggregationTree(parent)


def _generated_trees():
    rng = np.random.default_rng(7)
    trees = [_random_tree(rng, count) for count in (1, 2, 9, 40, 130)]
    trees.append(AggregationTree({i: (i - 1 if i else None)
                                  for i in range(12)}))          # chain
    trees.append(AggregationTree({i: (0 if i else None)
                                  for i in range(12)}))          # star
    trees.append(build_aggregation_tree(grid_network(49, range_m=15.0)))
    return trees


def _failed_sets(tree, rng):
    """No failures, an id outside the tree, one dead leaf, one dead
    relay, and a random mix."""
    others = [n for n in tree.nodes if n != tree.root]
    leaves = [n for n in others if not tree.children[n]]
    relays = [n for n in others if tree.children[n]]
    sets = [frozenset(), frozenset({max(tree.nodes) + 1})]
    if leaves:
        sets.append(frozenset({leaves[0]}))
    if relays:
        sets.append(frozenset({relays[len(relays) // 2]}))
    if len(others) > 3:
        sets.append(frozenset(int(n) for n in rng.choice(
            others, size=len(others) // 4, replace=False)))
    return sets


def _signed_readings(tree, rng):
    """Readings including exact zeros of both signs and negatives."""
    nodes = sorted(tree.nodes)
    values = rng.standard_normal(len(nodes)).tolist()
    for position, special in zip(range(0, len(nodes), 3),
                                 (0.0, -0.0, -1.5, 0.0, -0.0)):
        values[position] = special
    return dict(zip(nodes, values))


def _assert_bits_equal(actual, expected):
    assert np.array_equal(actual, expected)
    # array_equal treats -0.0 and 0.0 as equal; the bits must match too.
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestPartialSumOracle:
    """The vectorized partial sums equal the per-reading loop bit for bit."""

    @pytest.mark.parametrize("tree_index", range(8))
    def test_matches_per_reading_loop(self, tree_index):
        tree = _generated_trees()[tree_index]
        rng = np.random.default_rng(tree_index)
        count = len(tree.nodes)
        index = {nid: i for i, nid in enumerate(sorted(tree.nodes))}
        readings = _signed_readings(tree, rng)
        for latent_dim in sorted({1, max(1, count // 3), count, count + 5}):
            weight = rng.standard_normal((latent_dim, count))
            for failed in _failed_sets(tree, rng):
                latent, sent, contributors = hybrid_encode_partial(
                    tree, readings, weight, index, failed=failed)
                ref, ref_sent, ref_alive = _reference_encode_partial(
                    tree, readings, weight, index, failed)
                _assert_bits_equal(latent, ref)
                assert sent == ref_sent
                assert contributors == ref_alive
            full, full_sent = hybrid_encode(tree, readings, weight, index)
            ref, ref_sent, _ = _reference_encode_partial(
                tree, readings, weight, index)
            _assert_bits_equal(full, ref)
            assert full_sent == ref_sent

    def test_negative_zero_lone_root_reading(self):
        # The loop starts from +0.0, so a lone -0.0 product becomes +0.0.
        tree = AggregationTree({0: None, 1: 0})
        weight = np.array([[1.0, 2.0], [-3.0, 4.0]])
        latent, _, _ = hybrid_encode_partial(tree, {0: -0.0, 1: 5.0}, weight,
                                             {0: 0, 1: 1}, failed={1})
        _assert_bits_equal(latent, np.zeros(2))

    def test_float32_weights_keep_the_loops_product_dtype(self):
        tree = _generated_trees()[3]
        rng = np.random.default_rng(11)
        index = {nid: i for i, nid in enumerate(sorted(tree.nodes))}
        readings = _signed_readings(tree, rng)
        weight = rng.standard_normal((6, len(tree.nodes))).astype(np.float32)
        latent, _, _ = hybrid_encode_partial(tree, readings, weight, index)
        ref, _, _ = _reference_encode_partial(tree, readings, weight, index)
        _assert_bits_equal(latent, ref)


class TestReachability:
    def test_equals_path_to_root_definition(self):
        rng = np.random.default_rng(3)
        for tree in _generated_trees():
            for failed in _failed_sets(tree, rng):
                assert (reachable_nodes(tree, failed)
                        == _reference_reachable(tree, failed))


class TestTraversalCache:
    def test_post_order_is_built_once_and_immutable(self):
        tree = _generated_trees()[3]
        order = tree.post_order()
        assert tree.post_order() is order
        assert isinstance(order, tuple)
        with pytest.raises(TypeError):
            order[0] = -1

    def test_slots_are_built_once_and_immutable(self):
        tree = _generated_trees()[4]
        slots = tree.tdma_slots()
        assert tree.tdma_slots() is slots
        assert isinstance(slots, tuple)
        assert all(isinstance(slot, tuple) for slot in slots)
        with pytest.raises(TypeError):
            slots[0][0] = -1

    def test_slots_match_per_level_build(self):
        for tree in _generated_trees():
            assert [list(slot) for slot in tree.tdma_slots()] \
                == _reference_slots(tree)


def _lossy_grid_network(seed):
    """Coded lossy hops, lossy enough that both rounds sever subtrees."""
    net = grid_network(49, range_m=15.0)
    net.attach_unreliable(
        sensor=ChannelSpec(loss=0.2, arq=ARQConfig(max_retries=1),
                           coding=CodingSpec(parity_frames=1)),
        rng=np.random.default_rng(seed))
    return net


class TestReusedTreeRounds:
    """Caches on a reused tree and network leave every round unchanged."""

    FAILED = ({12, 30}, {5})

    def test_reused_tree_equals_fresh_trees(self):
        reused_net, fresh_net = _lossy_grid_network(1), _lossy_grid_network(1)
        reused_tree = build_aggregation_tree(reused_net)
        for failed in self.FAILED:
            reused = simulate_masked_hybrid_aggregation(
                reused_net, reused_tree, latent_dim=6, failed=failed)
            fresh = simulate_masked_hybrid_aggregation(
                fresh_net, build_aggregation_tree(fresh_net), latent_dim=6,
                failed=failed)
            assert reused.failed_hops
            assert reused == fresh
            assert (reused_net.reset_ledger().records
                    == fresh_net.reset_ledger().records)

    def test_reused_network_equals_fresh_networks(self):
        reused_net = grid_network(49, range_m=15.0)
        reused_tree = build_aggregation_tree(reused_net)
        for failed in self.FAILED:
            reused = simulate_masked_hybrid_aggregation(
                reused_net, reused_tree, latent_dim=6, failed=failed)
            fresh_net = grid_network(49, range_m=15.0)
            fresh = simulate_masked_hybrid_aggregation(
                fresh_net, build_aggregation_tree(fresh_net), latent_dim=6,
                failed=failed)
            assert reused == fresh
            assert reused_net.reset_ledger().records == fresh_net.ledger.records


# ----------------------------------------------------------------------
# The level walk against the per-hop loop it replaced
# ----------------------------------------------------------------------
def _oracle_hop(network, src, dst, payload, kind):
    """One forced sensor hop, checked and charged by hand from public
    pieces: both ends alive, then one live transmit (or the ideal
    link's framing), the sender's TX energy, the receiver's RX energy
    and one ledger record, in that order."""
    for node in (src, dst):
        if not network.is_alive(node):
            raise DeadNodeError(f"node {node} is dead")
    hop = network.link_distance(src, dst)
    channel, link = network.sensor_channel, network.sensor_link
    if channel is None:
        wire = received = link.wire_bytes(payload)
        elapsed, delivered = link.transfer_time(payload), True
        attempts = max(1, link.frames_for(payload))
    else:
        result = channel.transmit(payload)
        wire, received = result.wire_bytes, result.received_wire_bytes
        elapsed, delivered = result.elapsed_s, result.delivered
        attempts = max(1, result.attempts)
    sender, receiver = network.nodes[src], network.nodes[dst]
    sender.battery.drain(sender.radio.tx_energy(wire * 8, hop))
    receiver.battery.drain(receiver.radio.rx_energy(received * 8))
    network.ledger.record(src, dst, payload, wire, kind, elapsed, attempts,
                          delivered)
    return elapsed, delivered


def _per_hop_upward(network, tree, own_values, kind,
                    transmitters=None, latent_cap=None):
    """The upward pass as one hand-charged live transmit per hop, slot
    by slot (:func:`_oracle_hop`): the oracle the level walk must
    reproduce exactly."""
    report = AggregationReport()
    slots = tree.tdma_slots()
    report.slots = len(slots)
    delivered_pool = {}
    for slot in slots:
        slot_time = 0.0
        for node in slot:
            if transmitters is not None and node not in transmitters:
                continue
            pool = own_values.get(node, 0) + sum(
                delivered_pool.get(child, 0)
                for child in tree.children[node])
            count = pool if latent_cap is None else min(pool, latent_cap)
            payload = count * VALUE_BYTES
            elapsed, delivered = _oracle_hop(network, node, tree.parent[node],
                                             payload, kind)
            if payload > 0 and not delivered:
                report.failed_hops.add(node)
            else:
                delivered_pool[node] = pool
            report.values_transmitted += count
            report.payload_bytes += payload
            report.wire_bytes += network.sensor_link.wire_bytes(payload)
            report.airtime_s += elapsed
            report.per_node_values[node] = count
            slot_time = max(slot_time, elapsed)
        report.makespan_s += slot_time
    return report


#: Sensor channels the walk is checked on: None keeps the links ideal.
_CHANNELS = {
    "ideal": None,
    "lossless": lambda recovery: ChannelSpec(loss=0.0, **recovery),
    "bernoulli": lambda recovery: ChannelSpec(loss=0.25, **recovery),
    "indoor": lambda recovery: ChannelSpec.preset("802154_indoor", **recovery),
    "noisy": lambda recovery: ChannelSpec.preset("noisy_office", **recovery),
    # loss_good == 0: no block sampler, every verdict drawn live.
    "ge_default": lambda recovery: ChannelSpec(loss=GilbertElliottLoss,
                                               **recovery),
}

_RECOVERY = {
    "none": dict(arq=ARQConfig(max_retries=0)),
    "arq": dict(arq=ARQConfig(max_retries=2)),
    "fec": dict(arq=ARQConfig(max_retries=1),
                coding=CodingSpec(parity_frames=1)),
    "hybrid": dict(arq=ARQConfig(max_retries=1),
                   coding=CodingSpec(parity_frames=1, arq_fallback=True)),
}

_WALK_TREE = build_aggregation_tree(grid_network(36, range_m=15.0))


def _twin_network(channel, recovery, vectorize, seed):
    """A grid network under ``_WALK_TREE`` whose sensor channel is the
    named one; equal arguments give twins with equal loss streams."""
    net = grid_network(36, range_m=15.0)
    if channel == "first_frame":
        net.sensor_channel = UnreliableChannel(
            net.sensor_link, loss=0.0, rng=np.random.default_rng(seed),
            **_RECOVERY[recovery])
        net.sensor_channel.loss = _FirstFrameLoss()
    elif _CHANNELS[channel] is not None:
        spec = _CHANNELS[channel](_RECOVERY[recovery])
        net.attach_unreliable(sensor=replace(spec, vectorize=vectorize),
                              rng=np.random.default_rng(seed))
    return net


def _channel_state(net):
    """Everything of the sensor channel a later transmit depends on."""
    channel = net.sensor_channel
    if channel is None:
        return None
    sampler = channel._sampler
    return (sampler.position if sampler is not None else None,
            getattr(channel.loss, "bad", None),
            channel.rng.bit_generator.state if sampler is None else None)


def _network_state(net):
    return (net.ledger.records,
            {nid: node.battery.remaining_j for nid, node in net.nodes.items()},
            _channel_state(net))


def _pass_args(tree, failed, values_per_node, latent_cap):
    """Arguments of one upward pass; with ``failed`` devices only the
    reachable ones transmit, as in masked aggregation."""
    alive = reachable_nodes(tree, failed) if failed else None
    own = {node: values_per_node for node in (alive or tree.nodes)
           if node != tree.root}
    return (own, "walk"), dict(transmitters=alive, latent_cap=latent_cap)


class TestLevelWalkOracle:
    """The level walk leaves every report, ledger record, battery and
    loss-stream position exactly where one live transmit per hop does."""

    @given(channel=st.sampled_from([*_CHANNELS, "first_frame"]),
           recovery=st.sampled_from(sorted(_RECOVERY)),
           vectorize=st.booleans(),
           masked=st.booleans(),
           latent_cap=st.sampled_from([None, 16]),
           values_per_node=st.sampled_from([1, 3]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_hop_loop(self, channel, recovery, vectorize, masked,
                                  latent_cap, values_per_node, seed):
        tree = _WALK_TREE
        walk = _twin_network(channel, recovery, vectorize, seed)
        oracle = _twin_network(channel, recovery, vectorize, seed)
        failed = set()
        if masked:
            relays = sorted(n for n in tree.nodes
                            if n != tree.root and tree.children[n])
            failed = {relays[seed % len(relays)], max(tree.nodes)}
            for net in (walk, oracle):
                for node in failed:
                    net.kill_node(node)
        args, kwargs = _pass_args(tree, failed, values_per_node, latent_cap)
        for _ in range(2):   # the second pass starts from carried state
            report = _simulate_upward(walk, tree, *args, **kwargs)
            expected = _per_hop_upward(oracle, tree, *args, **kwargs)
            assert report == expected
            assert _network_state(walk) == _network_state(oracle)

    def test_fec_hops_transmit_nothing_live(self):
        # collect's sensor channel: pure FEC, one data and one parity
        # frame per hop; the walk transmits nothing live.
        net = _twin_network("indoor", "fec", True, 3)
        calls = []
        transmit = net.sensor_channel.transmit
        net.sensor_channel.transmit = lambda n: calls.append(n) or transmit(n)
        report = simulate_hybrid_aggregation(net, _WALK_TREE, latent_dim=16)
        assert calls == []
        hops = len(report.per_node_values)
        assert net.sensor_channel._sampler.position == 2 * hops

    @staticmethod
    def _mid_level_hop(tree, pick):
        """``(hops before it, node)`` of the first hop past its level's
        first whose ``pick(node, earlier_nodes_of_the_level)`` holds."""
        before = 0
        for level in tree.tdma_levels():
            order = [node for slot in level for node in slot]
            for position, node in enumerate(order):
                if position and pick(node, order[:position]):
                    return before + position, node
            before += len(order)
        raise AssertionError("no hop qualifies")

    def _first_child_hop(self, tree):
        """A hop that is its parent's first receipt, past its level's
        first hop."""
        return self._mid_level_hop(
            tree, lambda node, earlier: tree.parent[node] not in
            {tree.parent[e] for e in earlier})

    def _assert_same_stop(self, nets, error, hops_before):
        args, kwargs = _pass_args(_WALK_TREE, set(), 1, 16)
        with pytest.raises(error):
            _simulate_upward(nets[0], _WALK_TREE, *args, **kwargs)
        with pytest.raises(error):
            _per_hop_upward(nets[1], _WALK_TREE, *args, **kwargs)
        assert len(nets[0].ledger) == hops_before
        assert _network_state(nets[0]) == _network_state(nets[1])

    @pytest.mark.parametrize("channel,recovery", [("indoor", "fec"),
                                                  ("bernoulli", "arq"),
                                                  ("noisy", "hybrid"),
                                                  ("ideal", "none")])
    def test_dead_parent_mid_level(self, channel, recovery):
        hops_before, node = self._first_child_hop(_WALK_TREE)
        nets = [_twin_network(channel, recovery, True, 9) for _ in range(2)]
        for net in nets:
            net.kill_node(_WALK_TREE.parent[node])
        self._assert_same_stop(nets, DeadNodeError, hops_before)

    @pytest.mark.parametrize("channel,recovery", [("indoor", "fec"),
                                                  ("bernoulli", "arq"),
                                                  ("noisy", "hybrid"),
                                                  ("ideal", "none")])
    @pytest.mark.parametrize("side", ["sender", "receiver"])
    def test_battery_depletes_mid_level(self, channel, recovery, side):
        tree = _WALK_TREE
        if side == "sender":
            # A leaf receives nothing before its own hop.
            hops_before, drained = self._mid_level_hop(
                tree, lambda node, earlier: not tree.children[node])
        else:
            hops_before, node = self._first_child_hop(tree)
            drained = tree.parent[node]
        nets = [_twin_network(channel, recovery, True, 4) for _ in range(2)]
        for net in nets:
            net.nodes[drained].battery.remaining_j = 1e-9
        self._assert_same_stop(nets, BatteryDepletedError, hops_before)

    @given(channel=st.sampled_from(["ideal", "lossless"]),
           recovery=st.sampled_from(sorted(_RECOVERY)),
           masked=st.booleans(),
           latent_cap=st.sampled_from([None, 16]),
           passes=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_batteries_equal_replayed_ledger(self, channel, recovery, masked,
                                             latent_cap, passes, seed):
        # Battery drained == radio energy: where every radiated byte is
        # received, replaying the ledger on fresh batteries (sender TX,
        # then receiver RX, from each record's wire bytes and hop
        # distance) reproduces every battery bit for bit.
        tree = _WALK_TREE
        net = _twin_network(channel, recovery, True, seed)
        failed = set()
        if masked:
            others = sorted(n for n in tree.nodes if n != tree.root)
            victim = others[seed % len(others)]
            failed = {victim}
            net.kill_node(victim)
        else:
            simulate_encoder_distribution(net, tree, latent_dim=4)
        args, kwargs = _pass_args(tree, failed, 1, latent_cap)
        for _ in range(passes):
            _simulate_upward(net, tree, *args, **kwargs)
        replayed = {nid: Battery(node.battery.capacity_j)
                    for nid, node in net.nodes.items()}
        for record in net.ledger.records:
            hop = net.link_distance(record.src, record.dst)
            bits = record.wire_bytes * 8
            replayed[record.src].drain(
                net.nodes[record.src].radio.tx_energy(bits, hop))
            replayed[record.dst].drain(
                net.nodes[record.dst].radio.rx_energy(bits))
        assert {nid: battery.remaining_j
                for nid, battery in replayed.items()} \
            == {nid: node.battery.remaining_j
                for nid, node in net.nodes.items()}

    def test_levels_flatten_to_slots(self):
        for tree in _generated_trees():
            assert tuple(slot for level in tree.tdma_levels()
                         for slot in level) == tree.tdma_slots()
            for level in tree.tdma_levels():
                depths = {tree.depth(node) for slot in level for node in slot}
                assert len(depths) == 1
