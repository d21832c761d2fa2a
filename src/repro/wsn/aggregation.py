"""Data-aggregation trees and the three aggregation modes of the paper.

* **Raw aggregation** (Sec. III-A): every node forwards its own and all
  descendants' raw values to its parent, up to the aggregator.  Used once
  before training so the aggregator holds the cluster's raw data.
* **Hybrid compressed-sensing aggregation** (Luo et al. [1], used in
  Sec. III-A/III-C): a node whose subtree carries fewer than ``M`` values
  forwards them raw; once a subtree reaches ``M`` values it switches to
  coded mode and every node transmits exactly ``M`` combined values.
  With the *learned* encoder weight matrix in place of a random one this
  is the paper's eq. (6) data aggregation.
* **Encoder distribution** (Sec. III-C): after training, column ``i`` of
  ``We`` travels from the aggregator down the tree to device ``i``.

A tree's TDMA slots (:meth:`AggregationTree.tdma_slots`) serialise
transmissions toward a common receiver while letting disjoint receivers
work in parallel — the collision mitigation the paper attributes to tree
aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from .geometry import pairwise_distances
from .network import VALUE_BYTES, WSNetwork


class AggregationTree:
    """A rooted spanning tree over a cluster's devices.

    A tree is fixed once built: depths, subtree sizes, the post-order and
    the TDMA slots are computed on first use and cached, and the
    traversals come back as tuples so no caller can corrupt the cache.

    Parameters
    ----------
    parent:
        Mapping ``child -> parent``; the root maps to ``None``.
    """

    def __init__(self, parent: Dict[int, Optional[int]]):
        roots = [n for n, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, got {roots}")
        self.root = roots[0]
        self.parent = dict(parent)
        self.children: Dict[int, List[int]] = {n: [] for n in parent}
        for child, par in parent.items():
            if par is not None:
                if par not in self.children:
                    raise ValueError(f"parent {par} of {child} is not a tree node")
                self.children[par].append(child)
        self._depths: Optional[Dict[int, int]] = None
        self._subtree: Optional[Dict[int, int]] = None
        self._post_order: Optional[Tuple[int, ...]] = None
        self._levels: Optional[Tuple[Tuple[Tuple[int, ...], ...], ...]] = None
        self._slots: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._validate_connected()

    def _validate_connected(self) -> None:
        """Every node must reach the root.  Each node has one parent, so
        a walk down from the root meets no node twice; a cycle shows up
        as nodes the walk never meets."""
        seen_total = 0
        frontier = [self.root]
        while frontier:
            node = frontier.pop()
            seen_total += 1
            frontier.extend(self.children[node])
        if seen_total != len(self.parent):
            raise ValueError("tree is not connected")

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[int]:
        return list(self.parent)

    def depth(self, node: int) -> int:
        """Hops from ``node`` up to the root."""
        if self._depths is None:
            self._depths = {}
            stack = [(self.root, 0)]
            while stack:
                current, d = stack.pop()
                self._depths[current] = d
                stack.extend((c, d + 1) for c in self.children[current])
        return self._depths[node]

    def max_depth(self) -> int:
        return max(self.depth(n) for n in self.nodes)

    def subtree_size(self, node: int) -> int:
        """Number of nodes in the subtree rooted at ``node`` (inclusive)."""
        if self._subtree is None:
            self._subtree = {}
            for current in self.post_order():
                self._subtree[current] = 1 + sum(self._subtree[c]
                                                 for c in self.children[current])
        return self._subtree[node]

    def post_order(self) -> Tuple[int, ...]:
        """Children-before-parent traversal (the aggregation order)."""
        if self._post_order is None:
            order: List[int] = []
            stack: List[Tuple[int, bool]] = [(self.root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    order.append(node)
                else:
                    stack.append((node, True))
                    stack.extend((c, False) for c in self.children[node])
            self._post_order = tuple(order)
        return self._post_order

    def tdma_levels(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """The upward TDMA slots grouped by tree level, deepest level
        first: a level's slots are consecutive in :meth:`tdma_slots`,
        and every payload sent in a level depends only on deeper ones."""
        if self._levels is None:
            by_level: Dict[int, List[int]] = {}
            for node in self.parent:
                if node != self.root:
                    by_level.setdefault(self.depth(node), []).append(node)
            levels: List[Tuple[Tuple[int, ...], ...]] = []
            for level in sorted(by_level, reverse=True):
                pending: Dict[int, List[int]] = {}
                for node in by_level[level]:
                    pending.setdefault(self.parent[node], []).append(node)
                levels.append(tuple(
                    tuple(children[turn] for children in pending.values()
                          if turn < len(children))
                    for turn in range(max(len(v) for v in pending.values()))))
            self._levels = tuple(levels)
        return self._levels

    def tdma_slots(self) -> Tuple[Tuple[int, ...], ...]:
        """Upward TDMA slots: transmissions to a common parent serialise,
        transmissions to distinct parents at one level share a slot, and
        the deepest level goes first so parents hold complete subtrees."""
        if self._slots is None:
            self._slots = tuple(slot for level in self.tdma_levels()
                                for slot in level)
        return self._slots


def build_aggregation_tree(network: WSNetwork) -> AggregationTree:
    """Build a shortest-path aggregation tree rooted at the aggregator.

    Edges exist between devices within radio range, and paths minimise
    total metres (energy-friendly).  If the range graph is disconnected,
    the nearest node pairs between components are bridged (and flagged
    on the tree as ``extended_edges``) so that a spanning tree always
    exists — mirroring real deployments that raise TX power for stranded
    nodes.
    """
    # Imported on use, so that importing the package does not load networkx.
    import networkx as nx

    root = network.aggregator_id
    if root is None:
        raise ValueError("network has no aggregator")

    ids = network.device_ids
    positions = network.positions()
    dist = pairwise_distances(positions)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    for i, a in enumerate(ids):
        for j in range(i + 1, len(ids)):
            if dist[i, j] <= network.comm_range_m:
                graph.add_edge(a, ids[j], distance=float(dist[i, j]))

    extended: List[Tuple[int, int]] = []
    while not nx.is_connected(graph):
        components = [list(c) for c in nx.connected_components(graph)]
        root_comp = next(c for c in components if root in c)
        best = None
        for comp in components:
            if comp is root_comp:
                continue
            for a in comp:
                for b in root_comp:
                    d = dist[ids.index(a), ids.index(b)]
                    if best is None or d < best[0]:
                        best = (d, a, b)
            break
        d, a, b = best
        graph.add_edge(a, b, distance=float(d))
        extended.append((a, b))

    _, paths = nx.single_source_dijkstra(graph, root, weight="distance")
    parent: Dict[int, Optional[int]] = {root: None}
    for node, path in paths.items():
        if node != root:
            parent[node] = path[-2]
    tree = AggregationTree(parent)
    tree.extended_edges = extended
    return tree


@dataclass
class AggregationReport:
    """Cost accounting for one aggregation round.

    ``failed_hops`` lists the nodes whose transmission toward their
    parent was never delivered (an unreliable sensor channel exhausted
    its recovery budget) — each severs its subtree's contribution from
    the round's partial sum, exactly like a dead relay.  Empty on ideal
    links and on coded/ARQ hops that recovered every loss.
    """

    values_transmitted: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    airtime_s: float = 0.0
    makespan_s: float = 0.0
    slots: int = 0
    per_node_values: Dict[int, int] = field(default_factory=dict)
    failed_hops: Set[int] = field(default_factory=set)

    @property
    def total_kb(self) -> float:
        return self.wire_bytes / 1024.0


def _simulate_upward(network: WSNetwork, tree: AggregationTree,
                     own_values: Dict[int, int], kind: str,
                     transmitters: Optional[AbstractSet[int]] = None,
                     latent_cap: Optional[int] = None
                     ) -> AggregationReport:
    """Charge the network for an upward pass; compute slot makespan.

    Node ``i`` contributes ``own_values[i]`` scalars of its own and
    forwards whatever its children actually **delivered**: TDMA slots
    run deepest level first, so by the time a node's slot arrives every
    child hop has already resolved.  A hop whose recovery budget (ARQ
    retries / erasure-code parity) is exhausted lands in
    ``report.failed_hops`` and contributes nothing upstream — ancestors
    of a severed subtree transmit correspondingly smaller raw payloads
    instead of padding the round with values they never received.  With
    ``latent_cap`` set, each node transmits at most that many scalars
    (the hybrid-CS switchover): the *uncapped* pool of contributing
    readings still propagates upward so the switchover point tracks
    surviving contributors, not the static tree shape.  On ideal links
    every hop delivers and the counts equal the classic subtree sizes.

    ``transmitters`` restricts the pass to a surviving subset (masked
    aggregation under faults); other nodes keep their TDMA slots but
    stay silent.

    The pass walks the tree level by level, deepest first
    (:meth:`AggregationTree.tdma_levels`).  A level's payloads depend
    only on deeper levels, so they are all computed first and priced
    together (:meth:`WSNetwork.sensor_outcomes`: from one block of the
    sampler of a lossless or pure-FEC sensor channel, live hop by hop
    on others); one :meth:`WSNetwork.send_hops` call then checks and
    charges the level's hops in slot order, each taking its outcome
    only after its liveness check.  Ledger, batteries and the channel's
    loss stream therefore evolve exactly as under one live transmit per
    hop, up to and including a dead node or an empty battery that stops
    the pass mid-level.
    """
    report = AggregationReport()
    report.slots = len(tree.tdma_slots())
    children, parent = tree.children, tree.parent
    per_node, failed_hops = report.per_node_values, report.failed_hops
    wire_of: Dict[int, int] = {}     # nominal wire bytes per payload size
    values = payload_bytes = wire_bytes = 0
    airtime = makespan = 0.0
    delivered_pool: Dict[int, int] = {}
    for level in tree.tdma_levels():
        sends: List[List[Tuple[int, int, int, int]]] = []
        hops: List[Tuple[int, int, int]] = []
        for slot in level:
            slot_sends = []
            for node in slot:
                if transmitters is not None and node not in transmitters:
                    continue
                pool = own_values.get(node, 0)
                for child in children[node]:
                    pool += delivered_pool.get(child, 0)
                count = pool if latent_cap is None else min(pool, latent_cap)
                payload = count * VALUE_BYTES
                slot_sends.append((node, pool, count, payload))
                hops.append((node, parent[node], payload))
            sends.append(slot_sends)
        # zip draws from slot_sends first, so it stops at a slot's end
        # without consuming the next slot's result.
        outcomes = network.sensor_outcomes([hop[2] for hop in hops])
        results = iter(network.send_hops(hops, outcomes, kind, force=True))
        for slot_sends in sends:
            slot_time = 0.0
            for (node, pool, count, payload), (elapsed, delivered) in zip(
                    slot_sends, results):
                if payload > 0 and not delivered:
                    failed_hops.add(node)
                else:
                    delivered_pool[node] = pool
                wire = wire_of.get(payload)
                if wire is None:
                    wire = wire_of[payload] = \
                        network.sensor_link.wire_bytes(payload)
                values += count
                payload_bytes += payload
                wire_bytes += wire
                airtime += elapsed
                per_node[node] = count
                if elapsed > slot_time:      # max(), without the call
                    slot_time = elapsed
            makespan += slot_time
    report.values_transmitted, report.payload_bytes = values, payload_bytes
    report.wire_bytes, report.airtime_s = wire_bytes, airtime
    report.makespan_s = makespan
    return report


def simulate_raw_aggregation(network: WSNetwork, tree: AggregationTree,
                             values_per_node: int = 1) -> AggregationReport:
    """Raw (uncompressed) tree aggregation: every node forwards its own
    plus all *delivered* descendants' values — ``subtree_size(i) *
    values_per_node`` scalars on ideal links, less whatever upstream
    hops failed to deliver on unreliable ones."""
    own = {node: values_per_node
           for node in tree.nodes if node != tree.root}
    return _simulate_upward(network, tree, own, "raw_aggregation")


def simulate_hybrid_aggregation(network: WSNetwork, tree: AggregationTree,
                                latent_dim: int, values_per_node: int = 1,
                                kind: str = "hybrid_aggregation"
                                ) -> AggregationReport:
    """Hybrid CS aggregation [1]: node ``i`` transmits
    ``min(delivered_pool(i), latent_dim)`` scalars, where the pool is
    ``subtree_size(i) * values_per_node`` on ideal links."""
    if latent_dim <= 0:
        raise ValueError("latent_dim must be positive")
    own = {node: values_per_node
           for node in tree.nodes if node != tree.root}
    return _simulate_upward(network, tree, own, kind, latent_cap=latent_dim)


def hybrid_encode(tree: AggregationTree, readings: Dict[int, float],
                  weight: np.ndarray, device_index: Dict[int, int]
                  ) -> Tuple[np.ndarray, Dict[int, int]]:
    """Numerically perform distributed encoding over the tree (eq. 6).

    Each device contributes its column product ``We[:, i] * x_i``.  Nodes
    whose subtree holds fewer than ``M`` readings forward raw
    ``(device, value)`` pairs; larger subtrees forward the ``M``-vector
    partial sum.  The returned vector equals the centralized product
    ``We @ x`` exactly (a unit test asserts this bit-for-bit ordering
    aside), plus the per-node count of scalars actually sent.

    Parameters
    ----------
    readings:
        ``node_id -> scalar`` sensor values.
    weight:
        Encoder matrix ``(M, N)``.
    device_index:
        ``node_id -> column index`` mapping.

    Returns
    -------
    (latent, sent_counts):
        ``latent`` is the ``M``-vector ``We @ x``; ``sent_counts`` maps
        each non-root node to the scalar count it transmitted.
    """
    latent, sent, _ = hybrid_encode_partial(tree, readings, weight,
                                            device_index)
    return latent, sent


def reachable_nodes(tree: AggregationTree,
                    failed: AbstractSet[int]) -> FrozenSet[int]:
    """Nodes whose entire path to the root avoids ``failed`` relays.

    A dead interior node severs its subtree: partial sums cannot be
    forwarded around it (single-parent tree routing), so every
    descendant is unreachable even if individually alive.  The root is
    excluded from ``failed`` handling here — a dead root needs
    aggregator failover first (see
    :func:`~repro.wsn.clustering.select_aggregator`).
    """
    if tree.root in failed:
        raise ValueError("root (aggregator) is failed; run failover before "
                         "aggregating")
    reachable = set()
    # Reversed post-order visits every parent before its children.
    for node in reversed(tree.post_order()):
        parent = tree.parent[node]
        if node not in failed and (parent is None or parent in reachable):
            reachable.add(node)
    return frozenset(reachable)


def hybrid_encode_partial(tree: AggregationTree, readings: Dict[int, float],
                          weight: np.ndarray, device_index: Dict[int, int],
                          failed: AbstractSet[int] = frozenset()
                          ) -> Tuple[np.ndarray, Dict[int, int], FrozenSet[int]]:
    """Masked eq. (6): distributed encoding with missing contributors.

    Devices in ``failed`` contribute nothing; a failed *relay* also
    drops its whole subtree (the partial sums have no route up).  The
    returned latent equals the centralized masked product
    ``We[:, alive] @ x[alive]`` over the contributing devices exactly.
    A coding node adds its raw readings' column products to its
    children's partial sums one reading after another, so the bits are
    those of a per-reading loop.

    Returns
    -------
    (latent, sent_counts, contributors):
        ``latent`` is the ``M``-vector partial sum; ``sent_counts`` maps
        each transmitting node to the scalar count it sent;
        ``contributors`` is the set of devices whose readings made it
        into the latent (the mask the edge needs for decoding QA).
    """
    alive = reachable_nodes(tree, failed)
    latent_dim = weight.shape[0]
    # The dtype ``weight[:, i] * x_i`` takes for a Python scalar reading.
    product_dtype = np.result_type(weight, 0.0)
    raw_carry: Dict[int, List[Tuple[int, float]]] = {}
    coded_carry: Dict[int, np.ndarray] = {}
    sent: Dict[int, int] = {}

    for node in tree.post_order():
        if node not in alive:
            continue
        raw: List[Tuple[int, float]] = [(node, readings[node])]
        coded: Optional[np.ndarray] = None
        for child in tree.children[node]:
            raw.extend(raw_carry.pop(child, []))
            child_coded = coded_carry.pop(child, None)
            if child_coded is not None:
                coded = child_coded if coded is None else coded + child_coded
        if coded is not None or len(raw) >= latent_dim or node == tree.root:
            start = coded if coded is not None else np.zeros(latent_dim)
            columns = [device_index[dev] for dev, _ in raw]
            values = np.array([value for _, value in raw], dtype=product_dtype)
            products = weight.T[columns] * values[:, None]
            # accumulate adds row after row by definition: the order of a
            # per-reading loop.  sum, reduce and @ leave the order to
            # NumPy or BLAS, which may add pairwise and change bits.
            acc = np.add.accumulate(np.vstack((start, products)))[-1]
            if node == tree.root:
                return acc, sent, alive
            coded_carry[node] = acc
            sent[node] = latent_dim
        else:
            raw_carry[node] = raw
            sent[node] = len(raw)
    raise AssertionError("post_order did not end at the root")


def simulate_masked_hybrid_aggregation(network: WSNetwork,
                                       tree: AggregationTree,
                                       latent_dim: int,
                                       failed: AbstractSet[int] = frozenset(),
                                       values_per_node: int = 1,
                                       kind: str = "hybrid_aggregation"
                                       ) -> AggregationReport:
    """Cost of one hybrid round when some devices are dead.

    Only reachable, live nodes transmit; a surviving node's scalar count
    is bounded by the *surviving* portion of its subtree (dead
    descendants stop contributing values).
    """
    if latent_dim <= 0:
        raise ValueError("latent_dim must be positive")
    alive = reachable_nodes(tree, failed)
    own = {node: values_per_node
           for node in alive if node != tree.root}
    return _simulate_upward(network, tree, own, kind,
                            transmitters=alive, latent_cap=latent_dim)


def simulate_encoder_distribution(network: WSNetwork, tree: AggregationTree,
                                  latent_dim: int) -> AggregationReport:
    """Distribute encoder columns from the aggregator down the tree.

    Each device needs its ``M``-float column (plus one bias element held
    at the aggregator).  On every tree edge ``parent -> child`` the
    columns destined for the child's entire subtree travel once, so the
    edge carries ``subtree_size(child) * (M + 1)`` scalars.
    """
    report = AggregationReport()
    for node in tree.nodes:
        if node == tree.root:
            continue
        count = tree.subtree_size(node) * (latent_dim + 1)
        payload = count * VALUE_BYTES
        elapsed = network.unicast(tree.parent[node], node, payload,
                                  kind="encoder_distribution", force=True)
        report.values_transmitted += count
        report.payload_bytes += payload
        report.wire_bytes += network.sensor_link.wire_bytes(payload)
        report.airtime_s += elapsed
        report.makespan_s += elapsed
        report.per_node_values[node] = count
    return report
