"""The WSN simulator: nodes, a transmission ledger and a network object.

:class:`WSNetwork` owns a cluster of IoT devices, one data aggregator and
one edge server (Fig. 1 of the paper).  Every byte that moves is recorded
in a :class:`TransmissionLedger` (this is what Fig. 3 plots) and charged
against node batteries using the first-order radio model.

Unreliable operation: :meth:`WSNetwork.attach_unreliable` wraps any of
the three link classes in a :class:`repro.sim.channel.UnreliableChannel`
(frame loss + ARQ, optionally erasure-coded).  The transmit primitives then charge every
*retransmitted* byte to the sender's battery and the ledger too, and
records carry ``attempts``/``delivered`` so experiments can separate
goodput from radiated traffic.  Nodes can die (:meth:`WSNetwork.kill_node`
— battery depletion or an injected fault); transmissions involving dead
nodes raise :class:`DeadNodeError`.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from .energy import Battery, RadioEnergyModel
from .geometry import distance, pairwise_distances
from .link import LinkModel, downlink, sensor_link, uplink

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.channel import ChannelSpec, UnreliableChannel


class DeadNodeError(RuntimeError):
    """Raised when a dead node is asked to transmit or receive."""


class NodeRole(enum.Enum):
    """Roles in the OrcoDCS architecture."""

    DEVICE = "device"
    AGGREGATOR = "aggregator"
    EDGE = "edge"


@dataclass
class Node:
    """One network participant.

    IoT devices and the aggregator live in the sensor field and own a
    battery; the edge server is mains-powered (battery is ignored but
    kept so accounting code stays uniform).  ``position`` is a read-only
    copy: nodes never move, which lets :class:`WSNetwork` cache hop
    distances.
    """

    node_id: int
    position: np.ndarray
    role: NodeRole = NodeRole.DEVICE
    battery: Battery = field(default_factory=Battery)
    radio: RadioEnergyModel = field(default_factory=RadioEnergyModel)

    def __post_init__(self):
        self.position = np.array(self.position, dtype=float)
        self.position.flags.writeable = False

    @property
    def is_powered(self) -> bool:
        """Edge servers have wall power; their battery is never drained."""
        return self.role is NodeRole.EDGE


@dataclass(frozen=True)
class TransmissionRecord:
    """One logical message: who, to whom, how many payload bytes, what for.

    ``wire_bytes`` counts every radiated byte including retransmissions;
    ``attempts`` is the number of frame transmissions that produced it
    and ``delivered`` whether the message survived its ARQ budget
    (always ``1``/``True`` on ideal links).
    """

    src: int
    dst: int
    payload_bytes: int
    wire_bytes: int
    kind: str
    time_s: float
    attempts: int = 1
    delivered: bool = True


class TransmissionLedger:
    """Append-only log of every transmission in a simulation.

    ``kind`` tags ("raw_aggregation", "latent_uplink", ...) let experiment
    code break total cost into the components the paper discusses.
    """

    def __init__(self):
        self.records: List[TransmissionRecord] = []

    def record(self, src: int, dst: int, payload_bytes: int, wire_bytes: int,
               kind: str, time_s: float, attempts: int = 1,
               delivered: bool = True) -> None:
        self.records.append(TransmissionRecord(src, dst, payload_bytes,
                                               wire_bytes, kind, time_s,
                                               attempts, delivered))

    def __len__(self) -> int:
        return len(self.records)

    def total_payload_bytes(self, kind: Optional[str] = None) -> int:
        return sum(r.payload_bytes for r in self.records
                   if kind is None or r.kind == kind)

    def total_wire_bytes(self, kind: Optional[str] = None) -> int:
        return sum(r.wire_bytes for r in self.records
                   if kind is None or r.kind == kind)

    def total_kb(self, kind: Optional[str] = None) -> float:
        """Kilobytes on the wire (the unit of the paper's Fig. 3)."""
        return self.total_wire_bytes(kind) / 1024.0

    def total_time_s(self, kind: Optional[str] = None) -> float:
        return sum(r.time_s for r in self.records
                   if kind is None or r.kind == kind)

    def by_kind(self) -> Dict[str, int]:
        """Wire bytes grouped by message kind."""
        totals: Dict[str, int] = defaultdict(int)
        for record in self.records:
            totals[record.kind] += record.wire_bytes
        return dict(totals)

    def per_node_tx_bytes(self) -> Dict[int, int]:
        """Wire bytes transmitted, per source node."""
        totals: Dict[int, int] = defaultdict(int)
        for record in self.records:
            totals[record.src] += record.wire_bytes
        return dict(totals)

    def delivered_fraction(self, kind: Optional[str] = None) -> float:
        """Fraction of logical messages that survived their ARQ budget."""
        relevant = [r for r in self.records
                    if kind is None or r.kind == kind]
        if not relevant:
            return 1.0
        return sum(r.delivered for r in relevant) / len(relevant)

    def total_attempts(self, kind: Optional[str] = None) -> int:
        """Frame transmissions radiated (retransmissions included)."""
        return sum(r.attempts for r in self.records
                   if kind is None or r.kind == kind)

    def merge(self, other: "TransmissionLedger") -> None:
        self.records.extend(other.records)


EDGE_SERVER_ID = -1


class WSNetwork:
    """A single-cluster wireless sensor network plus its edge server.

    Parameters
    ----------
    positions:
        ``(n, 2)`` device coordinates (metres).  One of them may later be
        promoted to aggregator via :meth:`set_aggregator`.
    edge_position:
        Coordinates of the edge server (reached via the backhaul links,
        not the sensor radio).
    comm_range_m:
        Maximum single-hop radio range between sensor nodes.
    value_bytes:
        Bytes per scalar sensing value (4 = float32 on the wire).
    """

    def __init__(self, positions: np.ndarray,
                 edge_position: Tuple[float, float] = (150.0, 50.0),
                 comm_range_m: float = 30.0,
                 battery_capacity_j: float = 2.0,
                 radio: Optional[RadioEnergyModel] = None,
                 sensor: Optional[LinkModel] = None,
                 up: Optional[LinkModel] = None,
                 down: Optional[LinkModel] = None,
                 value_bytes: int = 4):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be (n, 2)")
        if comm_range_m <= 0:
            raise ValueError("comm_range_m must be positive")
        radio = radio or RadioEnergyModel()
        self.nodes: Dict[int, Node] = {}
        for node_id, pos in enumerate(positions):
            self.nodes[node_id] = Node(node_id, pos, NodeRole.DEVICE,
                                       Battery(battery_capacity_j), radio)
        self.edge = Node(EDGE_SERVER_ID, np.asarray(edge_position, float),
                         NodeRole.EDGE, Battery(1e9), radio)
        self.comm_range_m = comm_range_m
        self.sensor_link = sensor or sensor_link()
        self.uplink = up or uplink()
        self.downlink = down or downlink()
        self.value_bytes = value_bytes
        self.ledger = TransmissionLedger()
        self.aggregator_id: Optional[int] = None
        self.failed_nodes: Set[int] = set()
        self.sensor_channel: Optional["UnreliableChannel"] = None
        self.uplink_channel: Optional["UnreliableChannel"] = None
        self.downlink_channel: Optional["UnreliableChannel"] = None
        self._hop_m: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def device_ids(self) -> List[int]:
        return sorted(self.nodes)

    @property
    def num_devices(self) -> int:
        return len(self.nodes)

    def positions(self) -> np.ndarray:
        return np.array([self.nodes[i].position for i in self.device_ids])

    def set_aggregator(self, node_id: int) -> None:
        """Promote one device to the cluster's data aggregator."""
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        if self.aggregator_id is not None:
            self.nodes[self.aggregator_id].role = NodeRole.DEVICE
        self.nodes[node_id].role = NodeRole.AGGREGATOR
        self.aggregator_id = node_id

    # ------------------------------------------------------------------
    # Liveness and unreliability
    # ------------------------------------------------------------------
    @property
    def alive_device_ids(self) -> List[int]:
        """Devices that can still transmit (battery left, not failed)."""
        return [nid for nid in self.device_ids if self.is_alive(nid)]

    def is_alive(self, node_id: int) -> bool:
        node = self.nodes[node_id]
        return node_id not in self.failed_nodes and node.battery.remaining_j > 0

    def kill_node(self, node_id: int) -> None:
        """Mark a device dead (fault injection or battery depletion)."""
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        self.failed_nodes.add(node_id)

    def revive_node(self, node_id: int) -> None:
        """Churn: a previously failed device rejoins the cluster."""
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        self.failed_nodes.discard(node_id)

    def attach_unreliable(self, sensor: Optional["ChannelSpec"] = None,
                          up: Optional["ChannelSpec"] = None,
                          down: Optional["ChannelSpec"] = None,
                          rng: Optional[np.random.Generator] = None) -> None:
        """Wrap link classes in unreliable channels built from specs.

        Each attached channel draws loss from its own stream of
        ``rng`` (deterministic per seed).  Passing ``None`` for a link
        class leaves it ideal.
        """
        rng = rng or np.random.default_rng()
        if sensor is not None:
            self.sensor_channel = sensor.build(
                self.sensor_link, np.random.default_rng(rng.integers(2 ** 63)))
        if up is not None:
            self.uplink_channel = up.build(
                self.uplink, np.random.default_rng(rng.integers(2 ** 63)))
        if down is not None:
            self.downlink_channel = down.build(
                self.downlink, np.random.default_rng(rng.integers(2 ** 63)))

    def _node(self, node_id: int) -> Node:
        return self.edge if node_id == EDGE_SERVER_ID else self.nodes[node_id]

    def _require_alive(self, node_id: int) -> Node:
        if node_id != EDGE_SERVER_ID and not self.is_alive(node_id):
            raise DeadNodeError(f"node {node_id} is dead")
        return self._node(node_id)

    def connectivity(self) -> "np.ndarray":
        """Boolean adjacency matrix: nodes within radio range."""
        dist = pairwise_distances(self.positions())
        adjacency = dist <= self.comm_range_m
        np.fill_diagonal(adjacency, False)
        return adjacency

    def neighbors(self, node_id: int) -> List[int]:
        ids = self.device_ids
        row = self.connectivity()[ids.index(node_id)]
        return [ids[j] for j, connected in enumerate(row) if connected]

    def link_distance(self, src: int, dst: int) -> float:
        """Metres from ``src`` to ``dst`` (either may be the edge server),
        memoized per pair on first use: node positions never change."""
        hop = self._hop_m.get((src, dst))
        if hop is None:
            hop = self._hop_m[src, dst] = distance(self._node(src).position,
                                                   self._node(dst).position)
        return hop

    # ------------------------------------------------------------------
    # Transmission primitives
    # ------------------------------------------------------------------
    def _charge(self, node: Node, joules: float) -> None:
        if not node.is_powered:
            node.battery.drain(joules)

    def _transmit(self, link: LinkModel, channel: Optional["UnreliableChannel"],
                  payload_bytes: int) -> Tuple[int, int, float, int, bool]:
        """Move a message over one link class, ideal or unreliable.

        Returns ``(radiated_wire_bytes, received_wire_bytes, elapsed_s,
        attempts, delivered)``.  Ideal links deliver every frame exactly
        once; unreliable channels may radiate more (retransmissions) and
        still fail.
        """
        if channel is None:
            wire = link.wire_bytes(payload_bytes)
            attempts = max(1, link.frames_for(payload_bytes))
            return wire, wire, link.transfer_time(payload_bytes), attempts, True
        result = channel.transmit(payload_bytes)
        return (result.wire_bytes, result.received_wire_bytes,
                result.elapsed_s, max(1, result.attempts), result.delivered)

    def unicast(self, src: int, dst: int, payload_bytes: int,
                kind: str = "data", force: bool = False) -> float:
        """Send bytes over one sensor-radio hop; returns transfer seconds.

        ``force=True`` permits hops beyond the nominal radio range
        (bridged links for stranded nodes raise TX power); the energy
        model's d^4 multipath term makes such hops appropriately costly.
        With an unreliable sensor channel attached, retransmissions are
        charged to the sender's battery and the ledger alongside the
        delivered bytes.
        """
        elapsed, _ = self.unicast_delivered(src, dst, payload_bytes,
                                            kind=kind, force=force)
        return elapsed

    def unicast_delivered(self, src: int, dst: int, payload_bytes: int,
                          kind: str = "data",
                          force: bool = False) -> Tuple[float, bool]:
        """:meth:`unicast`, also returning whether the message survived
        its recovery budget — the verdict masked aggregation severs
        subtrees on (always ``True`` on ideal links)."""
        if src == dst:
            raise ValueError("unicast to self")
        src_node, dst_node = self._require_alive(src), self._require_alive(dst)
        hop = self.link_distance(src, dst)
        if hop > self.comm_range_m + 1e-9 and not force:
            raise ValueError(f"nodes {src} and {dst} are out of radio range "
                             f"({hop:.1f} m > {self.comm_range_m} m)")
        wire, received, elapsed, attempts, delivered = self._transmit(
            self.sensor_link, self.sensor_channel, payload_bytes)
        self._charge(src_node, src_node.radio.tx_energy(wire * 8, hop))
        self._charge(dst_node, dst_node.radio.rx_energy(received * 8))
        self.ledger.record(src, dst, payload_bytes, wire, kind, elapsed,
                           attempts, delivered)
        return elapsed, delivered

    def broadcast(self, src: int, payload_bytes: int,
                  kind: str = "broadcast") -> float:
        """One radio broadcast reaching every in-range live neighbour."""
        src_node = self._require_alive(src)
        neighbor_ids = [n for n in self.neighbors(src) if self.is_alive(n)]
        wire, received, elapsed, attempts, delivered = self._transmit(
            self.sensor_link, self.sensor_channel, payload_bytes)
        self._charge(src_node, src_node.radio.tx_energy(wire * 8,
                                                        self.comm_range_m))
        for nid in neighbor_ids:
            self._charge(self.nodes[nid],
                         self.nodes[nid].radio.rx_energy(received * 8))
        self.ledger.record(src, EDGE_SERVER_ID if not neighbor_ids else neighbor_ids[0],
                           payload_bytes, wire, kind, elapsed, attempts,
                           delivered)
        return elapsed

    def uplink_to_edge(self, payload_bytes: int, kind: str = "uplink") -> float:
        """Aggregator -> edge server transfer over the backhaul uplink."""
        if self.aggregator_id is None:
            raise RuntimeError("no aggregator selected")
        aggregator = self._require_alive(self.aggregator_id)
        wire, _, elapsed, attempts, delivered = self._transmit(
            self.uplink, self.uplink_channel, payload_bytes)
        backhaul = self.link_distance(self.aggregator_id, EDGE_SERVER_ID)
        self._charge(aggregator, aggregator.radio.tx_energy(wire * 8, backhaul))
        self.ledger.record(self.aggregator_id, EDGE_SERVER_ID, payload_bytes,
                           wire, kind, elapsed, attempts, delivered)
        return elapsed

    def downlink_from_edge(self, payload_bytes: int,
                           kind: str = "downlink") -> float:
        """Edge server -> aggregator transfer over the cheap downlink."""
        if self.aggregator_id is None:
            raise RuntimeError("no aggregator selected")
        aggregator = self._require_alive(self.aggregator_id)
        wire, received, elapsed, attempts, delivered = self._transmit(
            self.downlink, self.downlink_channel, payload_bytes)
        self._charge(aggregator, aggregator.radio.rx_energy(received * 8))
        self.ledger.record(EDGE_SERVER_ID, self.aggregator_id, payload_bytes,
                           wire, kind, elapsed, attempts, delivered)
        return elapsed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def energy_report(self) -> Dict[int, float]:
        """Joules consumed so far, per node."""
        return {nid: node.battery.consumed_j for nid, node in self.nodes.items()}

    def alive_fraction(self) -> float:
        """Fraction of devices still operational (energy left, not failed)."""
        alive = sum(1 for nid in self.nodes if self.is_alive(nid))
        return alive / len(self.nodes)

    def reset_ledger(self) -> TransmissionLedger:
        """Swap in a fresh ledger, returning the old one."""
        old, self.ledger = self.ledger, TransmissionLedger()
        return old


def build_cluster(num_devices: int, rng: Optional[np.random.Generator] = None,
                  area: Tuple[float, float] = (100.0, 100.0),
                  comm_range_m: float = 30.0,
                  **kwargs) -> WSNetwork:
    """Convenience constructor: scatter devices, pick the most central one
    as aggregator (proximity rule of Sec. III-E)."""
    from .clustering import select_aggregator
    from .geometry import place_uniform

    rng = rng or np.random.default_rng()
    positions = place_uniform(num_devices, area, rng)
    network = WSNetwork(positions, comm_range_m=comm_range_m, **kwargs)
    network.set_aggregator(select_aggregator(positions))
    return network
