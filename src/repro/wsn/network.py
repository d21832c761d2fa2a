"""The WSN simulator: nodes, a transmission ledger and a network object.

:class:`WSNetwork` owns a cluster of IoT devices, one data aggregator and
one edge server (Fig. 1 of the paper).  Every byte that moves is recorded
in a :class:`TransmissionLedger` (this is what Fig. 3 plots) and charged
against node batteries using the first-order radio model.

Unreliable operation: :meth:`WSNetwork.attach_unreliable` wraps the
sensor radio or the backhaul uplink in a
:class:`repro.sim.channel.UnreliableChannel` (frame loss + ARQ,
optionally erasure-coded).  The transmit primitives then charge every
*retransmitted* byte to the sender's battery and the ledger too, and
records carry ``attempts``/``delivered`` so experiments can separate
goodput from radiated traffic.  Nodes can die (:meth:`WSNetwork.kill_node`
— battery depletion or an injected fault); transmissions involving dead
nodes raise :class:`DeadNodeError`.

Every sensor-radio hop goes through one check-and-charge loop
(:meth:`WSNetwork.send_hops`): for each hop in order, both ends must be
alive, then the hop's transmit outcome is taken and charged to both
batteries and the ledger.  :meth:`WSNetwork.unicast` feeds it one hop
and one live transmit; tree aggregation feeds it a whole tree level
priced at once (:meth:`WSNetwork.sensor_outcomes`), taking each hop's
outcome only after that hop's liveness check.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

import numpy as np

from .energy import Battery, RadioEnergyModel
from .geometry import distance
from .link import LinkModel, sensor_link, uplink

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


class TransmissionRecord(NamedTuple):
    """One logical message: who, to whom, how many payload bytes, what for.

    ``wire_bytes`` counts every radiated byte including retransmissions;
    ``attempts`` is the number of frame transmissions that produced it
    and ``delivered`` whether the message survived its ARQ budget
    (always ``1``/``True`` on ideal links).  An immutable named tuple
    (cheap to build: a ledger takes one per message), so a record
    compares equal to a plain tuple of the same values.
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

    def total_wire_bytes(self, kind: Optional[str] = None) -> int:
        return sum(r.wire_bytes for r in self.records
                   if kind is None or r.kind == kind)

    def total_kb(self, kind: Optional[str] = None) -> float:
        """Kilobytes on the wire (the unit of the paper's Fig. 3)."""
        return self.total_wire_bytes(kind) / 1024.0

    def by_kind(self) -> Dict[str, int]:
        """Wire bytes grouped by message kind."""
        totals: Dict[str, int] = defaultdict(int)
        for record in self.records:
            totals[record.kind] += record.wire_bytes
        return dict(totals)


EDGE_SERVER_ID = -1

#: Where every network's edge server sits (metres), and the bytes one
#: scalar sensing value takes on the wire (float32).
EDGE_POSITION, VALUE_BYTES = (150.0, 50.0), 4

#: One message's transmit outcome: ``(radiated_wire_bytes,
#: received_wire_bytes, elapsed_s, attempts, delivered)``.
Outcome = Tuple[int, int, float, int, bool]


class WSNetwork:
    """A single-cluster wireless sensor network plus its edge server.

    The edge server sits at :data:`EDGE_POSITION` (reached via the
    backhaul links, not the sensor radio), every value travels as
    :data:`VALUE_BYTES` bytes, the links are the :mod:`repro.wsn.link`
    defaults and every radio is a default :class:`RadioEnergyModel`.

    Parameters
    ----------
    positions:
        ``(n, 2)`` device coordinates (metres).  One of them may later be
        promoted to aggregator via :meth:`set_aggregator`.
    comm_range_m:
        Maximum single-hop radio range between sensor nodes.
    battery_capacity_j:
        Each device's battery capacity.
    """

    def __init__(self, positions: np.ndarray, comm_range_m: float = 30.0,
                 battery_capacity_j: float = 2.0):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be (n, 2)")
        if not comm_range_m > 0:
            raise ValueError(f"comm_range_m must be positive, "
                             f"got {comm_range_m}")
        radio = RadioEnergyModel()
        self.nodes: Dict[int, Node] = {}
        for node_id, pos in enumerate(positions):
            self.nodes[node_id] = Node(node_id, pos, NodeRole.DEVICE,
                                       Battery(battery_capacity_j), radio)
        # Nodes never change after construction, so neither does their order.
        self._device_ids: Tuple[int, ...] = tuple(sorted(self.nodes))
        self.edge = Node(EDGE_SERVER_ID, np.asarray(EDGE_POSITION, float),
                         NodeRole.EDGE, Battery(1e9), radio)
        self.comm_range_m = comm_range_m
        self.sensor_link = sensor_link()
        self.uplink = uplink()
        self.ledger = TransmissionLedger()
        self.aggregator_id: Optional[int] = None
        self.failed_nodes: Set[int] = set()
        self.sensor_channel: Optional["UnreliableChannel"] = None
        self.uplink_channel: Optional["UnreliableChannel"] = None
        self._hop_m: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def device_ids(self) -> List[int]:
        """Device ids in ascending order (a fresh list on every access)."""
        return list(self._device_ids)

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

    def dead_device_ids(self) -> Set[int]:
        """Devices that cannot transmit — failed, or out of energy — in
        one pass over the nodes (the complement of
        :attr:`alive_device_ids`)."""
        return {nid for nid in self.nodes if not self.is_alive(nid)}

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

    def _node(self, node_id: int) -> Node:
        return self.edge if node_id == EDGE_SERVER_ID else self.nodes[node_id]

    def _require_alive(self, node_id: int) -> Node:
        if node_id != EDGE_SERVER_ID and not self.is_alive(node_id):
            raise DeadNodeError(f"node {node_id} is dead")
        return self._node(node_id)

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
        return self._outcome(channel.transmit(payload_bytes))

    @staticmethod
    def _outcome(result) -> Outcome:
        """A channel's :class:`~repro.sim.channel.TransmitResult` as an
        :data:`Outcome`; every message counts at least one attempt."""
        return (result.wire_bytes, result.received_wire_bytes,
                result.elapsed_s, max(1, result.attempts), result.delivered)

    def sensor_outcomes(self, payloads: Sequence[int]) -> Iterator[Outcome]:
        """Sensor-radio outcomes of ``payloads``, one message at a time.

        Lazy: a lossless or pure-FEC sensor channel prices the whole
        sequence from one block of its sampler
        (:meth:`~repro.sim.channel.UnreliableChannel.transmit_each`) but
        consumes each message's loss verdicts only when that outcome is
        taken, so a caller that stops early leaves the channel as that
        many :meth:`unicast` calls would.  The caller (:meth:`send_hops`)
        must take them in order and run no other sensor transmit in
        between (the channel raises :class:`RuntimeError` if one does).
        """
        if self.sensor_channel is None:
            return (self._transmit(self.sensor_link, None, payload_bytes)
                    for payload_bytes in payloads)
        return map(self._outcome, self.sensor_channel.transmit_each(payloads))

    def send_hops(self, hops: Sequence[Tuple[int, int, int]],
                  outcomes: Iterator[Outcome], kind: str = "data",
                  force: bool = False) -> List[Tuple[float, bool]]:
        """Check, transmit and charge sensor-radio hops, one at a time.

        ``hops`` holds ``(src, dst, payload_bytes)`` and ``outcomes``
        yields their transmit outcomes in the same order.  A hop's ends
        must be alive and, unless ``force``, within radio range; only
        then is its outcome taken, so a refused hop consumes no loss
        verdicts.  The sender pays for every radiated byte, then the
        receiver for every received one, and the ledger records the
        message.  A :class:`DeadNodeError` or
        :class:`~repro.wsn.energy.BatteryDepletedError` stops the loop at
        its hop, every earlier hop charged.  Returns ``(elapsed_s,
        delivered)`` per hop.
        """
        nodes, failed, edge = self.nodes, self.failed_nodes, self.edge
        hop_m, reach = self._hop_m, self.comm_range_m + 1e-9
        append = self.ledger.records.append
        done: List[Tuple[float, bool]] = []
        for src, dst, payload_bytes in hops:
            if src == dst:
                raise ValueError("unicast to self")
            # is_alive, read inline; the edge server never dies.
            sender = edge if src == EDGE_SERVER_ID else nodes[src]
            if sender is not edge and (
                    src in failed or not sender.battery.remaining_j > 0):
                raise DeadNodeError(f"node {src} is dead")
            receiver = edge if dst == EDGE_SERVER_ID else nodes[dst]
            if receiver is not edge and (
                    dst in failed or not receiver.battery.remaining_j > 0):
                raise DeadNodeError(f"node {dst} is dead")
            hop = hop_m.get((src, dst))
            if hop is None:
                hop = self.link_distance(src, dst)
            if hop > reach and not force:
                raise ValueError(f"nodes {src} and {dst} are out of radio "
                                 f"range ({hop:.1f} m > {self.comm_range_m} m)")
            wire, received, elapsed, attempts, delivered = next(outcomes)
            # The edge is the one powered node: it pays nothing.
            if sender is not edge:
                sender.battery.drain(sender.radio.tx_energy(wire * 8, hop))
            if receiver is not edge:
                receiver.battery.drain(receiver.radio.rx_energy(received * 8))
            append(TransmissionRecord(src, dst, payload_bytes, wire, kind,
                                      elapsed, attempts, delivered))
            done.append((elapsed, delivered))
        return done

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
        outcome = (self._transmit(self.sensor_link, self.sensor_channel, n)
                   for n in (payload_bytes,))
        return self.send_hops(((src, dst, payload_bytes),), outcome,
                              kind=kind, force=force)[0]

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
