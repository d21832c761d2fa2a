"""`repro.obs.telemetry` — the fleet telemetry bus.

A :class:`TelemetryBus` carries **typed events** from the scheduler,
round executors, channel kernel, and fault injector to any number of
subscribers (JSONL writers, metric collectors, live consoles, the
future control-plane server).  The design contract, inherited from the
rest of this repo:

* **Zero cost when off.**  Every emission site is written as::

      if bus.wants(RoundCompleted.kind):
          bus.emit(RoundCompleted(...))

  so with the module-level :data:`NULL_BUS` (or no subscriber for that
  kind) the event object is never even constructed.  ``wants`` on the
  null bus is a constant ``False``.

* **No simulation side effects.**  The bus never draws from an RNG,
  never touches float accumulation order, and is invisible to the
  simulated clock — fused/unfused and vectorized/scalar runs stay
  bit-identical with telemetry on or off.  ``span()`` timers use
  wall-clock ``time.perf_counter`` which exists outside the simulation.

Events are frozen dataclasses with a ``kind`` class attribute naming
the event type; ``as_dict()`` gives a flat JSON-ready mapping (used by
the JSONL exporter) and :data:`EVENT_TYPES` maps kinds back to classes
(used by the reader).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Type

__all__ = [
    "TelemetryEvent",
    "RoundCompleted", "SegmentFused", "FaultApplied",
    "ArqRederived", "ParityChosen", "TransmitBatch", "QuorumCheck",
    "ClusterRetired", "DeadlineMissed", "SpanClosed",
    "EVENT_TYPES", "TelemetryBus", "NullTelemetryBus", "NULL_BUS",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class for all bus events (never emitted itself)."""

    kind = "event"

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-ready mapping including the ``kind`` discriminator.

        Events are flat dataclasses of scalars, so a shallow copy of
        ``__dict__`` suffices — ``dataclasses.asdict`` would deep-copy
        every field, which dominates JSONL export cost at fleet scale.
        """
        payload: Dict[str, object] = {"kind": self.kind}
        payload.update(self.__dict__)
        return payload


@dataclass(frozen=True)
class RoundCompleted(TelemetryEvent):
    """A training round spent its budget slot (delivered or not).

    Emitted by both the ideal round loop and the event engine's edge
    process; ``delivered`` is False when an uplink/downlink failure
    consumed the round without producing an aggregate.
    """

    kind = "round_completed"

    cluster: str
    round: int
    delivered: bool
    loss: Optional[float]
    time_s: float
    battery_j: Optional[float] = None
    radio_energy_j: Optional[float] = None


@dataclass(frozen=True)
class SegmentFused(TelemetryEvent):
    """The segment planner fused a horizon into one fleet batch.

    ``bound`` names the planner bound that decided the batch's extent:
    ``"before-horizon"`` (every round lands strictly before the next
    fault) or ``"command-pending"`` (a cancel pends; the requesting
    round only).
    """

    kind = "segment_fused"

    index: int
    horizon_s: Optional[float]
    clusters: int
    successes: int
    failures: int
    bound: str = ""


@dataclass(frozen=True)
class FaultApplied(TelemetryEvent):
    """The fault injector fired a scheduled fault on a cluster."""

    kind = "fault_applied"

    cluster: str
    fault: str
    time_s: float


@dataclass(frozen=True)
class ArqRederived(TelemetryEvent):
    """Adaptive ARQ swapped a channel's retry budget at a fault."""

    kind = "arq_rederived"

    cluster: str
    direction: str
    old_retries: int
    new_retries: int
    time_s: float


@dataclass(frozen=True)
class ParityChosen(TelemetryEvent):
    """Energy-optimal FEC parity resolved for one channel direction."""

    kind = "parity_chosen"

    cluster: str
    direction: str
    parity: int
    loss_rate: float
    headroom_j: float


@dataclass(frozen=True)
class TransmitBatch(TelemetryEvent):
    """The vectorized channel kernel priced a batch of transmissions.

    Covers live batched sends, trace recording and trace re-recording
    — they all route through ``UnreliableChannel.transmit_batch``.
    """

    kind = "transmit_batch"

    payload_bytes: int
    count: int
    delivered: int
    attempts: int
    lost_frames: int
    retransmissions: int
    wire_bytes: int


@dataclass(frozen=True)
class QuorumCheck(TelemetryEvent):
    """The event engine evaluated the fleet quorum before a pick."""

    kind = "quorum_check"

    alive: int
    total: int
    quorum: float
    halted: bool
    time_s: float


@dataclass(frozen=True)
class ClusterRetired(TelemetryEvent):
    """A cluster permanently left the fleet (death, budget, quorum...)."""

    kind = "cluster_retired"

    cluster: str
    reason: str
    time_s: float


@dataclass(frozen=True)
class DeadlineMissed(TelemetryEvent):
    """A cluster first finished a round past its deadline."""

    kind = "deadline_missed"

    cluster: str
    round: int
    finish_s: float
    deadline_s: float


@dataclass(frozen=True)
class SpanClosed(TelemetryEvent):
    """A wall-clock phase timer closed (plan / execute / trace-record).

    ``depth`` reflects span nesting at close time (outermost = 0) so a
    consumer can reconstruct the phase tree without matching ids.
    """

    kind = "span"

    name: str
    elapsed_s: float
    depth: int


#: kind -> event class, for the JSONL reader (see ``exporters.read_events``).
EVENT_TYPES: Dict[str, Type[TelemetryEvent]] = {
    cls.kind: cls
    for cls in (
        RoundCompleted, SegmentFused, FaultApplied,
        ArqRederived, ParityChosen, TransmitBatch, QuorumCheck,
        ClusterRetired, DeadlineMissed, SpanClosed,
    )
}


@dataclass
class _Subscription:
    callback: Callable[[TelemetryEvent], None]
    kinds: Optional[frozenset]  # None = all kinds


class TelemetryBus:
    """Dispatches typed events to subscribers, filtered by kind.

    ``wants(kind)`` is the hot-path guard: a set-membership test (or a
    cached all-kinds flag) that emission sites check *before*
    constructing an event.  ``emit`` then fans the event out to every
    subscriber whose kind filter matches.
    """

    def __init__(self) -> None:
        # Copy-on-write subscriber snapshot: ``emit`` iterates one
        # immutable tuple while subscribe/unsubscribe swap in a new one,
        # so a control-plane thread may (un)subscribe concurrently with
        # a simulation thread's emissions without a lock on the hot
        # path and without an emission ever seeing a half-edited list.
        self._subs: Tuple[_Subscription, ...] = ()
        self._wanted: frozenset = frozenset()
        self._wants_all = False
        self._span_depth = 0

    # -- subscription ---------------------------------------------------

    def subscribe(self, callback: Callable[[TelemetryEvent], None],
                  kinds: Optional[Iterable[str]] = None) -> Callable[[], None]:
        """Register ``callback``; returns an unsubscribe thunk.

        ``kinds`` limits delivery (and ``wants``) to those event kinds;
        ``None`` subscribes to everything, including spans.
        """
        sub = _Subscription(
            callback,
            None if kinds is None else frozenset(kinds),
        )
        self._subs = self._subs + (sub,)
        self._rebuild_wanted()

        def unsubscribe() -> None:
            if sub in self._subs:
                self._subs = tuple(s for s in self._subs if s is not sub)
                self._rebuild_wanted()

        return unsubscribe

    def _rebuild_wanted(self) -> None:
        self._wants_all = any(s.kinds is None for s in self._subs)
        wanted = set()
        for sub in self._subs:
            if sub.kinds is not None:
                wanted.update(sub.kinds)
        self._wanted = frozenset(wanted)

    # -- emission -------------------------------------------------------

    def wants(self, kind: str) -> bool:
        """True when at least one subscriber would receive ``kind``."""
        return self._wants_all or kind in self._wanted

    def emit(self, event: TelemetryEvent) -> None:
        for sub in self._subs:
            if sub.kinds is None or event.kind in sub.kinds:
                sub.callback(event)

    # -- spans ----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Nestable wall-clock timer; emits a :class:`SpanClosed` on exit.

        Timing only happens when some subscriber wants spans, so an
        unsubscribed bus pays one ``wants`` check per span.
        """
        if not self.wants(SpanClosed.kind):
            yield
            return
        depth = self._span_depth
        self._span_depth = depth + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._span_depth = depth
            self.emit(SpanClosed(name=name, elapsed_s=elapsed, depth=depth))


class NullTelemetryBus(TelemetryBus):
    """The do-nothing bus: ``wants`` is constant False, ``emit`` drops.

    Instrumented modules hold this as their module-level default so the
    hot path costs one attribute load + one constant-False call when
    telemetry is off.  Subscribing to the null bus is a programming
    error and raises.
    """

    def subscribe(self, callback, kinds=None):  # pragma: no cover - guard
        raise TypeError(
            "cannot subscribe to NULL_BUS — pass a TelemetryBus via the "
            "telemetry= parameter instead")

    def wants(self, kind: str) -> bool:
        return False

    def emit(self, event: TelemetryEvent) -> None:
        pass

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


#: Shared module-level default for every instrumented call site.
NULL_BUS = NullTelemetryBus()
