"""Declarative fault injection: node death, brownout, failover, churn.

A :class:`FaultSchedule` is a sorted list of :class:`FaultEvent`\\ s —
"at simulated second 40, device 3 of cluster-1 dies", "at 60, cluster-2
straggles 6x" — that a :class:`FaultInjector` arms on an
:class:`~repro.sim.events.EventScheduler`, applying each event to a
*fault target* when the simulated clock reaches it.

A fault target is anything implementing the small mutation protocol
below (:class:`FaultTarget`): the scheduler's event engine exposes its
per-cluster state this way.

Event kinds
-----------
``node_death``        device ``device`` stops contributing (and, as a
                      relay, drops its subtree in masked aggregation)
``node_revive``       churn: the device rejoins
``aggregator_death``  the cluster head dies; resilient policies fail
                      over by re-running aggregator selection
``brownout``          battery knee: remaining energy multiplies by
                      ``magnitude`` (0 < m < 1)
``straggler``         the cluster's compute slows by ``magnitude`` (>= 1)
``recover``           straggler recovery: slow factor back to 1
``cluster_death``     the whole cluster leaves the fleet
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
)

from ..obs.telemetry import NULL_BUS, FaultApplied
from .events import EventScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import TelemetryBus

FAULT_KINDS = ("node_death", "node_revive", "aggregator_death", "brownout",
               "straggler", "recover", "cluster_death")
#: The kinds that act on one device, named by ``FaultEvent.device``.
_DEVICE_KINDS = ("node_death", "node_revive")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``magnitude`` is kind-specific: brownout keeps that *fraction* of
    remaining battery; straggler multiplies compute time by it.
    """

    time_s: float
    kind: str
    cluster: str = ""
    device: Optional[int] = None
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        # Written as negated comparisons so that NaN fails them too:
        # hosted runs build events from JSON, which accepts NaN.
        if not 0.0 <= self.time_s < math.inf:
            raise ValueError(f"fault time must be finite and >= 0, "
                             f"got {self.time_s!r}")
        if self.kind in _DEVICE_KINDS and not (
                isinstance(self.device, numbers.Integral) and self.device >= 0):
            raise ValueError(f"{self.kind} needs a device index, an integer "
                             f">= 0; got {self.device!r}")
        if self.kind == "brownout" and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("brownout magnitude is the battery fraction "
                             "kept; must be in [0, 1]")
        if self.kind == "straggler" and not self.magnitude >= 1.0:
            raise ValueError(f"straggler magnitude is a slowdown factor >= 1, "
                             f"got {self.magnitude!r}")


class FaultSchedule:
    """An immutable, time-sorted collection of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.time_s, e.kind, e.cluster))

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)


class FaultTarget(Protocol):
    """Mutation protocol a fault-injectable cluster state implements."""

    #: Devices ``0 .. num_devices - 1`` are the ones a device fault may name.
    num_devices: int

    def kill_device(self, device: int) -> None: ...

    def revive_device(self, device: int) -> None: ...

    def kill_aggregator(self) -> None: ...

    def brownout(self, fraction: float) -> None: ...

    def set_slow_factor(self, factor: float) -> None: ...

    def kill_cluster(self) -> None: ...


def apply_fault(event: FaultEvent, target: FaultTarget) -> None:
    """Dispatch one event onto a fault target."""
    if event.kind == "node_death":
        target.kill_device(event.device)
    elif event.kind == "node_revive":
        target.revive_device(event.device)
    elif event.kind == "aggregator_death":
        target.kill_aggregator()
    elif event.kind == "brownout":
        target.brownout(event.magnitude)
    elif event.kind == "straggler":
        target.set_slow_factor(event.magnitude)
    elif event.kind == "recover":
        target.set_slow_factor(1.0)
    elif event.kind == "cluster_death":
        target.kill_cluster()
    else:  # pragma: no cover - guarded by FaultEvent validation
        raise ValueError(f"unhandled fault kind {event.kind!r}")


@dataclass
class FaultInjector:
    """Arms a schedule on a kernel and applies events to named targets.

    ``targets`` maps cluster names to fault targets.  Events naming an
    unknown cluster, or a device the cluster does not have, raise at
    :meth:`arm` time (declarative schedules should fail loudly, not
    silently no-op or fail mid-run).  ``applied`` records the
    events that actually fired, in order — the audit trail experiment
    reports lean on.  ``on_applied`` is an optional post-application
    hook called with each fired event — the seam through which the
    scheduler re-derives per-cluster ARQ budgets at fault boundaries
    (a brownout or failover changes both deadline slack and battery
    headroom, so the budget set at run start goes stale).
    """

    schedule: FaultSchedule
    targets: dict
    applied: List[FaultEvent] = field(default_factory=list)
    on_applied: Optional[Callable[[FaultEvent], None]] = None
    bus: "TelemetryBus" = field(default=NULL_BUS, repr=False)
    _sim: Optional[EventScheduler] = field(default=None, repr=False)

    #: Event tag the injector arms with; :meth:`horizon` queries it.
    TAG = "fault"

    def arm(self, sim: EventScheduler) -> None:
        unknown = [e.cluster for e in self.schedule
                   if e.cluster not in self.targets]
        if unknown:
            raise KeyError(f"fault schedule names unknown clusters {unknown}; "
                           f"known: {sorted(self.targets)}")
        for event in self.schedule:
            if event.kind not in _DEVICE_KINDS:
                continue
            devices = self.targets[event.cluster].num_devices
            if event.device >= devices:
                raise ValueError(
                    f"{event.kind} at {event.time_s} s names device "
                    f"{event.device} of cluster {event.cluster!r}, which has "
                    f"{devices} devices")
        self._sim = sim
        for event in self.schedule:
            sim.schedule_at(event.time_s, self._fire, event, tag=self.TAG)

    def disarm_after(self, time_s: float) -> None:
        """Drop the faults scheduled later than ``time_s`` unfired.

        The scheduler calls this with the run's makespan once training
        stops: a fault past the end of the run has nothing to act on,
        so it neither fires nor enters :attr:`applied`.
        """
        self._sim.cancel_after(self.TAG, time_s)

    def horizon(self) -> float:
        """Simulated time of the next *unfired* fault (inf when none).

        This is the segment boundary the scheduler's fused event engine
        batches up to: every round whose edge work completes strictly
        before the horizon sees exactly the current fault state, so its
        training math can be pre-executed as part of a fleet wave.
        Valid once :meth:`arm` has run.
        """
        return self._sim.next_time(self.TAG)

    def _fire(self, event: FaultEvent) -> None:
        apply_fault(event, self.targets[event.cluster])
        self.applied.append(event)
        if self.bus.wants(FaultApplied.kind):
            self.bus.emit(FaultApplied(cluster=event.cluster,
                                       fault=event.kind,
                                       time_s=event.time_s))
        if self.on_applied is not None:
            self.on_applied(event)
