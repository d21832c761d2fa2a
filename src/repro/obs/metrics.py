"""`repro.obs.metrics` — counters, gauges and histograms.

Small, dependency-free metric primitives plus a
:class:`MetricsCollector` that subscribes to a
:class:`~repro.obs.telemetry.TelemetryBus` and aggregates the event
stream into run-level metrics: per-cluster reconstruction loss (the
NMSE proxy the scheduler ledgers), battery headroom, cumulative radio
energy, frames per delivery, segment lengths, and wall-time per span
phase.  ``flat()`` snapshots everything into a bench-friendly flat
dict of scalars.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .telemetry import (
    ClusterRetired, DeadlineMissed, FaultApplied, RoundCompleted,
    SegmentFused, SpanClosed, TelemetryBus, TelemetryEvent, TransmitBatch,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsCollector",
]


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


@dataclass
class Gauge:
    """Last-observed value (None until first set)."""

    value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds.

    ``buckets`` are the finite upper edges, strictly increasing; an
    implicit +inf bucket catches the overflow.  Tracks count / sum /
    min / max alongside the bucket counts so summary tables can report
    a mean without re-walking observations.
    """

    def __init__(self, buckets: Sequence[float]) -> None:
        edges = list(buckets)
        if not edges:
            raise ValueError("need at least one bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)


#: Default bucket edges for each histogram the collector keeps.
_LOSS_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
_FRAMES_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_SEGMENT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
_SPAN_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
_BATTERY_BUCKETS = (0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)


@dataclass
class _ClusterStats:
    rounds: Counter = field(default_factory=Counter)
    delivered: Counter = field(default_factory=Counter)
    faults: Counter = field(default_factory=Counter)
    loss: Gauge = field(default_factory=Gauge)
    battery_j: Gauge = field(default_factory=Gauge)
    radio_energy_j: Gauge = field(default_factory=Gauge)


class MetricsCollector:
    """Bus subscriber that folds the event stream into metrics.

    Attach with ``collector = MetricsCollector(bus)``; read the
    aggregates from its attributes or snapshot them with ``flat()``.
    """

    KINDS = (
        RoundCompleted.kind, SegmentFused.kind, FaultApplied.kind,
        TransmitBatch.kind, ClusterRetired.kind, DeadlineMissed.kind,
        SpanClosed.kind,
    )

    def __init__(self, bus: Optional[TelemetryBus] = None) -> None:
        self.clusters: Dict[str, _ClusterStats] = {}
        self.loss_hist = Histogram(_LOSS_BUCKETS)
        self.battery_hist = Histogram(_BATTERY_BUCKETS)
        self.frames_hist = Histogram(_FRAMES_BUCKETS)
        self.segment_hist = Histogram(_SEGMENT_BUCKETS)
        self.span_hists: Dict[str, Histogram] = {}
        self.transmits = Counter()
        self.frames_sent = Counter()
        self.retransmissions = Counter()
        self.payloads_delivered = Counter()
        self.wire_bytes = Counter()
        self.deadline_misses = Counter()
        self.retirements: Dict[str, int] = {}
        if bus is not None:
            bus.subscribe(self.observe_event, kinds=self.KINDS)

    def _cluster(self, name: str) -> _ClusterStats:
        stats = self.clusters.get(name)
        if stats is None:
            stats = self.clusters[name] = _ClusterStats()
        return stats

    def observe_event(self, event: TelemetryEvent) -> None:
        if isinstance(event, RoundCompleted):
            stats = self._cluster(event.cluster)
            stats.rounds.inc()
            if event.delivered:
                stats.delivered.inc()
            if event.loss is not None:
                stats.loss.set(event.loss)
                self.loss_hist.observe(event.loss)
            if event.battery_j is not None:
                stats.battery_j.set(event.battery_j)
                self.battery_hist.observe(event.battery_j)
            if event.radio_energy_j is not None:
                stats.radio_energy_j.set(event.radio_energy_j)
        elif isinstance(event, TransmitBatch):
            self.transmits.inc(event.count)
            self.frames_sent.inc(event.attempts)
            self.retransmissions.inc(event.retransmissions)
            self.payloads_delivered.inc(event.delivered)
            self.wire_bytes.inc(event.wire_bytes)
            if event.count:
                self.frames_hist.observe(event.attempts / event.count)
        elif isinstance(event, SegmentFused):
            self.segment_hist.observe(event.successes + event.failures)
        elif isinstance(event, FaultApplied):
            self._cluster(event.cluster).faults.inc()
        elif isinstance(event, ClusterRetired):
            self.retirements[event.reason] = (
                self.retirements.get(event.reason, 0) + 1)
        elif isinstance(event, DeadlineMissed):
            self.deadline_misses.inc()
        elif isinstance(event, SpanClosed):
            hist = self.span_hists.get(event.name)
            if hist is None:
                hist = self.span_hists[event.name] = Histogram(_SPAN_BUCKETS)
            hist.observe(event.elapsed_s)

    # -- snapshots ------------------------------------------------------

    @property
    def radio_energy_j(self) -> float:
        """Fleet-total radio energy (sum of per-cluster cumulative gauges)."""
        return sum(stats.radio_energy_j.value or 0.0
                   for stats in self.clusters.values())

    def flat(self) -> Dict[str, float]:
        """Bench-friendly flat dict of scalar aggregates."""
        out: Dict[str, float] = {
            "transmits": self.transmits.value,
            "frames_sent": self.frames_sent.value,
            "retransmissions": self.retransmissions.value,
            "payloads_delivered": self.payloads_delivered.value,
            "wire_bytes": self.wire_bytes.value,
            "radio_energy_j": self.radio_energy_j,
            "deadline_misses": self.deadline_misses.value,
            "segments": float(self.segment_hist.count),
            "clusters": float(len(self.clusters)),
        }
        for reason, count in sorted(self.retirements.items()):
            out[f"retired_{reason}"] = float(count)
        for name, stats in sorted(self.clusters.items()):
            prefix = f"cluster_{name}"
            out[f"{prefix}_rounds"] = stats.rounds.value
            out[f"{prefix}_delivered"] = stats.delivered.value
            out[f"{prefix}_faults"] = stats.faults.value
            if stats.loss.value is not None:
                out[f"{prefix}_loss"] = stats.loss.value
            if stats.battery_j.value is not None:
                out[f"{prefix}_battery_j"] = stats.battery_j.value
        for name, hist in sorted(self.span_hists.items()):
            out[f"span_{name}_s"] = hist.total
            out[f"span_{name}_calls"] = float(hist.count)
        return out
