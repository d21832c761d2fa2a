"""`repro.obs.exporters` — JSONL event logs, tables, Prometheus text.

* :class:`JsonlWriter` — a bus subscriber that streams every event to
  a JSON-Lines file (one ``{"kind": ..., ...}`` object per line);
* :func:`read_events` — the matching reader, reconstructing the typed
  event objects via :data:`~repro.obs.telemetry.EVENT_TYPES`; pass
  ``follow=True`` to tail a growing log (live dashboards);
* :func:`summary_table` — end-of-run per-cluster table rendered from a
  :class:`~repro.obs.metrics.MetricsCollector`;
* :func:`render_prometheus` — Prometheus text exposition of a
  :class:`~repro.obs.metrics.MetricsCollector` (or any flat dict),
  served by the control plane's ``metrics`` request;
* ``MetricsCollector.flat()`` (in :mod:`repro.obs.metrics`) is the
  bench-friendly flat-dict exporter.
"""

from __future__ import annotations

import atexit
import functools
import json
import re
import time
import weakref
from pathlib import Path
from typing import (
    IO, Callable, Iterator, List, Mapping, Optional, Sequence, Union,
)

from typing import Dict, Tuple

from .metrics import Histogram, MetricsCollector
from .telemetry import EVENT_TYPES, TelemetryBus, TelemetryEvent

__all__ = ["JsonlWriter", "read_events", "render_prometheus",
           "summary_table"]

#: One shared compact encoder — ``json.dumps(obj, separators=...)``
#: builds a fresh ``JSONEncoder`` per call.  Used as the slow-path
#: fallback for non-scalar field values (the generic case).
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: Escaped-string cache for the fast line encoder.  Event strings come
#: from small per-run vocabularies (cluster names, fault kinds, span
#: names, retirement reasons), so caching their JSON form amortises the
#: escape scan to a dict lookup.  Bounded as a guard against a
#: pathological high-cardinality producer.
_STRING_CACHE: Dict[str, str] = {}
_STRING_CACHE_MAX = 4096

#: Per event class: precomputed ``{"kind":...,"field":`` key prefixes in
#: field order, so serialising an event is just interleaving cached
#: prefixes with encoded values.
_CLASS_PREFIXES: Dict[type, Tuple[str, ...]] = {}


def _encode_str(value: str) -> str:
    cached = _STRING_CACHE.get(value)
    if cached is None:
        cached = _ENCODER.encode(value)
        if len(_STRING_CACHE) < _STRING_CACHE_MAX:
            _STRING_CACHE[value] = cached
    return cached


def _encode_value(value: object) -> str:
    # Exact-class checks: ``bool`` is an ``int`` subclass, and numpy
    # scalars masquerade as numbers but need the generic fallback.
    cls = value.__class__
    if cls is float:
        return repr(value)
    if cls is int:
        return repr(value)
    if cls is str:
        return _encode_str(value)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return _ENCODER.encode(value)


def _encode_event(event: TelemetryEvent) -> str:
    """One compact JSON line for ``event`` (no trailing newline).

    Equivalent to ``_ENCODER.encode(event.as_dict())`` but ~3x cheaper:
    key prefixes are precomputed per event class and repeated strings
    hit :data:`_STRING_CACHE`, which is what keeps enabled-JSONL
    overhead inside the benched budget (see ``bench_resilience.py``).
    """
    fields = event.__dict__
    cls = event.__class__
    if not fields:
        return f'{{"kind":{_ENCODER.encode(cls.kind)}}}'
    prefixes = _CLASS_PREFIXES.get(cls)
    if prefixes is None:
        prefixes = tuple(
            (f'{{"kind":{_ENCODER.encode(cls.kind)},"{name}":'
             if index == 0 else f',"{name}":')
            for index, name in enumerate(fields))
        _CLASS_PREFIXES[cls] = prefixes
    parts = []
    for prefix, value in zip(prefixes, fields.values()):
        parts.append(prefix)
        parts.append(_encode_value(value))
    parts.append("}")
    return "".join(parts)


def _flush_on_exit(ref: "weakref.ref[JsonlWriter]") -> None:
    writer = ref()
    if writer is not None and writer._handle is not None:
        writer.flush()


class JsonlWriter:
    """Streams bus events to a JSON-Lines file.

    The writer is **write-behind**: events are appended to an in-memory
    buffer on the hot path and bulk-encoded to the file whenever the
    buffer reaches ``flush_every`` events (and at :meth:`flush` /
    :meth:`close`).  Bulk encoding in one tight loop is measurably
    cheaper than encoding inline between simulation steps, which is
    what keeps enabled-telemetry overhead inside the benched budget
    (see ``bench_resilience.py``).  Use as a context manager, or call
    :meth:`close` when the run finishes::

        bus = TelemetryBus()
        with JsonlWriter(path, bus):
            scheduler = EdgeTrainingScheduler(..., telemetry=bus)
            scheduler.run(...)

    An ``atexit`` hook flushes any still-open writer at interpreter
    shutdown, so buffered events survive an interrupted experiment even
    when :meth:`close` never runs (the hook holds only a weakref and is
    unregistered by :meth:`close`, so writers stay collectable).

    Pass ``flush_every=1`` to trade overhead for a tail-able file that
    is current after every event (live dashboards; crash forensics).
    """

    def __init__(self, path: Union[str, Path],
                 bus: Optional[TelemetryBus] = None,
                 flush_every: int = 4096) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self._handle: Optional[IO[str]] = open(self.path, "w")
        self._buffer: List[TelemetryEvent] = []
        self._flush_every = flush_every
        self.events_written = 0
        self._unsubscribe = None
        if bus is not None:
            self._unsubscribe = bus.subscribe(self.write_event)
        # A unique partial per writer makes ``atexit.unregister`` exact
        # (unregistering one writer cannot drop another's hook).
        self._atexit_cb = functools.partial(_flush_on_exit,
                                            weakref.ref(self))
        atexit.register(self._atexit_cb)

    def write_event(self, event: TelemetryEvent) -> None:
        if self._handle is None:
            raise ValueError(f"JsonlWriter({self.path}) is closed")
        self._buffer.append(event)
        self.events_written += 1
        if len(self._buffer) >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Drain the buffer to disk (one bulk encode + one write)."""
        if self._handle is None:
            raise ValueError(f"JsonlWriter({self.path}) is closed")
        if self._buffer:
            encode = _encode_event
            self._handle.write(
                "".join([encode(event) + "\n" for event in self._buffer]))
            self._buffer.clear()
        self._handle.flush()

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._handle is not None:
            atexit.unregister(self._atexit_cb)
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: Union[str, Path], follow: bool = False,
                poll_s: float = 0.2,
                stop: Optional[Callable[[], bool]] = None
                ) -> Iterator[TelemetryEvent]:
    """Yield typed events back from a :class:`JsonlWriter` log.

    Unknown kinds (from a newer writer) raise ``KeyError`` — logs are a
    contract, not a best-effort stream.

    With ``follow=True`` the reader replays the file then **tails** it:
    it keeps polling (every ``poll_s`` seconds) for lines a live
    :class:`JsonlWriter` appends, buffering partial trailing lines
    until their newline arrives.  The generator runs until ``stop()``
    returns True — it performs one final read after observing the stop
    so nothing flushed before the flag flipped is missed — or until the
    consumer abandons it.
    """
    def parse(line: str) -> TelemetryEvent:
        payload = json.loads(line)
        cls = EVENT_TYPES[payload.pop("kind")]
        return cls(**payload)

    if not follow:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield parse(line)
        return

    buffer = ""
    with open(path) as handle:
        while True:
            stopping = stop is not None and stop()
            chunk = handle.read()
            if chunk:
                buffer += chunk
                complete, sep, buffer = buffer.rpartition("\n")
                if sep:
                    for line in complete.split("\n"):
                        line = line.strip()
                        if line:
                            yield parse(line)
            elif stopping:
                return
            else:
                time.sleep(poll_s)


def summary_table(collector: MetricsCollector) -> str:
    """End-of-run per-cluster health table (plain text).

    One row per cluster: rounds, delivered share, faults, last loss,
    battery; a footer totals channel traffic and span wall time.
    """
    lines: List[str] = []
    header = (f"{'cluster':<12} {'rounds':>6} {'deliv':>6} {'faults':>6} "
              f"{'loss':>10} {'battery J':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, stats in sorted(collector.clusters.items()):
        loss = (f"{stats.loss.value:.4g}"
                if stats.loss.value is not None else "-")
        battery = (f"{stats.battery_j.value:.3f}"
                   if stats.battery_j.value is not None else "-")
        lines.append(
            f"{name:<12} {stats.rounds.value:>6.0f} "
            f"{stats.delivered.value:>6.0f} {stats.faults.value:>6.0f} "
            f"{loss:>10} {battery:>10}")
    lines.append("-" * len(header))
    lines.append(
        f"transmits {collector.transmits.value:.0f} | "
        f"frames {collector.frames_sent.value:.0f} | "
        f"radio {collector.radio_energy_j:.4g} J | "
        f"deadline misses {collector.deadline_misses.value:.0f}")
    if collector.retirements:
        retired = ", ".join(f"{reason}: {count}" for reason, count
                            in sorted(collector.retirements.items()))
        lines.append(f"retired — {retired}")
    if collector.span_hists:
        spans = ", ".join(
            f"{name} {hist.total:.3f}s/{hist.count}"
            for name, hist in sorted(collector.span_hists.items()))
        lines.append(f"spans — {spans}")
    return "\n".join(lines)


# -- Prometheus text exposition -----------------------------------------

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(namespace: str, name: str) -> str:
    full = f"{namespace}_{name}" if namespace else name
    full = _METRIC_NAME_RE.sub("_", full)
    if full[0].isdigit():
        full = "_" + full
    return full


def _prom_escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_prom_escape(value)}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _prom_family(lines: List[str], name: str, mtype: str, help_text: str,
                 samples: Sequence[Tuple[Mapping[str, str], float]]) -> None:
    if not samples:
        return
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {mtype}")
    for labels, value in samples:
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(value)}")


def _prom_histogram(lines: List[str], name: str, help_text: str,
                    items: Sequence[Tuple[Mapping[str, str], Histogram]]
                    ) -> None:
    """One histogram family; buckets rendered cumulatively per spec."""
    items = [(labels, hist) for labels, hist in items if hist.count]
    if not items:
        return
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} histogram")
    for labels, hist in items:
        cumulative = 0
        for edge, count in zip(hist.edges, hist.counts):
            cumulative += count
            bucket = dict(labels)
            bucket["le"] = _prom_value(edge)
            lines.append(f"{name}_bucket{_prom_labels(bucket)} {cumulative}")
        cumulative += hist.counts[-1]
        bucket = dict(labels)
        bucket["le"] = "+Inf"
        lines.append(f"{name}_bucket{_prom_labels(bucket)} {cumulative}")
        lines.append(f"{name}_sum{_prom_labels(labels)} "
                     f"{_prom_value(hist.total)}")
        lines.append(f"{name}_count{_prom_labels(labels)} {cumulative}")


def render_prometheus(source: Union[MetricsCollector, Mapping[str, float]],
                      namespace: str = "repro") -> str:
    """Prometheus text exposition (version 0.0.4) of run metrics.

    Accepts a live :class:`~repro.obs.metrics.MetricsCollector` — the
    rich path, emitting typed counter/gauge/histogram families with
    per-cluster, per-reason, and per-span labels — or any flat mapping
    of scalars (e.g. ``collector.flat()``), rendered as gauges.  The
    control plane serves this at its ``metrics`` request; the output
    ends with a trailing newline as scrapers expect.
    """
    lines: List[str] = []
    if not isinstance(source, MetricsCollector):
        for key, value in sorted(source.items()):
            _prom_family(lines, _prom_name(namespace, key), "gauge",
                         f"flat metric {key}", [({}, float(value))])
        return "\n".join(lines) + "\n" if lines else ""

    collector = source

    def n(name: str) -> str:
        return _prom_name(namespace, name)

    _prom_family(lines, n("transmits_total"), "counter",
                 "Payload transmissions attempted",
                 [({}, collector.transmits.value)])
    _prom_family(lines, n("frames_sent_total"), "counter",
                 "Radio frames sent including retransmissions",
                 [({}, collector.frames_sent.value)])
    _prom_family(lines, n("retransmissions_total"), "counter",
                 "ARQ retransmissions",
                 [({}, collector.retransmissions.value)])
    _prom_family(lines, n("payloads_delivered_total"), "counter",
                 "Payloads delivered end to end",
                 [({}, collector.payloads_delivered.value)])
    _prom_family(lines, n("wire_bytes_total"), "counter",
                 "Bytes put on the wire",
                 [({}, collector.wire_bytes.value)])
    _prom_family(lines, n("deadline_misses_total"), "counter",
                 "Rounds first finishing past their deadline",
                 [({}, collector.deadline_misses.value)])
    _prom_family(lines, n("radio_energy_joules"), "gauge",
                 "Fleet-total cumulative radio energy",
                 [({}, collector.radio_energy_j)])
    _prom_family(lines, n("clusters"), "gauge",
                 "Clusters observed in the event stream",
                 [({}, float(len(collector.clusters)))])
    _prom_family(
        lines, n("retired_total"), "counter",
        "Clusters permanently retired, by reason",
        [({"reason": reason}, float(count))
         for reason, count in sorted(collector.retirements.items())])

    ordered = sorted(collector.clusters.items())
    _prom_family(lines, n("cluster_rounds_total"), "counter",
                 "Training rounds charged per cluster",
                 [({"cluster": name}, stats.rounds.value)
                  for name, stats in ordered])
    _prom_family(lines, n("cluster_delivered_total"), "counter",
                 "Delivered rounds per cluster",
                 [({"cluster": name}, stats.delivered.value)
                  for name, stats in ordered])
    _prom_family(lines, n("cluster_faults_total"), "counter",
                 "Faults applied per cluster",
                 [({"cluster": name}, stats.faults.value)
                  for name, stats in ordered])
    _prom_family(lines, n("cluster_loss"), "gauge",
                 "Last observed reconstruction loss (NMSE proxy)",
                 [({"cluster": name}, stats.loss.value)
                  for name, stats in ordered
                  if stats.loss.value is not None])
    _prom_family(lines, n("cluster_battery_joules"), "gauge",
                 "Last observed battery headroom",
                 [({"cluster": name}, stats.battery_j.value)
                  for name, stats in ordered
                  if stats.battery_j.value is not None])

    _prom_histogram(lines, n("round_loss"),
                    "Per-round reconstruction loss",
                    [({}, collector.loss_hist)])
    _prom_histogram(lines, n("battery_joules"),
                    "Battery headroom at round completion",
                    [({}, collector.battery_hist)])
    _prom_histogram(lines, n("frames_per_transmit"),
                    "Radio frames per payload transmission",
                    [({}, collector.frames_hist)])
    _prom_histogram(lines, n("segment_rounds"),
                    "Rounds fused per planner segment",
                    [({}, collector.segment_hist)])
    _prom_histogram(lines, n("span_seconds"),
                    "Wall-clock phase timings, by span name",
                    [({"name": name}, hist)
                     for name, hist in sorted(collector.span_hists.items())])
    return "\n".join(lines) + "\n" if lines else ""
