"""`repro.serve.dashboard` — live fleet dashboard over the control plane.

:class:`FleetDashboard` extends :class:`~repro.obs.console.LiveConsole`
with loss-trend sparklines per cluster, cumulative radio energy, a
fault/retirement/deadline timeline, and span-derived wall-clock phase
timings.  Like its base it is a pure fold over the event stream — no
simulation state, injectable output stream, testable on a StringIO.

Runnable against either a control-plane server or a JSONL file::

    python -m repro.serve.dashboard --connect 127.0.0.1:7787 --run run-1
    python -m repro.serve.dashboard --follow out/telemetry.jsonl
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from collections import deque
from typing import IO, Deque, Dict, Optional

from ..obs.console import LiveConsole
from ..obs.exporters import read_events
from ..obs.telemetry import (
    EVENT_TYPES, ClusterRetired, DeadlineMissed, FaultApplied,
    RoundCompleted, SpanClosed, TelemetryBus, TelemetryEvent,
)
from .protocol import ControlPlaneClient

__all__ = ["FleetDashboard", "main"]


class FleetDashboard(LiveConsole):
    """LiveConsole plus trends, timeline, and phase timings."""

    KINDS = LiveConsole.KINDS + (SpanClosed.kind,)
    SPARK = "▁▂▃▄▅▆▇█"

    def __init__(self, bus: Optional[TelemetryBus] = None,
                 stream: Optional[IO[str]] = None,
                 refresh_s: float = 0.5,
                 spark_window: int = 32,
                 timeline_length: int = 8) -> None:
        # Own state must exist before super() subscribes observe_event.
        self._spark_window = spark_window
        self._loss_series: Dict[str, Deque[float]] = {}
        self._energy: Dict[str, float] = {}
        self.timeline: Deque[str] = deque(maxlen=timeline_length)
        self.span_totals: Dict[str, float] = {}
        self.events_seen = 0
        super().__init__(bus=bus, stream=stream, refresh_s=refresh_s)

    # -- event fold -------------------------------------------------------

    def observe_event(self, event: TelemetryEvent) -> None:
        self.events_seen += 1
        if isinstance(event, RoundCompleted):
            if event.loss is not None:
                series = self._loss_series.get(event.cluster)
                if series is None:
                    series = self._loss_series[event.cluster] = deque(
                        maxlen=self._spark_window)
                series.append(event.loss)
            if event.radio_energy_j is not None:
                self._energy[event.cluster] = event.radio_energy_j
        elif isinstance(event, FaultApplied):
            self.timeline.append(
                f"t={event.time_s:10.2f}s  fault {event.fault} "
                f"on {event.cluster}")
        elif isinstance(event, ClusterRetired):
            self.timeline.append(
                f"t={event.time_s:10.2f}s  retired {event.cluster} "
                f"({event.reason})")
        elif isinstance(event, DeadlineMissed):
            self.timeline.append(
                f"t={event.finish_s:10.2f}s  deadline missed by "
                f"{event.cluster} at round {event.round}")
        elif isinstance(event, SpanClosed):
            self.span_totals[event.name] = (
                self.span_totals.get(event.name, 0.0) + event.elapsed_s)
        # Base fold updates the health rows and throttles the repaint
        # (its isinstance chain simply ignores span events).
        super().observe_event(event)

    def _sparkline(self, values: Deque[float]) -> str:
        if not values:
            return "-"
        lo, hi = min(values), max(values)
        if hi <= lo:
            return self.SPARK[0] * len(values)
        scale = (len(self.SPARK) - 1) / (hi - lo)
        return "".join(self.SPARK[int((v - lo) * scale)] for v in values)

    # -- rendering --------------------------------------------------------

    def render(self) -> None:
        lines = [
            f"{'cluster':<12} {'round':>6} {'loss':>10} {'battery J':>10} "
            f"{'radio J':>9} {'faults':>6}  {'loss trend':<{self._spark_window}}"
            "  status"
        ]
        for name, row in sorted(self.rows.items()):
            loss = f"{row.loss:.4g}" if row.loss is not None else "-"
            battery = (f"{row.battery_j:.3f}"
                       if row.battery_j is not None else "-")
            energy = (f"{self._energy[name]:.3f}"
                      if name in self._energy else "-")
            spark = self._sparkline(self._loss_series.get(name, deque()))
            lines.append(
                f"{name:<12} {row.round:>6} {loss:>10} {battery:>10} "
                f"{energy:>9} {row.faults:>6}  "
                f"{spark:<{self._spark_window}}  {row.status}")
        if self.timeline:
            lines.append("-- timeline --")
            lines.extend(f"  {entry}" for entry in self.timeline)
        if self.span_totals:
            lines.append("-- phase timings (wall-clock s) --")
            for name, total in sorted(self.span_totals.items(),
                                      key=lambda item: -item[1]):
                lines.append(f"  {name:<32} {total:10.4f}")
        self.stream.write("\n".join(lines) + "\n")
        self.renders += 1


def _event_from_wire(payload: Dict[str, object]) -> TelemetryEvent:
    fields = dict(payload)
    kind = str(fields.pop("kind"))
    return EVENT_TYPES[kind](**fields)


async def _run_connected(args: argparse.Namespace,
                         dashboard: FleetDashboard) -> int:
    host, _, port = args.connect.rpartition(":")
    async with ControlPlaneClient(host or "127.0.0.1", int(port)) as client:
        run = args.run
        if run is None:
            runs = (await client.request("list"))["runs"]
            if not runs:
                print("no runs registered on the control plane",
                      file=sys.stderr)
                return 1
            run = runs[-1]["run"]
        kinds = args.kinds.split(",") if args.kinds else list(
            FleetDashboard.KINDS)
        async for line in client.subscribe(run, kinds=kinds,
                                           max_events=args.max_events):
            if "event" in line:
                dashboard.observe_event(_event_from_wire(line["event"]))
            elif line.get("done"):
                dashboard.render()
                print(f"run {run}: state={line['state']} "
                      f"events={line['events']} dropped={line['dropped']}",
                      file=dashboard.stream)
    return 0


def _run_follow(args: argparse.Namespace,
                dashboard: FleetDashboard) -> int:
    def stop() -> bool:
        return bool(args.max_events
                    and dashboard.events_seen >= args.max_events)

    for event in read_events(args.follow, follow=True, stop=stop):
        if args.kinds and event.kind not in args.kinds.split(","):
            continue
        dashboard.observe_event(event)
        if stop():
            break
    dashboard.render()
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.dashboard",
        description="Live fleet dashboard (control plane or JSONL tail).")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--connect", metavar="HOST:PORT",
                        help="subscribe to a control-plane server")
    source.add_argument("--follow", metavar="FILE",
                        help="tail a telemetry JSONL file")
    parser.add_argument("--run", default=None,
                        help="run id to watch (default: latest)")
    parser.add_argument("--kinds", default=None,
                        help="comma-separated event kinds filter")
    parser.add_argument("--refresh", type=float, default=0.5,
                        help="minimum seconds between repaints")
    parser.add_argument("--max-events", type=int, default=0,
                        help="stop after N events (0 = run until done)")
    args = parser.parse_args(argv)

    dashboard = FleetDashboard(stream=sys.stdout, refresh_s=args.refresh)
    if args.connect:
        return asyncio.run(_run_connected(args, dashboard))
    return _run_follow(args, dashboard)


if __name__ == "__main__":
    raise SystemExit(main())
