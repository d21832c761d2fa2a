#!/usr/bin/env python3
"""Scenario: serving and watching a live fleet run through the control plane.

:mod:`repro.serve` turns a scheduler run from a batch job into a
service: submitted over TCP with its faults declared up front, watched
live, and paused, resumed or cancelled while it trains.  This example
(also CI's control-plane smoke) exercises the whole loop in one
process:

1. host a :class:`~repro.serve.FleetService` +
   :class:`~repro.serve.ControlPlaneServer` on a background thread
   (:func:`~repro.serve.serve_in_thread`);
2. submit a 4-cluster lossy event-engine run **paused**, whose spec
   schedules a brownout on c1 and a ``cluster_death`` on c3 at t=0;
3. subscribe to the run's live event stream over TCP, ``resume``,
   append every received line to ``--out``, and fold the events into
   a :class:`~repro.serve.FleetDashboard`;
4. verify the final :class:`~repro.core.rounds.ScheduleReport`
   reflects both faults, fetch Prometheus metrics, and shut the
   plane down cleanly.

Usage::

    python examples/control_plane.py [--out stream.jsonl]

Set ``REPRO_EXAMPLE_SCALE`` (e.g. 0.05) to shrink the workload — the
CI smoke test runs every example this way.
"""

import argparse
import asyncio
import io
import json
import os
import tempfile

from _scale import scaled

from repro.obs.telemetry import EVENT_TYPES
from repro.serve import ControlPlaneClient, FleetDashboard, serve_in_thread

ROUNDS = scaled(40, 16)

SPEC = {
    "name": "faulted-fleet",
    "clusters": 4,
    "devices": scaled(24, 12),
    "rounds_data": scaled(48, 24),
    "engine": "event",
    "loss": 0.05,
    "retries": 1,
    "recovery": "arq",
    "seed": 7,
    "rounds": ROUNDS,
    "faults": [
        {"time_s": 0.0, "kind": "brownout", "cluster": "c1",
         "magnitude": 0.5},
        {"time_s": 0.0, "kind": "cluster_death", "cluster": "c3"},
    ],
    # Submit paused, so the subscription below is attached before the
    # first event can fire.
    "paused": True,
}


async def drive(box, out_path: str) -> None:
    dashboard = FleetDashboard(stream=io.StringIO(), refresh_s=0.0)
    async with ControlPlaneClient(box.host, box.port) as client, \
            ControlPlaneClient(box.host, box.port) as watcher:
        await client.request("ping")
        reply = await client.request("submit", spec=SPEC)
        run = reply["run"]
        print(f"submitted {run} ({reply['clusters']} clusters, "
              f"{reply['rounds']} rounds, engine={reply['engine']}) — "
              f"state={reply['state']}")

        # Attach the watcher *before* resuming (open_subscription
        # returns once the server confirms), so the stream observes the
        # run's very first events — including both faults firing.
        lines = await watcher.open_subscription(run, metrics_every=50)
        await client.request("resume", run=run)

        # -- watch it run ----------------------------------------------
        events = 0
        done = {}
        with open(out_path, "w", encoding="utf-8") as out:
            async for line in lines:
                out.write(json.dumps(line) + "\n")
                if "event" in line:
                    events += 1
                    payload = dict(line["event"])
                    dashboard.observe_event(
                        EVENT_TYPES[payload.pop("kind")](**payload))
                elif line.get("done"):
                    done = line
        print(f"streamed {events} events over TCP -> {out_path} "
              f"(delivered={done.get('delivered')}, "
              f"dropped={done.get('dropped')}, state={done.get('state')})")
        floor = min(100, 3 * ROUNDS)
        assert events >= floor, f"expected >= {floor} events, got {events}"

        # -- the faults are visible in the final report ----------------
        status = await client.request("status", run=run)
        report = status["report"]
        assert report["faults_applied"] >= 1, report
        assert "c3" in report["dead_clusters"], report
        print(f"report: faults_applied={report['faults_applied']}, "
              f"dead_clusters={report['dead_clusters']}, "
              f"makespan={report['makespan_s']:.3g}s")

        metrics = await client.request("metrics", run=run)
        head = metrics["prometheus"].splitlines()[:3]
        print("prometheus metrics (first lines):")
        for text in head:
            print(f"  {text}")

    print("dashboard final frame:")
    dashboard.stream = io.StringIO()
    dashboard.render()
    print(dashboard.stream.getvalue(), end="")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None,
        help="path for the captured TCP stream (JSONL); default: tempdir")
    args = parser.parse_args()
    out_path = args.out or os.path.join(
        tempfile.mkdtemp(prefix="repro-control-plane-"), "stream.jsonl")

    with serve_in_thread() as box:
        print(f"control plane listening on {box.host}:{box.port}")
        asyncio.run(drive(box, out_path))
    print("control plane shut down cleanly")


if __name__ == "__main__":
    main()
