"""Control-plane tests: bridge backpressure, bit-identity, commands, TCP.

The PR 7 telemetry contract extends to the control plane: hosting a run
under :class:`repro.serve.FleetService` with live TCP subscribers (even
slow, dropping ones) must leave the simulation bit-identical to the
same seed offline — asserted here by digesting the report, every
cluster's RNG state and transmission ledger, and the modeled clock.
No pytest-asyncio in the container: async paths run under plain
``asyncio.run`` wrappers.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import re
import threading
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import (
    JsonlWriter, MetricsCollector, TelemetryBus, read_events,
    render_prometheus,
)
from repro.obs.exporters import _flush_on_exit
from repro.obs.telemetry import (
    ClusterRetired, FaultApplied, RoundCompleted, SpanClosed,
)
from repro.serve import (
    AsyncTelemetryBridge, Command, ControlPlaneClient, EventStream,
    FleetDashboard, FleetService, RunController,
    build_scheduler_from_spec, serve_in_thread,
)
from repro.sim import FaultEvent

# Small but non-trivial: event engine, Bernoulli loss, fused traces.
LOSSY_SPEC = {
    "name": "lossy", "clusters": 2, "devices": 12, "rounds_data": 20,
    "engine": "event", "loss": 0.1, "retries": 1, "seed": 3,
}
# Fault-only fused: lossless channels, a scheduled early fault, fused
# fleet waves between fault horizons.
FAULT_SPEC = {
    "name": "faulty", "clusters": 2, "devices": 12, "rounds_data": 20,
    "engine": "event", "seed": 5,
    "faults": [
        {"time_s": 0.01, "kind": "brownout", "cluster": "c0",
         "magnitude": 0.5},
        {"time_s": 0.02, "kind": "node_death", "cluster": "c1",
         "device": 2},
    ],
}
ROUNDS = 10


def _round_event(i: int) -> RoundCompleted:
    return RoundCompleted(cluster="c0", round=i, delivered=True,
                          loss=0.5 / (i + 1), time_s=float(i))


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def report_digest(report) -> str:
    """Canonical content hash of a report.

    ``json.dumps`` renders floats via ``repr`` (shortest round-trip),
    so two reports hash equal iff every float is bit-equal.
    """
    return _sha(json.dumps(asdict(report), sort_keys=True, default=repr))


def _rng_digest(gen: np.random.Generator) -> str:
    return _sha(json.dumps(gen.bit_generator.state, sort_keys=True,
                           default=int))


def _ledger_digest(ledger) -> str:
    return _sha(repr(ledger.records))


def _digests(scheduler, report):
    return {
        "report": report_digest(report),
        "rng": {c.name: _rng_digest(c.stream_rng)
                for c in scheduler.clusters},
        "ledger": {c.name: _ledger_digest(c.trainer.ledger)
                   for c in scheduler.clusters},
        "clock": {c.name: c.history.times.tolist()
                  for c in scheduler.clusters},
    }


def _offline_digests(spec):
    scheduler = build_scheduler_from_spec(dict(spec))
    return _digests(scheduler, scheduler.run(rounds_per_cluster=ROUNDS))


def _service_digests(spec, capacity=4096):
    """Run the spec under a FleetService with an attached subscriber."""
    async def go():
        service = await FleetService(max_workers=2).start()
        try:
            # Paused submit -> subscribe -> resume: the subscription is
            # attached before the first event can possibly fire.
            handle = service.submit_spec(
                {**spec, "rounds": ROUNDS, "paused": True})
            stream = service.stream_for(handle, capacity=capacity)
            handle.controller.resume()
            await service.wait(handle)
            events = []
            while True:
                event = await stream.next()
                if event is None:
                    break
                events.append(event)
            assert handle.state == "done", handle.error
            return (_digests(handle.scheduler, handle.report),
                    events, stream)
        finally:
            await service.close()
    return asyncio.run(go())


# ----------------------------------------------------------------------
# Bridge: ordering and backpressure
# ----------------------------------------------------------------------
def test_event_stream_delivers_in_order_and_terminates():
    async def go():
        loop = asyncio.get_running_loop()
        stream = EventStream(loop, capacity=64)
        for i in range(10):
            stream.offer(_round_event(i))
        stream.close()
        seen = []
        while True:
            event = await stream.next()
            if event is None:
                break
            seen.append(event.round)
        assert seen == list(range(10))
        assert stream.delivered == 10
        assert stream.dropped == 0
        # Closed and drained: next() keeps returning None.
        assert await stream.next() is None
    asyncio.run(go())


def test_slow_subscriber_drops_are_counted_not_blocking():
    async def go():
        loop = asyncio.get_running_loop()
        bus = TelemetryBus()
        bridge = AsyncTelemetryBridge(bus, loop)
        slow = bridge.stream(capacity=8)
        # The producer burst never blocks: the queue caps at 8 and the
        # remaining 92 offers are shed and counted.
        for i in range(100):
            bus.emit(_round_event(i))
        bridge.close()
        seen = []
        while True:
            event = await slow.next()
            if event is None:
                break
            seen.append(event.round)
        assert seen == list(range(8))   # oldest survive (drop-newest)
        assert slow.dropped == 92
        assert slow.delivered == 8
    asyncio.run(go())


def test_fast_subscriber_sees_every_event_in_order():
    async def go():
        loop = asyncio.get_running_loop()
        bus = TelemetryBus()
        bridge = AsyncTelemetryBridge(bus, loop)
        fast = bridge.stream(capacity=4096)
        total = 500

        def produce():
            for i in range(total):
                bus.emit(_round_event(i))
            bridge.close()

        thread = threading.Thread(target=produce)
        thread.start()
        seen = []
        while True:
            event = await fast.next()
            if event is None:
                break
            seen.append(event.round)
        thread.join()
        assert seen == list(range(total))
        assert fast.dropped == 0
    asyncio.run(go())


def test_bridge_kind_filter_and_late_stream_is_born_closed():
    async def go():
        loop = asyncio.get_running_loop()
        bus = TelemetryBus()
        bridge = AsyncTelemetryBridge(bus, loop)
        only_retire = bridge.stream(kinds=[ClusterRetired.kind])
        bus.emit(_round_event(0))
        bus.emit(ClusterRetired(cluster="c0", reason="test", time_s=1.0))
        bridge.close()
        event = await only_retire.next()
        assert isinstance(event, ClusterRetired)
        assert await only_retire.next() is None
        late = bridge.stream()
        assert late.closed
        assert await late.next() is None
    asyncio.run(go())


# ----------------------------------------------------------------------
# Bit-identity: service-attached runs vs offline
# ----------------------------------------------------------------------
def test_service_hosted_lossy_fused_run_is_bit_identical_offline():
    offline = _offline_digests(LOSSY_SPEC)
    # Tiny capacity: the subscriber drops most of the stream, which
    # must not perturb the run either.
    hosted, events, stream = _service_digests(LOSSY_SPEC, capacity=16)
    assert stream.dropped > 0
    assert len(events) == 16
    assert hosted == offline


def test_service_hosted_fault_only_fused_run_is_bit_identical_offline():
    offline = _offline_digests(FAULT_SPEC)
    hosted, events, _ = _service_digests(FAULT_SPEC)
    assert hosted == offline
    assert any(isinstance(e, FaultApplied) for e in events)


def test_spec_rejects_unknown_keys():
    # "retry" is a typo for "retries": it must fail, not run 1 retry.
    with pytest.raises(ValueError, match="'retry'"):
        build_scheduler_from_spec({**LOSSY_SPEC, "retry": 3})


def test_spec_faults_require_event_engine():
    with pytest.raises(ValueError, match="event"):
        build_scheduler_from_spec({
            "name": "bad", "engine": "sequential",
            "faults": [{"time_s": 1.0, "kind": "brownout",
                        "cluster": "c0", "magnitude": 0.5}]})


# ----------------------------------------------------------------------
# Runtime commands
# ----------------------------------------------------------------------
def test_paused_submit_commands_apply_and_land_in_report():
    async def go():
        service = await FleetService(max_workers=1).start()
        try:
            handle = service.submit_spec(
                {**LOSSY_SPEC, "rounds": ROUNDS, "paused": True})
            controller = handle.controller
            fut_fault = controller.inject_fault(FaultEvent(
                0.0, "brownout", "c0", magnitude=0.5))
            fut_retire = controller.retire_cluster("c1", "test retire")
            stream = service.stream_for(handle)
            controller.resume()
            await service.wait(handle)
            fault_result = fut_fault.result(timeout=5)
            retire_result = fut_retire.result(timeout=5)
            assert fault_result["applied"] == "inject_fault"
            assert retire_result["cluster"] == "c1"
            report = handle.report
            assert report.faults_applied >= 1
            assert report.dead_clusters.get("c1") == "test retire"
            kinds = set()
            while True:
                event = await stream.next()
                if event is None:
                    break
                kinds.add(event.kind)
            assert FaultApplied.kind in kinds
            assert ClusterRetired.kind in kinds
        finally:
            await service.close()
    asyncio.run(go())


def test_cancel_stops_at_boundary_with_partial_report():
    async def go():
        service = await FleetService(max_workers=1).start()
        try:
            handle = service.submit_spec(
                {**LOSSY_SPEC, "rounds": 200, "paused": True})
            handle.controller.cancel()
            await service.wait(handle)
            assert handle.state == "cancelled"
            assert handle.report is not None
            assert sum(handle.report.rounds_per_cluster.values()) < 400
        finally:
            await service.close()
    asyncio.run(go())


def test_ideal_engine_rejects_mutating_commands():
    async def go():
        service = await FleetService(max_workers=1).start()
        try:
            handle = service.submit_spec({
                "name": "ideal", "clusters": 2, "devices": 12,
                "rounds_data": 20, "engine": "sequential", "seed": 1,
                "rounds": ROUNDS, "paused": True})
            future = handle.controller.retire_cluster("c0")
            handle.controller.resume()
            await service.wait(handle)
            assert handle.state == "done"
            with pytest.raises(ValueError, match="event engine"):
                future.result(timeout=5)
        finally:
            await service.close()
    asyncio.run(go())


def test_command_validation_against_fake_surface():
    controller = RunController()
    surface = SimpleNamespace(
        sim=SimpleNamespace(now=2.5),
        scheduler=SimpleNamespace(policy="round_robin"),
        executor=SimpleNamespace(mode="segment", policy="round_robin"),
        states={}, injector=None, budget={})
    with pytest.raises(ValueError, match="loss_priority"):
        controller._apply(Command("set_policy", "loss_priority"), surface)
    with pytest.raises(ValueError, match="unknown policy"):
        controller._apply(Command("set_policy", "nonsense"), surface)
    with pytest.raises(KeyError, match="unknown cluster"):
        controller._apply(Command("retire_cluster", ("cX", "why")), surface)
    result = controller._apply(Command("set_policy", "fifo"), surface)
    assert result == {"applied": "set_policy", "policy": "fifo",
                      "previous": "round_robin", "time_s": 2.5}
    assert surface.scheduler.policy == "fifo"
    assert surface.executor.policy == "fifo"
    with pytest.raises(ValueError, match="unknown command kind"):
        Command("explode")


def test_finish_fails_leftover_command_futures():
    from repro.serve import RunCancelled
    controller = RunController()
    future = controller.retire_cluster("c0")
    controller.finish()
    with pytest.raises(RunCancelled):
        future.result(timeout=1)
    # Submitting after finish fails immediately too.
    with pytest.raises(RunCancelled):
        controller.set_policy("fifo").result(timeout=1)


# ----------------------------------------------------------------------
# TCP protocol end to end
# ----------------------------------------------------------------------
def test_tcp_command_roundtrip_reflected_in_stream_and_report():
    with serve_in_thread(max_workers=1) as box:
        async def drive():
            async with ControlPlaneClient(box.host, box.port) as client, \
                    ControlPlaneClient(box.host, box.port) as watcher:
                assert (await client.request("ping"))["pong"]
                reply = await client.request("submit", spec={
                    **LOSSY_SPEC, "clusters": 4, "rounds": ROUNDS,
                    "paused": True})
                run = reply["run"]
                assert reply["state"] == "paused"
                await client.request(
                    "command", run=run, wait=False,
                    command={"kind": "inject_fault", "fault": "brownout",
                             "cluster": "c1", "magnitude": 0.5})
                await client.request(
                    "command", run=run, wait=False,
                    command={"kind": "retire_cluster", "cluster": "c3",
                             "reason": "tcp retire"})
                # Subscribe before resume (eager handshake) so the very
                # first events — the commands landing — are observed.
                lines = await watcher.open_subscription(
                    run, metrics_every=25)
                await client.request("resume", run=run)
                kinds, done = set(), {}
                async for line in lines:
                    if "event" in line:
                        kinds.add(line["event"]["kind"])
                    elif "metrics_snapshot" in line:
                        assert "transmits" in line["metrics_snapshot"]
                    elif line.get("done"):
                        done = line
                assert done["state"] == "done"
                assert done["dropped"] == 0
                assert FaultApplied.kind in kinds
                assert ClusterRetired.kind in kinds
                status = await client.request("status", run=run)
                report = status["report"]
                assert report["faults_applied"] >= 1
                assert report["dead_clusters"].get("c3") == "tcp retire"
                listing = await client.request("list")
                assert [r["run"] for r in listing["runs"]] == [run]
                metrics = await client.request("metrics", run=run)
                assert "# TYPE repro_transmits_total counter" \
                    in metrics["prometheus"]
        asyncio.run(drive())


def test_tcp_error_replies_keep_connection_alive():
    with serve_in_thread(max_workers=1) as box:
        async def drive():
            async with ControlPlaneClient(box.host, box.port) as client:
                with pytest.raises(RuntimeError, match="unknown op"):
                    await client.request("explode")
                with pytest.raises(RuntimeError, match="unknown run"):
                    await client.request("status", run="run-99")
                with pytest.raises(RuntimeError, match="missing 'run'"):
                    await client.request("cancel")
                # Connection still serves after three error replies.
                assert (await client.request("ping"))["pong"]
        asyncio.run(drive())


# ----------------------------------------------------------------------
# Prometheus exposition (satellite 1)
# ----------------------------------------------------------------------
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*\})?"
    r" (-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|NaN|[+-]Inf)$")


def _lossy_collector():
    bus = TelemetryBus()
    collector = MetricsCollector(bus)
    scheduler = build_scheduler_from_spec(dict(LOSSY_SPEC), telemetry=bus)
    scheduler.run(rounds_per_cluster=ROUNDS)
    return collector


def test_render_prometheus_matches_exposition_grammar():
    text = render_prometheus(_lossy_collector())
    assert text.endswith("\n")
    typed = set()
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", parts[2]), line
            if parts[1] == "TYPE":
                assert parts[3] in ("counter", "gauge", "histogram"), line
                typed.add(parts[2])
            continue
        match = _PROM_SAMPLE.fullmatch(line)
        assert match, f"bad sample line: {line!r}"
        name = match.group(1)
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or family in typed, \
            f"sample before its TYPE: {line!r}"


def test_render_prometheus_histograms_are_cumulative():
    text = render_prometheus(_lossy_collector())
    buckets = re.findall(
        r'^repro_round_loss_bucket\{le="([^"]+)"\} (\d+)$', text, re.M)
    assert buckets, "round_loss histogram missing"
    counts = [int(v) for _, v in buckets]
    assert counts == sorted(counts), "buckets must be cumulative"
    assert buckets[-1][0] == "+Inf"
    total = int(re.search(r"^repro_round_loss_count (\d+)$", text,
                          re.M).group(1))
    assert counts[-1] == total
    # Per-cluster labelled gauges made it out too.
    assert re.search(r'^repro_cluster_rounds_total\{cluster="c0"\} \d+$',
                     text, re.M)


def test_render_prometheus_from_flat_mapping():
    text = render_prometheus({"wire_bytes": 1234, "weird name!": 1.5})
    assert "repro_wire_bytes 1234" in text
    assert "repro_weird_name_ 1.5" in text
    assert render_prometheus({}) == ""


# ----------------------------------------------------------------------
# JSONL follow mode + atexit flush (satellites 2 and 3)
# ----------------------------------------------------------------------
def test_read_events_follow_handles_partial_trailing_lines(tmp_path):
    path = tmp_path / "tail.jsonl"
    first = json.dumps(_round_event(0).as_dict())
    second = json.dumps(_round_event(1).as_dict())
    third = json.dumps(_round_event(2).as_dict())
    path.write_text(first + "\n" + second + "\n" + third[:10])

    stopping = False
    reader = read_events(path, follow=True, poll_s=0.01,
                         stop=lambda: stopping)
    assert next(reader).round == 0
    assert next(reader).round == 1
    # The partial third line stays buffered until its newline arrives.
    with open(path, "a") as handle:
        handle.write(third[10:] + "\n")
    assert next(reader).round == 2
    stopping = True
    with pytest.raises(StopIteration):
        next(reader)


def test_read_events_follow_stop_does_one_final_read(tmp_path):
    path = tmp_path / "tail.jsonl"
    path.write_text("")
    stopping = False
    reader = read_events(path, follow=True, poll_s=0.01,
                         stop=lambda: stopping)
    # Append and stop before the reader ever polls: the final read
    # still surfaces the event.
    path.write_text(json.dumps(_round_event(7).as_dict()) + "\n")
    stopping = True
    assert next(reader).round == 7
    with pytest.raises(StopIteration):
        next(reader)


def test_jsonl_writer_flushes_at_exit_and_unregisters_on_close(tmp_path):
    import weakref
    path = tmp_path / "events.jsonl"
    bus = TelemetryBus()
    writer = JsonlWriter(path, bus)
    bus.emit(_round_event(0))
    # Simulate interpreter exit before close: the atexit hook flushes
    # the buffered line to disk.
    _flush_on_exit(weakref.ref(writer))
    assert len(list(read_events(path))) == 1
    writer.close()
    # After close the weakref'd hook is a no-op (and unregistered).
    _flush_on_exit(weakref.ref(writer))
    assert len(list(read_events(path))) == 1


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
def test_dashboard_renders_sparkline_timeline_and_spans():
    out = io.StringIO()
    bus = TelemetryBus()
    dashboard = FleetDashboard(bus, stream=out, refresh_s=0.0)
    rng = np.random.default_rng(0)
    for i in range(12):
        bus.emit(RoundCompleted(cluster="c0", round=i, delivered=True,
                                loss=float(rng.uniform(0.1, 0.9)),
                                time_s=float(i), battery_j=100.0 - i,
                                radio_energy_j=0.01 * (i + 1)))
    bus.emit(FaultApplied(cluster="c0", fault="brownout", time_s=6.0))
    bus.emit(ClusterRetired(cluster="c1", reason="quorum", time_s=8.0))
    bus.emit(SpanClosed(name="execute", elapsed_s=0.25, depth=0))
    bus.emit(SpanClosed(name="execute", elapsed_s=0.15, depth=0))
    frame = out.getvalue()
    assert any(ch in frame for ch in FleetDashboard.SPARK)
    assert "fault brownout on c0" in frame
    assert "retired c1 (quorum)" in frame
    assert dashboard.span_totals["execute"] == pytest.approx(0.40)
    assert "execute" in frame
    assert dashboard.events_seen == 16


def test_dashboard_main_follow_mode(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as handle:
        for i in range(5):
            handle.write(json.dumps(_round_event(i).as_dict()) + "\n")
    from repro.serve.dashboard import main
    import contextlib
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--follow", str(path), "--max-events", "5",
                     "--refresh", "0"])
    assert code == 0
    assert "c0" in out.getvalue()
