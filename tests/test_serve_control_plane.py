"""Control-plane tests: bridge backpressure, bit-identity, pause/cancel, TCP.

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
import contextlib
import hashlib
import io
import json
import re
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.obs import (
    JsonlWriter, MetricsCollector, TelemetryBus, read_events,
    render_prometheus,
)
from repro.obs.exporters import _flush_on_exit
from repro.obs.telemetry import (
    ClusterRetired, FaultApplied, RoundCompleted, SegmentFused, SpanClosed,
)
from repro.serve import (
    AsyncTelemetryBridge, ControlPlaneClient, EventStream,
    FleetDashboard, FleetService, RunController,
    build_scheduler_from_spec, serve_in_thread,
)

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
IDEAL_SPEC = {
    "name": "ideal", "clusters": 2, "devices": 12, "rounds_data": 20,
    "engine": "sequential", "seed": 1,
}
# Fused lossy run with one scheduled fault mid-run: the cancel-clamp
# tests cancel when it fires.
CLAMP_SPEC = {
    "name": "clamp", "clusters": 3, "devices": 12, "rounds_data": 20,
    "engine": "event", "loss": 0.1, "retries": 1, "seed": 3,
    "faults": [{"time_s": 0.1, "kind": "straggler", "cluster": "c0",
                "magnitude": 2.0}],
}
CLAMP_ROUNDS = 30


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
# Pause and cancel
# ----------------------------------------------------------------------
def _wait_until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


def test_cancel_stops_at_boundary_with_partial_report():
    async def go():
        service = await FleetService(max_workers=1).start()
        try:
            handle = service.submit_spec(
                {**LOSSY_SPEC, "rounds": 200, "paused": True})
            handle.controller.cancel()
            assert handle.describe()["state"] != "paused"   # it drains
            await service.wait(handle)
            assert handle.state == "cancelled"
            assert handle.report is not None
            assert sum(handle.report.rounds_per_cluster.values()) < 400
        finally:
            await service.close()
    asyncio.run(go())


def test_paused_submit_starts_only_once_resumed():
    """Nothing runs before resume, not even the trace recording and the
    t=0 faults that precede the event engine's first round boundary."""
    async def go():
        service = await FleetService(max_workers=1).start()
        try:
            handle = service.submit_spec({
                **LOSSY_SPEC, "rounds": ROUNDS, "paused": True,
                "faults": [{"time_s": 0.0, "kind": "brownout",
                            "cluster": "c0", "magnitude": 0.5}]})
            events = []
            handle.bus.subscribe(events.append)
            await asyncio.sleep(0.05)
            assert events == []
            handle.controller.resume()
            await service.wait(handle)
            assert handle.state == "done", handle.error
            assert any(isinstance(e, FaultApplied) for e in events)
        finally:
            await service.close()
    asyncio.run(go())


def test_describe_reports_pause_from_the_controller():
    """Pausing and resuming through the Python API shows in describe():
    ``state`` keeps the lifecycle, the controller says "paused"."""
    async def go():
        service = await FleetService(max_workers=1).start()
        try:
            handle = service.submit_spec(
                {**IDEAL_SPEC, "rounds": ROUNDS, "paused": True})
            assert handle.describe()["state"] == "paused"
            controller = handle.controller
            seen = []

            def on_round(event):
                # Runs on the simulation thread, mid-run.
                seen.append(handle.describe()["state"])
                if len(seen) == 3:
                    controller.pause()

            handle.bus.subscribe(on_round, kinds=[RoundCompleted.kind])
            controller.resume()
            deadline = time.monotonic() + 30.0
            while len(seen) < 3:
                assert time.monotonic() < deadline, "run never resumed"
                await asyncio.sleep(0.002)
            assert handle.describe()["state"] == "paused"
            await asyncio.sleep(0.05)
            assert len(seen) == 3            # held at the next boundary
            controller.resume()
            await service.wait(handle)
            assert seen == ["running"] * (2 * ROUNDS)
            assert handle.describe()["state"] == "done"
        finally:
            await service.close()
    asyncio.run(go())


def test_sequential_run_honours_pause_and_cancel():
    """The ideal loop's checkpoint: a pause holds the run between
    rounds, and a cancel stops it at the next boundary."""
    reference = build_scheduler_from_spec(dict(IDEAL_SPEC))
    reference.run(rounds_per_cluster=ROUNDS)
    bus = TelemetryBus()
    controller = RunController()
    scheduler = build_scheduler_from_spec(dict(IDEAL_SPEC), telemetry=bus,
                                          control=controller)
    seen = []

    def on_round(event):
        seen.append(event)
        if len(seen) == 3:
            controller.pause()
        elif len(seen) == 7:
            controller.cancel()

    bus.subscribe(on_round, kinds=[RoundCompleted.kind])
    result = {}
    thread = threading.Thread(target=lambda: result.setdefault(
        "report", scheduler.run(rounds_per_cluster=ROUNDS)))
    thread.start()
    try:
        _wait_until(lambda: len(seen) == 3)
        time.sleep(0.05)
        assert len(seen) == 3 and thread.is_alive()
    finally:
        controller.resume()
        thread.join(timeout=60)
    assert not thread.is_alive()
    report = result["report"]
    assert sum(report.rounds_per_cluster.values()) == 7
    for cut, full in zip(scheduler.clusters, reference.clusters):
        losses = cut.history.losses
        assert np.array_equal(losses, full.history.losses[:len(losses)])


def test_cancel_clamps_the_fused_planner():
    """A cancel raised mid-run drains fused work through the planner's
    "command-pending" clamp and leaves a prefix of the uncancelled
    run."""
    reference = build_scheduler_from_spec(dict(CLAMP_SPEC))
    reference.run(rounds_per_cluster=CLAMP_ROUNDS)
    bus = TelemetryBus()
    controller = RunController()
    scheduler = build_scheduler_from_spec(dict(CLAMP_SPEC), telemetry=bus,
                                          control=controller)
    bus.subscribe(lambda event: controller.cancel(),
                  kinds=[FaultApplied.kind])
    bounds = []
    bus.subscribe(lambda event: bounds.append(event.bound),
                  kinds=[SegmentFused.kind])
    report = scheduler.run(rounds_per_cluster=CLAMP_ROUNDS)  # finalizes
    assert "command-pending" in bounds
    assert report.fused_rounds > 0
    total = sum(report.rounds_per_cluster.values())
    assert 0 < total < len(scheduler.clusters) * CLAMP_ROUNDS
    for cut, full in zip(scheduler.clusters, reference.clusters):
        losses = cut.history.losses
        assert np.array_equal(losses, full.history.losses[:len(losses)])


def test_cancel_inside_a_fused_segment_drains_it():
    """A cancel at the first round of a pre-executed segment stops the
    run only where the segment ends, so ``finalize`` finds nothing
    left over."""
    bus = TelemetryBus()
    controller = RunController()
    scheduler = build_scheduler_from_spec(dict(CLAMP_SPEC), telemetry=bus,
                                          control=controller)
    bus.subscribe(lambda event: controller.cancel(),
                  kinds=[RoundCompleted.kind])
    plans = []
    bus.subscribe(plans.append, kinds=[SegmentFused.kind])
    report = scheduler.run(rounds_per_cluster=CLAMP_ROUNDS)  # finalizes
    assert len(plans) == 1 and plans[0].successes > 1
    total = sum(report.rounds_per_cluster.values())
    assert total == plans[0].successes
    assert total < len(scheduler.clusters) * CLAMP_ROUNDS


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
                    "paused": True, "faults": [
                        {"time_s": 0.0, "kind": "brownout",
                         "cluster": "c1", "magnitude": 0.5},
                        {"time_s": 0.0, "kind": "cluster_death",
                         "cluster": "c3"}]})
                run = reply["run"]
                assert reply["state"] == "paused"
                # Subscribe before resume (eager handshake) so the very
                # first events — the faults at t=0 — are observed.
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
                assert report["faults_applied"] == 2
                assert report["dead_clusters"] == {
                    "c3": "cluster killed by fault schedule"}
                listing = await client.request("list")
                assert [r["run"] for r in listing["runs"]] == [run]
                metrics = await client.request("metrics", run=run)
                assert "# TYPE repro_transmits_total counter" \
                    in metrics["prometheus"]
        asyncio.run(drive())


def test_tcp_subscribe_rejects_malformed_kinds():
    """A bad ``kinds`` is an error reply, not a silent empty stream."""
    with serve_in_thread(max_workers=1) as box:
        async def drive():
            async with ControlPlaneClient(box.host, box.port) as client, \
                    ControlPlaneClient(box.host, box.port) as watcher:
                run = (await client.request("submit", spec={
                    **LOSSY_SPEC, "rounds": ROUNDS}))["run"]
                with pytest.raises(RuntimeError, match="list of event kinds"):
                    await client.request("subscribe", run=run,
                                         kinds="round_completed")
                with pytest.raises(RuntimeError, match="list of event kinds"):
                    await client.request("subscribe", run=run, kinds=[1])
                with pytest.raises(RuntimeError,
                                   match=r"\['round_complete'\].*known:.*"
                                         r"'round_completed'"):
                    await client.request("subscribe", run=run,
                                         kinds=["round_complete"])
                # The connection survives the rejections.
                assert (await client.request("ping"))["pong"]
                # The well-formed filter streams every round of a run.
                paused = (await client.request("submit", spec={
                    **LOSSY_SPEC, "rounds": ROUNDS, "paused": True}))["run"]
                lines = await watcher.open_subscription(
                    paused, kinds=[RoundCompleted.kind])
                await client.request("resume", run=paused)
                events = [line async for line in lines if "event" in line]
                assert len(events) == 2 * ROUNDS
                assert {e["event"]["kind"] for e in events} \
                    == {RoundCompleted.kind}
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


@contextlib.contextmanager
def _emitting(bus: TelemetryBus):
    """Emit ``c0``'s rounds 0, 1, 2, ... on ``bus`` from a thread of its
    own, as an externally executed run does, until the block exits."""
    stop = threading.Event()

    def emit() -> None:
        i = 0
        while not stop.is_set():
            bus.emit(_round_event(i))
            i += 1
            time.sleep(0.002)

    thread = threading.Thread(target=emit, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10.0)


def test_tcp_subscribe_streams_an_external_run_up_to_max_events():
    with serve_in_thread(max_workers=1) as box:
        bus = TelemetryBus()
        handle = box.service.register_external("outside", bus)
        assert box.service.runs[handle.run_id] is handle
        host, port = box.server.address.rsplit(":", 1)
        assert (host, int(port)) == (box.host, box.port)

        async def drive():
            async with ControlPlaneClient(host, int(port)) as client:
                lines = [line async for line in client.subscribe(
                    handle.run_id, kinds=[RoundCompleted.kind],
                    max_events=3)]
                # The connection serves requests again after ``done``.
                assert (await client.request("ping"))["pong"]
                return lines

        with _emitting(bus):
            lines = asyncio.run(drive())
        rounds = [line["event"]["round"] for line in lines[:-1]]
        assert len(rounds) == 3
        assert rounds == list(range(rounds[0], rounds[0] + 3))
        assert lines[-1]["done"] and lines[-1]["events"] == 3
        assert lines[-1]["state"] == "running"


def test_tcp_subscribe_to_a_finished_run_ends_at_once():
    with serve_in_thread(max_workers=1) as box:
        handle = box.service.register_external("outside", TelemetryBus())
        box.service.finish_external(handle)

        async def drive():
            async with ControlPlaneClient(box.host, box.port) as client:
                return [line async for line in
                        client.subscribe(handle.run_id)]

        (done,) = asyncio.run(drive())
        assert done["done"] and done["state"] == "done"
        assert done["events"] == 0 and done["dropped"] == 0


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


@pytest.mark.parametrize("value, rendered", [
    (float("nan"), "NaN"), (float("inf"), "+Inf"), (float("-inf"), "-Inf"),
    (3.0, "3"), (0.25, "0.25"), (1e20, "1e+20"),
], ids=["nan", "inf", "minus-inf", "integral", "fraction", "huge-integral"])
def test_render_prometheus_sample_values(value, rendered):
    text = render_prometheus({"v": value})
    sample = text.splitlines()[-1]
    assert sample == f"repro_v {rendered}"
    assert _PROM_SAMPLE.fullmatch(sample)


def test_render_prometheus_names_never_start_with_a_digit():
    text = render_prometheus({"5xx_rate": 0.5}, namespace="")
    assert text.splitlines()[-1] == "_5xx_rate 0.5"


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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--follow", str(path), "--max-events", "5",
                     "--refresh", "0"])
    assert code == 0
    assert "c0" in out.getvalue()


def test_dashboard_main_connect_mode_watches_the_latest_run():
    from repro.serve.dashboard import main
    with serve_in_thread(max_workers=1) as box:
        box.service.register_external("older", TelemetryBus())
        bus = TelemetryBus()
        latest = box.service.register_external("latest", bus)
        out = io.StringIO()
        with _emitting(bus), contextlib.redirect_stdout(out):
            code = main(["--connect", box.server.address,
                         "--max-events", "4", "--refresh", "0"])
    assert code == 0
    frame = out.getvalue()
    assert f"run {latest.run_id}: state=running events=4 dropped=0" in frame
    assert "c0" in frame


def test_dashboard_main_connect_mode_needs_a_run():
    from repro.serve.dashboard import main
    with serve_in_thread(max_workers=1) as box:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--connect", box.server.address])
    assert code == 1
    assert "no runs registered" in err.getvalue()
