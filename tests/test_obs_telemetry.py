"""Telemetry bus tests: bit-identity, null-bus elision, exporters, metrics.

The hard contract under test: attaching a :class:`TelemetryBus` to any
engine path changes *nothing* about the simulation — clock, ledger,
losses and report stay bit-identical, because the bus never draws RNG
and never reorders float accumulation.  And with telemetry off, the
hot-path event objects are never even constructed.
"""

import io
import json

import numpy as np
import pytest

import repro.core.rounds as rounds_mod
import repro.core.scheduler as scheduler_mod
import repro.sim.channel as channel_mod
import repro.sim.faults as faults_mod
from repro.core import (
    OrcoDCSConfig,
    OrcoDCSFramework,
    ResilientOrchestrationPolicy,
)
from repro.core.scheduler import EdgeTrainingScheduler
from repro.obs import (
    EVENT_TYPES,
    NULL_BUS,
    ArqRederived,
    ClusterRetired,
    Counter,
    DeadlineMissed,
    FaultApplied,
    Gauge,
    Histogram,
    JsonlWriter,
    LiveConsole,
    MetricsCollector,
    ParityChosen,
    QuorumCheck,
    RingSeries,
    RoundCompleted,
    SegmentFused,
    SpanClosed,
    TelemetryBus,
    TransmitBatch,
    read_events,
    summary_table,
)
from repro.serve import RunController
from repro.sim import ARQConfig, ChannelSpec, FaultEvent, FaultSchedule

DIM = 24
LATENT = 4
BATCH = 8
ROWS = 48


def build_scheduler(policy="round_robin", clusters=3, seed=0, engine="event",
                    deadlines=None, **kwargs):
    scheduler = EdgeTrainingScheduler(policy, rng=np.random.default_rng(seed),
                                      engine=engine, **kwargs)
    for index in range(clusters):
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=index,
                               noise_sigma=0.05, batch_size=BATCH)
        data = np.random.default_rng(100 + index).random((ROWS, DIM))
        scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config), data,
                              batch_size=BATCH, aggregator_battery_j=1e9,
                              deadline_s=(deadlines or {}).get(f"c{index}"))
    return scheduler


#: Named engine-path scenarios for the bit-identity sweep.
SCENARIOS = {
    "fused_fault_only": dict(
        fault_schedule=FaultSchedule([
            FaultEvent(1e-4, "node_death", "c0", device=5)])),
    "lossy": dict(
        channels=ChannelSpec(loss=0.15, arq=ARQConfig(max_retries=1))),
    "coded_hybrid": dict(
        channels=ChannelSpec(loss=0.15, arq=ARQConfig(max_retries=1)),
        resilience=ResilientOrchestrationPolicy(recovery="hybrid")),
    "unfused_loss_priority": dict(
        policy="loss_priority",
        channels=ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=1))),
}


class TestBitIdentity:
    """Telemetry on vs off: every observable simulation output matches."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS),
                             ids=sorted(SCENARIOS))
    def test_run_is_bit_identical_with_bus_attached(self, scenario):
        kwargs = dict(SCENARIOS[scenario])

        off = build_scheduler(**kwargs)
        report_off = off.run(rounds_per_cluster=10)

        events = []
        bus = TelemetryBus()
        bus.subscribe(events.append)  # all kinds, spans included
        on = build_scheduler(telemetry=bus, **kwargs)
        report_on = on.run(rounds_per_cluster=10)

        assert events, "bus saw no events — the 'on' run was not observed"
        for c_on, c_off in zip(on.clusters, off.clusters):
            assert np.array_equal(c_on.history.losses, c_off.history.losses)
            assert np.array_equal(c_on.history.times, c_off.history.times)
            assert c_on.trainer.clock_s == c_off.trainer.clock_s
            assert len(c_on.trainer.ledger) == len(c_off.trainer.ledger)
            assert c_on.trainer.ledger.by_kind() \
                == c_off.trainer.ledger.by_kind()
            assert c_on.trainer.ledger.total_wire_bytes() \
                == c_off.trainer.ledger.total_wire_bytes()
        assert report_on.makespan_s == report_off.makespan_s
        assert report_on.completion_times == report_off.completion_times
        assert report_on.failed_rounds == report_off.failed_rounds
        assert report_on.energy_j == report_off.energy_j
        assert report_on.dead_clusters == report_off.dead_clusters
        assert report_on.deadline_misses == report_off.deadline_misses
        assert report_on.deadline_miss_rounds == report_off.deadline_miss_rounds
        assert report_on.retirement_reasons == report_off.retirement_reasons
        # Zero RNG draws attributable to the bus: the scheduler's own
        # generator ends both runs in the identical state.
        assert on.rng.bit_generator.state == off.rng.bit_generator.state

    def test_scenarios_exercise_their_advertised_paths(self):
        kinds_by_scenario = {}
        for scenario, kwargs in SCENARIOS.items():
            events = []
            bus = TelemetryBus()
            bus.subscribe(events.append)
            build_scheduler(telemetry=bus, **dict(kwargs)).run(
                rounds_per_cluster=10)
            kinds_by_scenario[scenario] = {e.kind for e in events}
        assert FaultApplied.kind in kinds_by_scenario["fused_fault_only"]
        assert SegmentFused.kind in kinds_by_scenario["fused_fault_only"]
        assert TransmitBatch.kind in kinds_by_scenario["lossy"]
        assert ParityChosen.kind in kinds_by_scenario["coded_hybrid"]
        # The unfused loop plans nothing and records no traces, so it
        # emits neither fusion events nor spans.
        unfused = kinds_by_scenario.pop("unfused_loss_priority")
        assert RoundCompleted.kind in unfused
        assert not {SegmentFused.kind, SpanClosed.kind} & unfused
        for kinds in kinds_by_scenario.values():
            assert RoundCompleted.kind in kinds
            assert SpanClosed.kind in kinds


class TestFusionBounds:
    """The ``bound`` field on fusion events names the proof that fired.

    Each planner decision carries a machine-readable slug so post-hoc
    analysis can attribute fused throughput to the specific bound that
    justified it (see ``ExecutionPlan.reasons`` for the unfused side).
    """

    def test_segment_mode_fault_run_uses_horizon_bound(self):
        events = []
        bus = TelemetryBus()
        bus.subscribe(events.append, kinds=(SegmentFused.kind,))
        build_scheduler(
            telemetry=bus,
            fault_schedule=FaultSchedule([
                FaultEvent(1e-4, "node_death", "c0", device=5)]),
        ).run(rounds_per_cluster=10)
        assert {event.bound for event in events} == {"before-horizon"}

    def test_adaptive_rederivation_keeps_run_fused(self):
        # Budget re-derivation at a fault boundary used to force the
        # whole run back to unfused; trace re-recording keeps it fused
        # and the ArqRederived events observable mid-segment.
        spec = ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=3))
        adaptive = ResilientOrchestrationPolicy(adaptive_arq=True)
        makespan = build_scheduler(
            channels=spec, resilience=adaptive,
            segment_batching=False).run(rounds_per_cluster=10).makespan_s
        events = []
        bus = TelemetryBus()
        bus.subscribe(events.append)
        report = build_scheduler(
            telemetry=bus, channels=spec, resilience=adaptive,
            fault_schedule=FaultSchedule([FaultEvent(
                0.5 * makespan, "brownout", "c0", magnitude=1e-12)]),
        ).run(rounds_per_cluster=10)
        kinds = {e.kind for e in events}
        assert ArqRederived.kind in kinds
        assert SegmentFused.kind in kinds
        assert report.fused_rounds > 0
        rederived = [e for e in events if e.kind == ArqRederived.kind]
        assert {(e.cluster, e.direction) for e in rederived} \
            == {("c0", "up"), ("c0", "down")}
        assert all(e.new_retries == 0 for e in rederived)


def _exploding(kind):
    """A stand-in event class whose construction is a test failure."""

    class Exploding:
        def __init__(self, *args, **kwargs):
            raise AssertionError(
                f"{kind} event constructed with telemetry off")

    Exploding.kind = kind
    return Exploding


def _counting(event_class, site, built):
    """A stand-in event class that notes ``site`` in ``built``, then
    constructs the real event."""

    def construct(*args, **kwargs):
        built.append(site)
        return event_class(*args, **kwargs)

    construct.kind = event_class.kind
    return construct


#: Every hot-path emission site, as (module, event class name there).
#: ClusterRetired is not one: the report tap legitimately wants it even
#: with telemetry off.
HOT_PATH_SITES = [
    (scheduler_mod, "RoundCompleted"),
    (scheduler_mod, "QuorumCheck"),
    (scheduler_mod, "ParityChosen"),
    (scheduler_mod, "ArqRederived"),
    (rounds_mod, "RoundCompleted"),
    (rounds_mod, "SegmentFused"),
    (rounds_mod, "DeadlineMissed"),
    (channel_mod, "TransmitBatchEvent"),
    (faults_mod, "FaultApplied"),
]


class _CancelBeforeReplan(RunController):
    """Lets ``boundaries`` between-round boundaries pass, then cancels
    right after the next one with no pre-executed round outstanding, as
    a cancel from another thread may land: the replan that follows goes
    through the segment planner's "command-pending" clamp with no bus
    subscriber raising the cancel."""

    def __init__(self, boundaries):
        super().__init__()
        self.boundaries = boundaries

    def checkpoint(self, outstanding):
        go_on = super().checkpoint(outstanding)
        self.boundaries -= 1
        if self.boundaries <= 0 and outstanding == 0:
            self.cancel()
        return go_on


def elision_runs(telemetry=None):
    """Runs that between them reach every site in HOT_PATH_SITES.

    A fused event run with a node death, lossy enough that uplinks and
    downlinks both fail; an unfused event ``loss_priority`` run with
    hybrid recovery, adaptive ARQ and a quorum, whose brownout
    re-derives c0's budgets and whose c1 cannot meet its deadline; a
    batched run, whose ``IdealRoundLoop`` emits its own round and
    deadline events; and a fused ``round_robin`` run cancelled by its
    controller just before a replan, mid-run.
    """
    schedulers = [
        build_scheduler(
            telemetry=telemetry,
            channels=ChannelSpec(loss=0.3, arq=ARQConfig(max_retries=1)),
            fault_schedule=FaultSchedule([
                FaultEvent(1e-4, "node_death", "c0", device=5)])),
        build_scheduler(
            "loss_priority", telemetry=telemetry, deadlines={"c1": 1e-6},
            channels=ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=1)),
            resilience=ResilientOrchestrationPolicy(
                recovery="hybrid", adaptive_arq=True, quorum=0.1),
            fault_schedule=FaultSchedule([FaultEvent(
                0.05, "brownout", "c0", magnitude=1e-12)])),
        build_scheduler(engine="batched", telemetry=telemetry,
                        deadlines={"c1": 1e-6}),
        build_scheduler(
            telemetry=telemetry, control=_CancelBeforeReplan(2),
            fault_schedule=FaultSchedule([FaultEvent(
                0.1, "straggler", "c0", magnitude=2.0)])),
    ]
    return [scheduler.run(rounds_per_cluster=8) for scheduler in schedulers]


class TestNullBusElision:
    """With no subscriber, emission sites never construct events."""

    def test_hot_path_events_elided_when_telemetry_off(self, monkeypatch):
        # Patch every hot-path event class at its emission sites with a
        # constructor that explodes.
        for mod, name in HOT_PATH_SITES:
            monkeypatch.setattr(mod, name,
                                _exploding(getattr(mod, name).kind))
        reports = elision_runs()
        assert [r.faults_applied for r in reports] == [1, 1, 0, 1]
        assert [r.deadline_misses for r in reports] \
            == [[], ["c1"], ["c1"], []]
        cancelled = sum(reports[-1].rounds_per_cluster.values())
        assert 0 < cancelled < 3 * 8

    def test_elision_runs_reach_every_patched_site(self, monkeypatch):
        # The subscribed twin: each patched site builds its event at
        # least once, and a real subscriber sees every patched kind.
        built = []
        for mod, name in HOT_PATH_SITES:
            monkeypatch.setattr(mod, name, _counting(
                getattr(mod, name), (mod.__name__, name), built))
        seen = set()
        bounds = []
        bus = TelemetryBus()
        bus.subscribe(lambda event: seen.add(event.kind))
        bus.subscribe(lambda event: bounds.append(event.bound),
                      kinds=[SegmentFused.kind])
        elision_runs(bus)
        assert set(built) == {(mod.__name__, name)
                              for mod, name in HOT_PATH_SITES}
        assert "command-pending" in bounds
        assert {getattr(mod, name).kind for mod, name in HOT_PATH_SITES} \
            <= seen

    def test_null_bus_wants_nothing_and_rejects_subscribers(self):
        assert not NULL_BUS.wants(RoundCompleted.kind)
        assert not NULL_BUS.wants(SpanClosed.kind)
        with pytest.raises(TypeError):
            NULL_BUS.subscribe(lambda event: None)
        with NULL_BUS.span("noop"):
            pass  # span is a plain passthrough


class TestTelemetryBus:
    def test_kind_filtered_delivery_and_unsubscribe(self):
        bus = TelemetryBus()
        rounds, faults = [], []
        unsub = bus.subscribe(rounds.append, kinds=(RoundCompleted.kind,))
        bus.subscribe(faults.append, kinds=(FaultApplied.kind,))
        assert bus.wants(RoundCompleted.kind)
        assert not bus.wants(TransmitBatch.kind)
        bus.emit(RoundCompleted(cluster="c0", round=1, delivered=True,
                                loss=0.5, time_s=1.0))
        bus.emit(FaultApplied(cluster="c0", fault="node_death", time_s=2.0))
        assert len(rounds) == 1 and len(faults) == 1
        unsub()
        assert not bus.wants(RoundCompleted.kind)
        bus.emit(RoundCompleted(cluster="c0", round=2, delivered=True,
                                loss=0.4, time_s=2.0))
        assert len(rounds) == 1

    def test_span_nesting_depth(self):
        bus = TelemetryBus()
        spans = []
        bus.subscribe(spans.append, kinds=(SpanClosed.kind,))
        with bus.span("outer"):
            with bus.span("inner"):
                pass
        assert [(s.name, s.depth) for s in spans] \
            == [("inner", 1), ("outer", 0)]
        assert all(s.elapsed_s >= 0.0 for s in spans)

    def test_span_skips_timing_without_subscriber(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append, kinds=(RoundCompleted.kind,))
        with bus.span("unwatched"):
            pass
        assert seen == []


class TestJsonlRoundTrip:
    SAMPLES = [
        RoundCompleted(cluster="c0", round=3, delivered=False, loss=None,
                       time_s=1.5, battery_j=9.0, radio_energy_j=0.25),
        SegmentFused(index=0, horizon_s=None, clusters=3, successes=30,
                     failures=0),
        FaultApplied(cluster="c1", fault="node_death", time_s=0.5),
        ArqRederived(cluster="c1", direction="up", old_retries=3,
                     new_retries=1, time_s=0.5),
        ParityChosen(cluster="c2", direction="down", parity=2,
                     loss_rate=0.15, headroom_j=12.0),
        TransmitBatch(payload_bytes=512, count=4, delivered=4, attempts=6,
                      lost_frames=2, retransmissions=2, wire_bytes=3100),
        QuorumCheck(alive=2, total=3, quorum=0.5, halted=False, time_s=7.0),
        ClusterRetired(cluster="c0", reason="battery", time_s=8.0),
        DeadlineMissed(cluster="c0", round=5, finish_s=9.0, deadline_s=8.5),
        SpanClosed(name="plan", elapsed_s=0.01, depth=0),
    ]

    def test_every_event_kind_round_trips(self, tmp_path):
        assert {e.kind for e in self.SAMPLES} == set(EVENT_TYPES)
        path = tmp_path / "events.jsonl"
        bus = TelemetryBus()
        with JsonlWriter(path, bus) as writer:
            for event in self.SAMPLES:
                bus.emit(event)
            assert writer.events_written == len(self.SAMPLES)
        assert list(read_events(path)) == self.SAMPLES

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "martian", "x": 1}) + "\n")
        with pytest.raises(KeyError):
            list(read_events(path))

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlWriter(tmp_path / "closed.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.write_event(self.SAMPLES[0])

    def test_flush_after_close_raises(self, tmp_path):
        writer = JsonlWriter(tmp_path / "closed.jsonl")
        writer.close()
        with pytest.raises(ValueError, match="is closed"):
            writer.flush()

    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlWriter(tmp_path / "never.jsonl", flush_every=0)

    def test_flush_every_bounds_the_unwritten_buffer(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        with JsonlWriter(path, flush_every=3) as writer:
            for count, event in enumerate(self.SAMPLES[:7], start=1):
                writer.write_event(event)
                lines = path.read_text().splitlines()
                assert len(lines) == count - count % 3
        assert list(read_events(path)) == self.SAMPLES[:7]

    def test_scheduler_run_streams_to_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = TelemetryBus()
        with JsonlWriter(path, bus):
            build_scheduler(
                telemetry=bus,
                channels=ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=1)),
            ).run(rounds_per_cluster=6)
        kinds = {event.kind for event in read_events(path)}
        assert {RoundCompleted.kind, TransmitBatch.kind,
                SegmentFused.kind, SpanClosed.kind} <= kinds


class TestMetricPrimitives:
    def test_counter_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_last_value(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(4.0)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_bucket_edges_inclusive(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 2.0, 2.5, 4.0, 100.0):
            hist.observe(value)
        # value == edge lands in that edge's bucket (inclusive upper).
        assert hist.counts == [2, 1, 2, 1]
        assert hist.count == 6
        assert hist.min == 0.5 and hist.max == 100.0
        assert hist.total == pytest.approx(110.0)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_ring_series_total_counts_every_push(self):
        series = RingSeries(3)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            series.push(value)
        assert series.total == 5

    def test_ring_series_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingSeries(0)


class TestMetricsCollector:
    def _collector_with_traffic(self):
        bus = TelemetryBus()
        collector = MetricsCollector(bus)
        bus.emit(RoundCompleted(cluster="c0", round=0, delivered=True,
                                loss=0.3, time_s=1.0, battery_j=90.0,
                                radio_energy_j=0.5))
        bus.emit(RoundCompleted(cluster="c0", round=1, delivered=False,
                                loss=None, time_s=2.0, battery_j=80.0,
                                radio_energy_j=0.7))
        bus.emit(RoundCompleted(cluster="c1", round=0, delivered=True,
                                loss=0.2, time_s=1.5, battery_j=70.0,
                                radio_energy_j=0.4))
        bus.emit(TransmitBatch(payload_bytes=512, count=4, delivered=3,
                               attempts=6, lost_frames=3, retransmissions=2,
                               wire_bytes=3000))
        bus.emit(SegmentFused(index=0, horizon_s=None, clusters=2,
                              successes=5, failures=1))
        bus.emit(FaultApplied(cluster="c0", fault="node_death", time_s=0.5))
        bus.emit(ClusterRetired(cluster="c1", reason="battery", time_s=9.0))
        bus.emit(DeadlineMissed(cluster="c0", round=1, finish_s=3.0,
                                deadline_s=2.0))
        with bus.span("plan"):
            pass
        return collector

    def test_fold_and_flat_snapshot(self):
        collector = self._collector_with_traffic()
        assert collector.clusters["c0"].rounds.value == 2
        assert collector.clusters["c0"].delivered.value == 1
        assert collector.clusters["c0"].faults.value == 1
        assert collector.clusters["c0"].loss.value == 0.3
        assert collector.clusters["c0"].loss_series.total == 1
        # radio energy is the fleet sum of per-cluster cumulative gauges
        assert collector.radio_energy_j == pytest.approx(0.7 + 0.4)
        assert collector.retirements == {"battery": 1}
        flat = collector.flat()
        assert flat["transmits"] == 4
        assert flat["frames_sent"] == 6
        assert flat["retransmissions"] == 2
        assert flat["payloads_delivered"] == 3
        assert flat["wire_bytes"] == 3000
        assert flat["deadline_misses"] == 1
        assert flat["segments"] == 1
        assert flat["clusters"] == 2
        assert flat["retired_battery"] == 1
        assert flat["cluster_c0_rounds"] == 2
        assert flat["cluster_c1_battery_j"] == 70.0
        assert flat["span_plan_calls"] == 1
        assert flat["span_plan_s"] >= 0.0

    def test_summary_table_renders(self):
        table = summary_table(self._collector_with_traffic())
        assert "c0" in table and "c1" in table
        assert "retired" in table
        assert "plan" in table

    def test_collector_on_live_run(self):
        bus = TelemetryBus()
        collector = MetricsCollector(bus)
        report = build_scheduler(
            telemetry=bus,
            channels=ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=1)),
        ).run(rounds_per_cluster=6)
        assert set(collector.clusters) == {"c0", "c1", "c2"}
        total_rounds = sum(s.rounds.value for s in collector.clusters.values())
        assert total_rounds == sum(report.rounds_per_cluster.values()) \
            + sum(report.failed_rounds.values())
        assert collector.transmits.value > 0
        assert {"plan", "execute"} <= set(collector.span_hists)


class TestLiveConsole:
    def test_renders_fold_of_event_stream(self):
        bus = TelemetryBus()
        stream = io.StringIO()
        console = LiveConsole(bus, stream=stream, refresh_s=0.0)
        bus.emit(RoundCompleted(cluster="c0", round=1, delivered=True,
                                loss=0.25, time_s=1.0, battery_j=42.0))
        bus.emit(FaultApplied(cluster="c0", fault="node_death", time_s=1.5))
        bus.emit(ClusterRetired(cluster="c0", reason="battery", time_s=2.0))
        assert console.renders == 3
        output = stream.getvalue()
        assert "c0" in output
        assert "retired:battery" in output.splitlines()[-2] \
            or "retired:battery" in output
        assert console.rows["c0"].faults == 1

    def test_quorum_halt_marks_running_rows(self):
        bus = TelemetryBus()
        console = LiveConsole(bus, stream=io.StringIO(), refresh_s=0.0)
        bus.emit(RoundCompleted(cluster="c0", round=1, delivered=True,
                                loss=0.1, time_s=1.0))
        bus.emit(RoundCompleted(cluster="c1", round=1, delivered=True,
                                loss=0.1, time_s=1.0))
        bus.emit(ClusterRetired(cluster="c1", reason="death", time_s=2.0))
        bus.emit(QuorumCheck(alive=1, total=2, quorum=0.5, halted=True,
                             time_s=2.0))
        assert console.rows["c0"].status == "quorum-halt"
        assert console.rows["c1"].status == "retired:death"

    def test_deadline_miss_marks_the_row_late(self):
        bus = TelemetryBus()
        console = LiveConsole(bus, stream=io.StringIO(), refresh_s=0.0)
        bus.emit(RoundCompleted(cluster="c0", round=5, delivered=True,
                                loss=0.1, time_s=9.0))
        bus.emit(DeadlineMissed(cluster="c0", round=5, finish_s=9.0,
                                deadline_s=8.5))
        assert console.rows["c0"].status == "late"
        assert console.rows["c0"].round == 5

    def test_wall_clock_throttle(self):
        bus = TelemetryBus()
        console = LiveConsole(bus, stream=io.StringIO(), refresh_s=3600.0)
        console._last_render = __import__("time").perf_counter()
        for round_index in range(10):
            bus.emit(RoundCompleted(cluster="c0", round=round_index,
                                    delivered=True, loss=0.1, time_s=1.0))
        assert console.renders == 0
        assert console.rows["c0"].round == 9


class TestReportPopulation:
    """Satellite: ScheduleReport fields fed by the bus / miss tracking."""

    def test_retirement_reasons_populated_without_telemetry(self):
        scheduler = build_scheduler(
            clusters=2,
            channels=ChannelSpec(loss=0.9, arq=ARQConfig(max_retries=0)),
            resilience=ResilientOrchestrationPolicy(
                max_consecutive_failures=3))
        report = scheduler.run(rounds_per_cluster=20)
        assert report.dead_clusters
        assert sum(report.retirement_reasons.values()) \
            == len(report.dead_clusters)

    def test_deadline_miss_rounds_event_engine(self):
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(0), engine="event")
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                               batch_size=BATCH)
        data = np.random.default_rng(0).random((ROWS, DIM))
        scheduler.add_cluster("tight", OrcoDCSFramework(config), data,
                              batch_size=BATCH, deadline_s=1e-9)
        report = scheduler.run(rounds_per_cluster=3)
        assert report.deadline_misses == ["tight"]
        # 1-based: the first completed round already blows the deadline.
        assert report.deadline_miss_rounds == {"tight": 1}

    def test_deadline_miss_rounds_sequential_engine(self):
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(0), engine="sequential")
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                               batch_size=BATCH)
        data = np.random.default_rng(0).random((ROWS, DIM))
        scheduler.add_cluster("tight", OrcoDCSFramework(config), data,
                              batch_size=BATCH, deadline_s=1e-9)
        report = scheduler.run(rounds_per_cluster=3)
        assert report.deadline_miss_rounds == {"tight": 1}

    def test_deadline_missed_event_emitted_once(self):
        events = []
        bus = TelemetryBus()
        bus.subscribe(events.append, kinds=(DeadlineMissed.kind,))
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(0), engine="event",
            telemetry=bus)
        config = OrcoDCSConfig(input_dim=DIM, latent_dim=LATENT, seed=0,
                               batch_size=BATCH)
        data = np.random.default_rng(0).random((ROWS, DIM))
        scheduler.add_cluster("tight", OrcoDCSFramework(config), data,
                              batch_size=BATCH, deadline_s=1e-9)
        scheduler.run(rounds_per_cluster=5)
        assert len(events) == 1
        assert events[0].cluster == "tight"

    def test_retired_events_match_report(self):
        events = []
        bus = TelemetryBus()
        bus.subscribe(events.append, kinds=(ClusterRetired.kind,))
        scheduler = build_scheduler(
            telemetry=bus, clusters=2,
            channels=ChannelSpec(loss=0.9, arq=ARQConfig(max_retries=0)),
            resilience=ResilientOrchestrationPolicy(
                max_consecutive_failures=3))
        report = scheduler.run(rounds_per_cluster=20)
        assert {e.cluster for e in events} == set(report.dead_clusters)
        reasons = {}
        for event in events:
            reasons[event.reason] = reasons.get(event.reason, 0) + 1
        assert reasons == report.retirement_reasons
