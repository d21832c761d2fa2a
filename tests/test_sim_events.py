"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import EventScheduler, SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert EventScheduler().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = EventScheduler()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_events_fire_fifo(self):
        sim = EventScheduler()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_schedule_at_absolute_time(self):
        sim = EventScheduler()
        fired = []
        sim.schedule_at(5.0, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 5.0

    def test_cannot_schedule_into_the_past(self):
        sim = EventScheduler(start_s=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(1.0, chain, 3)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_cancel_skips_callback(self):
        sim = EventScheduler()
        fired = []
        handle = sim.schedule(1.0, fired.append, "dropped")
        sim.schedule(2.0, fired.append, "kept")
        handle.cancel()
        sim.run()
        assert fired == ["kept"]
        assert sim.events_processed == 1


class TestRunAndStep:
    def test_step_fires_one_event_and_leaves_later_ones_queued(self):
        sim = EventScheduler()
        fired = []
        sim.schedule(1.0, fired.append, "early", tag="t")
        sim.schedule(5.0, fired.append, "late", tag="t")
        assert sim.next_time("t") == 1.0
        assert sim.step() is True
        assert fired == ["early"] and sim.now == 1.0
        assert sim.next_time("t") == 5.0
        assert sim.run() == 5.0
        assert fired == ["early", "late"] and sim.now == 5.0
        assert sim.next_time("t") == float("inf")

    def test_run_on_an_empty_queue_keeps_the_clock(self):
        sim = EventScheduler(start_s=7.5)
        assert sim.run() == 7.5
        assert sim.now == 7.5 and sim.events_processed == 0

    def test_cancelled_tail_event_does_not_advance_the_clock(self):
        sim = EventScheduler()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None).cancel()
        assert sim.run() == 1.0
        assert sim.events_processed == 1 and sim.step() is False

    def test_step_returns_false_when_drained(self):
        sim = EventScheduler()
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False


class TestProcesses:
    def test_process_yields_delays(self):
        sim = EventScheduler()
        trace = []

        def proc():
            trace.append(("start", sim.now))
            yield 2.0
            trace.append(("mid", sim.now))
            yield 3.0
            trace.append(("end", sim.now))

        sim.process(proc())
        sim.run()
        assert trace == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]

    def test_processes_interleave_with_events(self):
        sim = EventScheduler()
        trace = []

        def proc():
            yield 1.0
            trace.append("proc@1")
            yield 2.0
            trace.append("proc@3")

        sim.process(proc())
        sim.schedule(2.0, trace.append, "event@2")
        sim.run()
        assert trace == ["proc@1", "event@2", "proc@3"]

    def test_process_rejects_bad_yield(self):
        sim = EventScheduler()

        def proc():
            yield -1.0

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_two_processes_share_the_clock(self):
        sim = EventScheduler()
        trace = []

        def worker(name, period):
            for _ in range(2):
                yield period
                trace.append((name, sim.now))

        sim.process(worker("fast", 1.0))
        sim.process(worker("slow", 1.5))
        sim.run()
        assert trace == [("fast", 1.0), ("slow", 1.5), ("fast", 2.0),
                         ("slow", 3.0)]


class TestTaggedEvents:
    def test_next_time_finds_earliest_pending_tag(self):
        sim = EventScheduler()
        sim.schedule(5.0, lambda: None, tag="fault")
        sim.schedule(2.0, lambda: None, tag="fault")
        sim.schedule(1.0, lambda: None)          # untagged
        assert sim.next_time("fault") == 2.0

    def test_next_time_ignores_cancelled_and_fired(self):
        sim = EventScheduler()
        early = sim.schedule(1.0, lambda: None, tag="fault")
        sim.schedule(3.0, lambda: None, tag="fault")
        early.cancel()
        assert sim.next_time("fault") == 3.0
        sim.run()
        assert sim.next_time("fault") == float("inf")

    def test_next_time_empty_is_inf(self):
        assert EventScheduler().next_time("fault") == float("inf")

    def test_cancel_after_drops_only_later_events_of_the_tag(self):
        sim = EventScheduler()
        fired = []
        for time_s, tag in ((1.0, "fault"), (2.0, "fault"), (3.0, "fault"),
                            (3.0, None)):
            sim.schedule_at(time_s, fired.append, (time_s, tag), tag=tag)
        sim.cancel_after("fault", 2.0)
        assert sim.next_time("fault") == 1.0
        sim.run()
        assert fired == [(1.0, "fault"), (2.0, "fault"), (3.0, None)]
