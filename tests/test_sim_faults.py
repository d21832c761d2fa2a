"""Unit tests for declarative fault schedules and injection."""

import pytest

from repro.sim import (
    EventScheduler,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    apply_fault,
)


class RecordingTarget:
    """Minimal FaultTarget that logs every mutation."""

    def __init__(self):
        self.calls = []

    def kill_device(self, device):
        self.calls.append(("kill_device", device))

    def revive_device(self, device):
        self.calls.append(("revive_device", device))

    def kill_aggregator(self):
        self.calls.append(("kill_aggregator",))

    def brownout(self, fraction):
        self.calls.append(("brownout", fraction))

    def set_slow_factor(self, factor):
        self.calls.append(("set_slow_factor", factor))

    def kill_cluster(self):
        self.calls.append(("kill_cluster",))


def step_through(sim, time_s):
    """Fire every event of ``sim`` due at or before ``time_s``."""
    while sim.peek_time() is not None and sim.peek_time() <= time_s:
        sim.step()


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor_strike", "c0")

    def test_node_death_needs_device(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "node_death", "c0")

    def test_brownout_magnitude_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "brownout", "c0", magnitude=1.5)

    def test_straggler_must_slow_down(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "straggler", "c0", magnitude=0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "cluster_death", "c0")


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([
            FaultEvent(5.0, "cluster_death", "b"),
            FaultEvent(1.0, "node_death", "a", device=0),
        ])
        assert [e.time_s for e in schedule] == [1.0, 5.0]
        assert len(schedule) == 2 and bool(schedule)

    def test_between_window(self):
        schedule = FaultSchedule([
            FaultEvent(t, "cluster_death", "a") for t in (1.0, 2.0, 3.0)])
        assert [e.time_s for e in schedule.between(1.0, 3.0)] == [2.0, 3.0]

    def test_for_cluster_and_clusters(self):
        schedule = FaultSchedule([
            FaultEvent(1.0, "cluster_death", "a"),
            FaultEvent(2.0, "cluster_death", "b"),
            FaultEvent(3.0, "recover", "a"),
        ])
        assert schedule.clusters() == ["a", "b"]
        assert len(schedule.for_cluster("a")) == 2

    def test_scenario_builders(self):
        first = FaultSchedule.first_death("c", 10.0, device=3)
        assert first.events[0].kind == "node_death"
        attrition = FaultSchedule.attrition("c", [1, 2, 3], 5.0, 2.0)
        assert [e.time_s for e in attrition] == [5.0, 7.0, 9.0]
        window = FaultSchedule.straggler_window("c", 1.0, 4.0, 3.0)
        assert [e.kind for e in window] == ["straggler", "recover"]
        with pytest.raises(ValueError):
            FaultSchedule.straggler_window("c", 4.0, 1.0, 3.0)
        merged = first.merged(attrition, window)
        assert len(merged) == 6

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()


class TestInjector:
    def test_dispatch_covers_all_kinds(self):
        target = RecordingTarget()
        events = [
            FaultEvent(1.0, "node_death", "c", device=2),
            FaultEvent(2.0, "node_revive", "c", device=2),
            FaultEvent(3.0, "aggregator_death", "c"),
            FaultEvent(4.0, "brownout", "c", magnitude=0.5),
            FaultEvent(5.0, "straggler", "c", magnitude=4.0),
            FaultEvent(6.0, "recover", "c"),
            FaultEvent(7.0, "cluster_death", "c"),
        ]
        for event in events:
            apply_fault(event, target)
        assert target.calls == [
            ("kill_device", 2), ("revive_device", 2), ("kill_aggregator",),
            ("brownout", 0.5), ("set_slow_factor", 4.0),
            ("set_slow_factor", 1.0), ("kill_cluster",)]

    def test_armed_injector_fires_at_simulated_times(self):
        sim = EventScheduler()
        target = RecordingTarget()
        schedule = FaultSchedule([
            FaultEvent(2.0, "straggler", "c", magnitude=2.0),
            FaultEvent(1.0, "brownout", "c", magnitude=0.9),
        ])
        injector = FaultInjector(schedule, {"c": target})
        injector.arm(sim)
        step_through(sim, 1.5)
        assert target.calls == [("brownout", 0.9)]
        sim.run()
        assert len(injector.applied) == 2
        assert injector.applied[0].kind == "brownout"

    def test_unknown_cluster_fails_loudly(self):
        injector = FaultInjector(
            FaultSchedule([FaultEvent(1.0, "cluster_death", "ghost")]),
            {"real": RecordingTarget()})
        with pytest.raises(KeyError):
            injector.arm(EventScheduler())


class TestFaultHorizon:
    def schedule(self):
        return FaultSchedule([
            FaultEvent(1.0, "straggler", "c", magnitude=2.0),
            FaultEvent(4.0, "recover", "c"),
        ])

    def test_next_after_walks_the_schedule(self):
        schedule = self.schedule()
        assert schedule.next_after(-1.0) == 1.0
        assert schedule.next_after(1.0) == 4.0   # strictly after
        assert schedule.next_after(4.0) == float("inf")

    def test_horizon_tracks_unfired_faults(self):
        sim = EventScheduler()
        target = RecordingTarget()
        injector = FaultInjector(self.schedule(), {"c": target})
        assert injector.horizon() == 1.0          # pre-arm: schedule order
        injector.arm(sim)
        assert injector.horizon() == 1.0
        step_through(sim, 2.0)
        assert injector.horizon() == 4.0
        sim.run()
        assert injector.horizon() == float("inf")
        assert len(injector.applied) == 2
