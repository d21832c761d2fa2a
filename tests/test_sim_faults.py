"""Unit tests for declarative fault schedules and injection."""

import numpy as np
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

    num_devices = 4

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
    """Fire every fault of ``sim`` due at or before ``time_s``."""
    while sim.next_time(FaultInjector.TAG) <= time_s:
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

    # Hosted runs build events from JSON, which accepts NaN and Infinity.
    @pytest.mark.parametrize("time_s", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time_s):
        with pytest.raises(ValueError, match="fault time"):
            FaultEvent(time_s, "node_death", "c0", device=1)

    def test_nan_straggler_magnitude_rejected(self):
        with pytest.raises(ValueError, match="slowdown factor"):
            FaultEvent(1.0, "straggler", "c0", magnitude=float("nan"))

    @pytest.mark.parametrize("kind", ["node_death", "node_revive"])
    def test_device_must_be_a_non_negative_integer(self, kind):
        for device in (-1, 2.5, float("nan"), "1"):
            with pytest.raises(ValueError, match="device index"):
                FaultEvent(1.0, kind, "c0", device=device)
        assert FaultEvent(1.0, kind, "c0", device=np.int64(3)).device == 3


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([
            FaultEvent(5.0, "cluster_death", "b"),
            FaultEvent(1.0, "node_death", "a", device=0),
        ])
        assert [e.time_s for e in schedule] == [1.0, 5.0]
        assert len(schedule) == 2 and bool(schedule)

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

    @pytest.mark.parametrize("kind", ["node_death", "node_revive"])
    def test_device_beyond_the_cluster_fails_at_arm(self, kind):
        sim = EventScheduler()
        target = RecordingTarget()
        injector = FaultInjector(
            FaultSchedule([FaultEvent(1.0, kind, "c", device=3),
                           FaultEvent(2.0, kind, "c", device=4)]),
            {"c": target})
        with pytest.raises(ValueError, match="device 4 of cluster 'c'"):
            injector.arm(sim)
        assert not sim.step() and target.calls == []


class TestFaultHorizon:
    def schedule(self):
        return FaultSchedule([
            FaultEvent(1.0, "straggler", "c", magnitude=2.0),
            FaultEvent(4.0, "recover", "c"),
        ])

    def test_horizon_tracks_unfired_faults(self):
        sim = EventScheduler()
        target = RecordingTarget()
        injector = FaultInjector(self.schedule(), {"c": target})
        injector.arm(sim)
        assert injector.horizon() == 1.0
        step_through(sim, 2.0)
        assert injector.horizon() == 4.0
        sim.run()
        assert injector.horizon() == float("inf")
        assert len(injector.applied) == 2
