"""Discrete-event simulation kernel: event queue, clock, processes.

The seed's execution engines advance a *modeled* clock with closed-form
arithmetic — fine while every round is a synchronous lockstep, useless
once frames drop, nodes die mid-round and clusters straggle at
independent simulated times.  This kernel provides the missing
substrate:

* a monotonic :class:`EventScheduler` (binary-heap event queue with
  FIFO tie-breaking, so same-time events fire in scheduling order —
  the determinism the engine-equivalence contract relies on);
* a simulated clock (``scheduler.now``) that only ever moves forward;
* lightweight *process* scheduling: a process is a plain generator that
  ``yield``s simulated delays in seconds; the scheduler resumes it when
  the clock reaches that point, interleaving it with every other
  scheduled callback (fault injections, channel timeouts, ...).

The kernel knows nothing about networks or training — it is the neutral
time substrate that :mod:`repro.sim.channel`, :mod:`repro.sim.faults`
and the scheduler's ``engine="event"`` mode all share.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling into the past, bad yields)."""


class Event:
    """Handle for one scheduled callback.

    Returned by :meth:`EventScheduler.schedule` /
    :meth:`~EventScheduler.schedule_at`; supports :meth:`cancel` (the
    callback is skipped when its time comes, O(1) lazily).  ``tag`` is
    an optional caller-chosen label (e.g. ``"fault"``) that
    :meth:`EventScheduler.next_time` can query — the hook the segment-
    batched engine uses to size fusion horizons.
    """

    __slots__ = ("time_s", "seq", "fn", "args", "cancelled", "tag")

    def __init__(self, time_s: float, seq: int,
                 fn: Callable[..., Any], args: tuple,
                 tag: Optional[str] = None):
        self.time_s = time_s
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.tag = tag

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        # Heap order: time first, then scheduling order (FIFO ties).
        return (self.time_s, self.seq) < (other.time_s, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_s:.6f}, seq={self.seq}, {state})"


class EventScheduler:
    """A monotonic discrete-event queue with a simulated clock.

    ``now`` starts at 0.0 and advances only when events fire; wall-clock
    time plays no role.  Events scheduled for the same instant fire in
    the order they were scheduled.
    """

    def __init__(self, start_s: float = 0.0):
        self.now = float(start_s)
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time_s: float, fn: Callable[..., Any],
                    *args, tag: Optional[str] = None) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time_s``."""
        if time_s < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule into the past (t={time_s} < now={self.now})")
        event = Event(max(time_s, self.now), next(self._seq), fn, args, tag)
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay_s: float, fn: Callable[..., Any],
                 *args, tag: Optional[str] = None) -> Event:
        """Schedule ``fn(*args)`` after ``delay_s`` simulated seconds."""
        if delay_s < 0:
            raise SimulationError(f"negative delay {delay_s}")
        return self.schedule_at(self.now + delay_s, fn, *args, tag=tag)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def process(self, generator: Generator[float, None, None]) -> Event:
        """Run a generator as a simulated process.

        Each value the generator yields is a non-negative delay in
        simulated seconds; the scheduler resumes the generator once the
        clock has advanced by that much.  The process starts at the
        current clock (its first segment runs via a zero-delay event, so
        already-queued same-time events keep their FIFO precedence).
        """

        def advance() -> None:
            try:
                delay = next(generator)
            except StopIteration:
                return
            if not isinstance(delay, (int, float)) or delay < 0:
                raise SimulationError(
                    f"process yielded {delay!r}; expected a delay >= 0 s")
            self.schedule(float(delay), advance)

        return self.schedule(0.0, advance)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def next_time(self, tag: str) -> float:
        """Earliest pending time among events scheduled with ``tag``.

        Returns ``inf`` when no such event is pending — the "horizon"
        query: the scheduler's segment-batched engine asks for the next
        ``"fault"`` event to know how far ahead of the clock it may
        safely pre-execute training rounds.  O(queue), which stays tiny
        (one process resume + the unfired faults).
        """
        times = [e.time_s for e in self._heap
                 if e.tag == tag and not e.cancelled]
        return min(times) if times else float("inf")

    def cancel_after(self, tag: str, time_s: float) -> None:
        """Cancel the pending events scheduled with ``tag`` later than
        ``time_s`` (the fault injector's end-of-run disarm)."""
        for event in self._heap:
            if event.tag == tag and event.time_s > time_s:
                event.cancel()

    def step(self) -> bool:
        """Fire the next pending event; returns False when none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time_s
            self.events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def run(self) -> float:
        """Fire events until the queue is empty; returns the final clock."""
        while self.step():
            pass
        return self.now
