"""`repro.serve.commands` — the run controller: pause, resume, cancel.

A :class:`RunController` is the duck-typed object
:class:`~repro.core.scheduler.EdgeTrainingScheduler` consults at every
between-round boundary (``control=`` parameter) of the event kernel
and of the ideal round loop (sequential engine, batched replay):

* **pause/resume** — the simulation thread blocks on a
  ``threading.Event`` at the next boundary; only *wall* clock passes,
  the simulated clock and every trajectory are untouched;
* **cancel** — honoured at the first boundary where the executor has
  zero pre-executed rounds outstanding, so
  :meth:`~repro.core.rounds.SegmentedFleetExecutor.finalize` stays
  safe and a partial :class:`~repro.core.rounds.ScheduleReport` is
  still produced.  While a cancel pends, the controller's
  :meth:`has_pending` gate makes the fused planner clamp to
  requesting-round-only plans (bound ``"command-pending"``), so
  outstanding work drains within one boundary instead of waiting out
  a whole-run plan.

Faults are declared up front (the run spec's ``faults``); a run is
never mutated while it trains.  The hot path is two attribute reads:
``checkpoint`` returns immediately unless a pause or cancel is
pending, which is what keeps the telemetry-overhead ceiling intact
with a controller attached but idle.
"""

from __future__ import annotations

import threading

__all__ = ["RunController"]


class RunController:
    """Between-round pause/cancel state for one scheduler run.

    Thread model: ``pause``/``resume``/``cancel`` may be called from
    any thread; ``checkpoint`` runs on the simulation thread.
    """

    def __init__(self, paused: bool = False) -> None:
        self._lock = threading.Lock()
        self._resume = threading.Event()
        self.paused = paused
        if not paused:
            self._resume.set()
        self.cancelled = False

    # -- control surface (any thread) -----------------------------------

    def pause(self) -> None:
        with self._lock:
            self.paused = True
            self._resume.clear()

    def resume(self) -> None:
        with self._lock:
            self.paused = False
            self._resume.set()

    def cancel(self) -> None:
        """Request a stop at the next safe boundary (never mid-round).

        A paused run wakes up to drain towards that boundary.
        """
        with self._lock:
            self.cancelled = True
            self.paused = False
            self._resume.set()

    def has_pending(self) -> bool:
        """Command gate for the fused planner: clamp once a cancel pends."""
        return self.cancelled

    # -- simulation-thread side ------------------------------------------

    def checkpoint(self, outstanding: int) -> bool:
        """The one between-round boundary hook; False stops the run.

        ``outstanding`` counts the rounds the executor has pre-executed
        but the kernel has not consumed (0 on the ideal engines and the
        unfused event engine).  A pause blocks here; a cancel stops the
        run only once nothing is outstanding.
        """
        if self.paused:
            self._resume.wait()
        return not (self.cancelled and outstanding == 0)
