"""`repro.serve.service` — the fleet run registry and executor.

:class:`FleetService` hosts many concurrent scheduler runs inside one
asyncio process: each submitted run gets a fresh
:class:`~repro.obs.telemetry.TelemetryBus`, a
:class:`~repro.serve.commands.RunController`, an
:class:`~repro.serve.bridge.AsyncTelemetryBridge` for subscribers and
a :class:`~repro.obs.metrics.MetricsCollector`, then executes
``scheduler.run`` on a thread-pool worker.  The asyncio loop itself
never blocks on simulation work; it only multiplexes event streams
and control requests.

Runs come from two doors:

* :meth:`FleetService.submit_spec` — a plain-dict spec (the TCP
  ``submit`` op), built through
  :func:`build_scheduler_from_spec` /
  :func:`~repro.scale.sharding.default_fleet_builder`; its faults are
  declared up front in the spec;
* :meth:`FleetService.register_external` — a run executing elsewhere
  (e.g. ``python -m repro.experiments ... --serve``) that only wants
  its bus observable; no controller, so pause/resume/cancel are
  rejected.

Bit-identity: attaching a service adds a bus subscriber and a
controller — neither draws randomness nor perturbs accumulation — so
an uncancelled service run produces digest-equal clock / ledger /
report / RNG state vs the same seed offline (asserted in
``tests/test_serve_control_plane.py``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from ..obs.metrics import MetricsCollector
from ..obs.telemetry import TelemetryBus
from ..scale.sharding import (FLEET_PARAM_KEYS, FleetJob,
                              default_fleet_builder, reject_unknown_keys)
from ..sim.faults import FaultEvent, FaultSchedule
from .bridge import AsyncTelemetryBridge, EventStream
from .commands import RunController

__all__ = ["FleetService", "RunHandle", "build_scheduler_from_spec"]


#: Every key :func:`build_scheduler_from_spec` reads.
SPEC_KEYS = FLEET_PARAM_KEYS | {"seed", "faults", "name"}


def build_scheduler_from_spec(spec: Dict[str, Any],
                              telemetry: Optional[TelemetryBus] = None,
                              control: Optional[RunController] = None):
    """Build a scheduler from a plain-JSON run spec.

    Reuses :func:`~repro.scale.sharding.default_fleet_builder`'s
    parameter vocabulary (``clusters``, ``devices``, ``batch_size``,
    ``engine``, ``policy``, ``loss``, ``retries``, ``recovery``,
    ``deadline_s``, ``battery_j``, ``seed_base``, ``rounds_data``)
    plus:

    * ``seed`` — the fleet RNG seed (default 0);
    * ``faults`` — a list of :class:`~repro.sim.faults.FaultEvent`
      field dicts (requires ``engine: "event"``).

    ``name`` labels the run.  Service-level keys (``rounds``,
    ``paused``) are consumed by :meth:`FleetService.submit_spec` before
    this runs.  Any other key raises ``ValueError``.
    """
    reject_unknown_keys(spec, SPEC_KEYS, "run spec")
    params = dict(spec)
    seed = int(params.pop("seed", 0))
    faults = params.pop("faults", None)
    job = FleetJob(fleet_id=0, name=str(params.pop("name", "fleet")),
                   params=params)
    scheduler = default_fleet_builder(
        job, None, np.random.default_rng(seed), telemetry=telemetry)
    if faults:
        if scheduler.engine != "event":
            raise ValueError(
                "spec includes 'faults' but engine is "
                f"{scheduler.engine!r}; fault schedules require "
                "engine: 'event'")
        scheduler.fault_schedule = FaultSchedule(
            FaultEvent(**event) for event in faults)
    scheduler.control = control
    return scheduler


class RunHandle:
    """One hosted run: identity, wiring, and lifecycle state.

    ``state`` walks pending -> running -> done | failed | cancelled.
    :attr:`status` reads ``"paused"`` instead while the controller is
    paused and the run has not finished.  External runs
    (``external=True``) are observe-only: no controller, no report.
    """

    def __init__(self, run_id: str, name: str, *,
                 scheduler=None, rounds: int = 0,
                 bus: TelemetryBus, bridge: AsyncTelemetryBridge,
                 controller: Optional[RunController] = None,
                 collector: Optional[MetricsCollector] = None,
                 external: bool = False) -> None:
        self.run_id = run_id
        self.name = name
        self.scheduler = scheduler
        self.rounds = rounds
        self.bus = bus
        self.bridge = bridge
        self.controller = controller
        self.collector = collector
        self.external = external
        self.state = "running" if external else "pending"
        self.report = None
        self.error: Optional[str] = None
        self.done = asyncio.Event()

    @property
    def status(self) -> str:
        """``state``, or ``"paused"`` while the unfinished run is paused."""
        if (self.state in ("pending", "running")
                and self.controller is not None and self.controller.paused):
            return "paused"
        return self.state

    def describe(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "run": self.run_id, "name": self.name, "state": self.status,
            "external": self.external,
        }
        if self.scheduler is not None:
            info["engine"] = self.scheduler.engine
            info["policy"] = self.scheduler.policy
            info["clusters"] = len(self.scheduler.clusters)
            info["rounds"] = self.rounds
        if self.error is not None:
            info["error"] = self.error
        if self.report is not None:
            report = self.report
            info["report"] = {
                "makespan_s": report.makespan_s,
                "rounds_per_cluster": report.rounds_per_cluster,
                "deadline_misses": report.deadline_misses,
                "dead_clusters": report.dead_clusters,
                "retirement_reasons": report.retirement_reasons,
                "faults_applied": report.faults_applied,
                "fused_rounds": report.fused_rounds,
                "segments": report.segments,
                "halted": report.halted,
                "engine": report.engine,
            }
        return info


class FleetService:
    """Hosts, executes, observes and pauses/cancels many scheduler runs.

    Must be started (``await service.start()``) from the event loop
    that will own it; the thread-safe entry points
    (:meth:`register_external`, :meth:`finish_external`) proxy into
    that loop so a sync caller — the experiments CLI — can drive a
    service running on a background thread.
    """

    def __init__(self, max_workers: int = 4) -> None:
        self._max_workers = max_workers
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._runs: Dict[str, RunHandle] = {}
        self._next_id = 0
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "FleetService":
        self._loop = asyncio.get_running_loop()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="fleet-run")
        return self

    async def close(self) -> None:
        """Cancel live runs, wait for workers, end every stream."""
        if self._closed:
            return
        self._closed = True
        for handle in self._runs.values():
            if handle.controller is not None and not handle.done.is_set():
                handle.controller.cancel()
        for handle in self._runs.values():
            if not handle.external:
                await handle.done.wait()
            handle.bridge.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # -- registry ---------------------------------------------------------

    @property
    def runs(self) -> Dict[str, RunHandle]:
        return self._runs

    def get(self, run_id: str) -> RunHandle:
        handle = self._runs.get(run_id)
        if handle is None:
            raise KeyError(f"unknown run {run_id!r}; "
                           f"known: {sorted(self._runs)}")
        return handle

    def list_runs(self) -> List[Dict[str, Any]]:
        return [self._runs[run_id].describe()
                for run_id in sorted(self._runs)]

    def _allocate_id(self) -> str:
        self._next_id += 1
        return f"run-{self._next_id}"

    # -- submission (event-loop thread) -----------------------------------

    def submit_spec(self, spec: Dict[str, Any]) -> RunHandle:
        """Build and launch a run from a plain-dict spec."""
        if self._loop is None or self._pool is None:
            raise RuntimeError("FleetService not started — await start()")
        if self._closed:
            raise RuntimeError("FleetService is closed")
        spec = dict(spec)
        rounds = int(spec.pop("rounds", 30))
        controller = RunController(paused=bool(spec.pop("paused", False)))
        bus = TelemetryBus()
        scheduler = build_scheduler_from_spec(spec, telemetry=bus,
                                              control=controller)
        handle = RunHandle(
            self._allocate_id(), str(spec.get("name", "fleet")),
            scheduler=scheduler, rounds=rounds,
            bus=bus, bridge=AsyncTelemetryBridge(bus, self._loop),
            controller=controller, collector=MetricsCollector(bus))
        self._runs[handle.run_id] = handle
        self._pool.submit(self._execute, handle)
        return handle

    def register_external(self, name: str, bus: TelemetryBus) -> RunHandle:
        """Expose an elsewhere-executing run's bus to subscribers.

        Thread-safe: proxies into the service loop when called from
        another thread (the ``--serve`` experiment path).  Call
        :meth:`finish_external` when the run ends so subscribers see a
        clean end-of-stream.
        """
        def register() -> RunHandle:
            if self._loop is None:
                raise RuntimeError("FleetService not started")
            handle = RunHandle(
                self._allocate_id(), name, bus=bus,
                bridge=AsyncTelemetryBridge(bus, self._loop),
                collector=MetricsCollector(bus), external=True)
            self._runs[handle.run_id] = handle
            return handle
        return self._call_in_loop(register)

    def finish_external(self, handle: RunHandle,
                        state: str = "done") -> None:
        def finish() -> None:
            handle.state = state
            handle.done.set()
            handle.bridge.close()
        self._call_in_loop(finish)

    # -- thread-safe proxy ------------------------------------------------

    def _call_in_loop(self, fn: Callable[[], Any], timeout: float = 30.0):
        if self._loop is None:
            raise RuntimeError("FleetService not started — await start()")
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            return fn()
        future: concurrent.futures.Future = concurrent.futures.Future()

        def call() -> None:
            try:
                future.set_result(fn())
            except Exception as exc:   # delivered to the caller
                future.set_exception(exc)

        self._loop.call_soon_threadsafe(call)
        return future.result(timeout=timeout)

    # -- streaming --------------------------------------------------------

    def stream_for(self, handle: RunHandle,
                   kinds: Optional[Iterable[str]] = None,
                   capacity: int = 4096) -> EventStream:
        return handle.bridge.stream(kinds=kinds, capacity=capacity)

    async def wait(self, handle: RunHandle):
        """Await a hosted run's completion; returns its report."""
        await handle.done.wait()
        return handle.report

    # -- worker thread ----------------------------------------------------

    def _execute(self, handle: RunHandle) -> None:
        handle.state = "running"
        try:
            # A run submitted paused starts only once resumed, so a
            # subscriber attached meanwhile sees even its t=0 faults.
            # (A cancel lets it start and stop at its first boundary.)
            handle.controller.checkpoint(0)
            handle.report = handle.scheduler.run(handle.rounds)
        except Exception as exc:
            handle.error = f"{type(exc).__name__}: {exc}"
            handle.state = "failed"
        else:
            handle.state = ("cancelled" if handle.controller.cancelled
                            else "done")
        finally:
            if self._loop is not None and not self._loop.is_closed():
                self._loop.call_soon_threadsafe(self._settle, handle)

    def _settle(self, handle: RunHandle) -> None:
        handle.done.set()
        handle.bridge.close()
