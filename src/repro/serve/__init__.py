"""`repro.serve` — the orchestration control plane.

Long-running asyncio service hosting many concurrent scheduler runs,
each declared up front (fleet parameters and a fault schedule),
observable (live telemetry streams, Prometheus metrics) and
pausable/cancellable while executing — without perturbing the
simulation: a run with an attached service is bit-identical to the
same run offline unless it is cancelled.

Layers:

* :mod:`repro.serve.bridge` — sync TelemetryBus -> bounded asyncio
  event streams (non-blocking producers, counted drops);
* :mod:`repro.serve.commands` — the pause/resume/cancel controller
  consulted at safe between-round boundaries;
* :mod:`repro.serve.service` — the run registry + thread-pool
  executor (:class:`FleetService`);
* :mod:`repro.serve.protocol` — line-delimited JSON over TCP
  (:class:`ControlPlaneServer` / :class:`ControlPlaneClient`,
  :func:`serve_in_thread` for sync hosts);
* :mod:`repro.serve.dashboard` — live TUI
  (``python -m repro.serve.dashboard``).
"""

from .bridge import AsyncTelemetryBridge, EventStream
from .commands import RunController
from .dashboard import FleetDashboard
from .protocol import ControlPlaneClient, ControlPlaneServer, serve_in_thread
from .service import FleetService, RunHandle, build_scheduler_from_spec

__all__ = [
    "AsyncTelemetryBridge", "EventStream",
    "RunController",
    "FleetDashboard",
    "ControlPlaneClient", "ControlPlaneServer", "serve_in_thread",
    "FleetService", "RunHandle", "build_scheduler_from_spec",
]
