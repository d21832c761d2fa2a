"""`repro.serve.protocol` — line-delimited JSON control plane over TCP.

Pure stdlib (``asyncio.start_server``): each request is one JSON
object on one line; each reply is one JSON line with ``"ok"`` set.
``subscribe`` is the only streaming op — it emits ``{"event": ...}``
lines (plus periodic ``{"metrics_snapshot": ...}`` lines) until the
run ends, then a final ``{"done": true, ...}`` line, after which the
connection is ready for further requests.

Request vocabulary (``op`` selects):

========== ============================================================
op          payload
========== ============================================================
ping        —
submit      ``spec`` — run spec for :func:`build_scheduler_from_spec`
            (plus service keys ``rounds``, ``paused``, ``name``);
            faults are declared in its ``faults`` list
list        —
status      ``run``
cancel      ``run``
pause       ``run``
resume      ``run``
metrics     ``run`` — replies with Prometheus text + the flat mapping
subscribe   ``run``, ``kinds`` (optional list of event kinds from
            :data:`~repro.obs.telemetry.EVENT_TYPES`), ``metrics_every``
            (snapshot every N events, 0 = never), ``max_events``
            (0 = unbounded)
========== ============================================================

Errors never kill the connection: a malformed line or failed op gets
``{"ok": false, "error": "..."}`` and the loop reads the next line.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from types import SimpleNamespace
from typing import Any, AsyncIterator, Dict, List, Optional

from ..obs.exporters import render_prometheus
from ..obs.telemetry import EVENT_TYPES
from .service import FleetService, RunHandle

__all__ = ["ControlPlaneClient", "ControlPlaneServer", "serve_in_thread"]

_MAX_LINE = 1 << 20


def _event_kinds(kinds: Any) -> Optional[List[str]]:
    """Validate a ``subscribe`` request's ``kinds`` (None = every kind)."""
    if kinds is None:
        return None
    if not (isinstance(kinds, list)
            and all(isinstance(kind, str) for kind in kinds)):
        raise ValueError(f"'kinds' must be a list of event kinds, "
                         f"got {kinds!r}")
    unknown = sorted(set(kinds) - set(EVENT_TYPES))
    if unknown:
        raise ValueError(f"unknown event kinds {unknown}; "
                         f"known: {sorted(EVENT_TYPES)}")
    return kinds


class ControlPlaneServer:
    """Serves a :class:`FleetService` over line-JSON TCP."""

    def __init__(self, service: FleetService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "ControlPlaneServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_LINE)
        # Resolve the kernel-assigned port when asked for port 0.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection loop --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {
                        "ok": False, "error": "request line too long"})
                    continue
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    request = json.loads(text)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    await self._send(writer, {
                        "ok": False, "error": f"bad request: {exc}"})
                    continue
                try:
                    await self._dispatch(request, writer)
                except (ConnectionResetError, BrokenPipeError):
                    return
                except Exception as exc:
                    await self._send(writer, {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}"})
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # Close without awaiting: loop shutdown may cancel this
            # handler mid-await, and a logged CancelledError is noise.
            with contextlib.suppress(Exception):
                writer.close()

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    # -- ops --------------------------------------------------------------

    async def _dispatch(self, request: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True})
        elif op == "submit":
            spec = request.get("spec")
            if not isinstance(spec, dict):
                raise ValueError("submit needs a 'spec' object")
            handle = self.service.submit_spec(spec)
            await self._send(writer, {"ok": True, **handle.describe()})
        elif op == "list":
            await self._send(writer, {
                "ok": True, "runs": self.service.list_runs()})
        elif op == "status":
            handle = self._handle_for(request)
            await self._send(writer, {"ok": True, **handle.describe()})
        elif op == "cancel":
            handle = self._handle_for(request)
            self._controller_for(handle).cancel()
            await self._send(writer, {"ok": True, "run": handle.run_id,
                                      "cancelling": True})
        elif op == "pause":
            handle = self._handle_for(request)
            self._controller_for(handle).pause()
            await self._send(writer, {"ok": True, "run": handle.run_id,
                                      "paused": True})
        elif op == "resume":
            handle = self._handle_for(request)
            self._controller_for(handle).resume()
            await self._send(writer, {"ok": True, "run": handle.run_id,
                                      "paused": False})
        elif op == "metrics":
            handle = self._handle_for(request)
            collector = handle.collector
            if collector is None:
                raise ValueError(f"run {handle.run_id!r} has no collector")
            await self._send(writer, {
                "ok": True, "run": handle.run_id,
                "prometheus": render_prometheus(collector),
                "flat": collector.flat()})
        elif op == "subscribe":
            await self._op_subscribe(request, writer)
        else:
            raise ValueError(f"unknown op {op!r}")

    def _handle_for(self, request: Dict[str, Any]) -> RunHandle:
        run_id = request.get("run")
        if not run_id:
            raise ValueError("missing 'run' field")
        return self.service.get(str(run_id))

    def _controller_for(self, handle: RunHandle):
        if handle.controller is None:
            raise ValueError(
                f"run {handle.run_id!r} is external (observe-only); "
                "it accepts no control commands")
        return handle.controller

    async def _op_subscribe(self, request: Dict[str, Any],
                            writer: asyncio.StreamWriter) -> None:
        handle = self._handle_for(request)
        kinds = _event_kinds(request.get("kinds"))
        metrics_every = int(request.get("metrics_every", 0))
        max_events = int(request.get("max_events", 0))
        stream = self.service.stream_for(handle, kinds=kinds)
        seen = 0
        try:
            await self._send(writer, {"ok": True, "run": handle.run_id,
                                      "subscribed": True})
            while True:
                event = await stream.next()
                if event is None:
                    break
                seen += 1
                await self._send(writer, {"event": event.as_dict()})
                if metrics_every and seen % metrics_every == 0:
                    snapshot = (handle.collector.flat()
                                if handle.collector is not None else {})
                    await self._send(writer, {
                        "metrics_snapshot": snapshot,
                        "dropped": stream.dropped})
                if max_events and seen >= max_events:
                    break
            await self._send(writer, {
                "done": True, "run": handle.run_id, "state": handle.status,
                "events": seen, "delivered": stream.delivered,
                "dropped": stream.dropped})
        finally:
            stream.close()


class ControlPlaneClient:
    """Async line-JSON client for :class:`ControlPlaneServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "ControlPlaneClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_MAX_LINE)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
                await self._writer.wait_closed()
            self._reader = self._writer = None

    async def __aenter__(self) -> "ControlPlaneClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _read_reply(self) -> Dict[str, Any]:
        assert self._reader is not None, "client not connected"
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("control plane closed the connection")
        return json.loads(line)

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request, one reply; raises RuntimeError on error replies."""
        assert self._writer is not None, "client not connected"
        payload = {"op": op, **fields}
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()
        reply = await self._read_reply()
        if not reply.get("ok", False):
            raise RuntimeError(
                f"control plane rejected {op!r}: {reply.get('error')}")
        return reply

    async def open_subscription(self, run: str, *, kinds=None,
                                metrics_every: int = 0,
                                max_events: int = 0,
                                ) -> AsyncIterator[Dict[str, Any]]:
        """Open a subscription eagerly and return its line iterator.

        Returns only after the server confirms the stream is attached,
        so a ``resume`` issued on *another* connection afterwards
        cannot race the subscription (the paused-submit -> subscribe ->
        resume recipe for observing a run's very first events).
        """
        fields: Dict[str, Any] = {"run": run, "metrics_every": metrics_every,
                                  "max_events": max_events}
        if kinds is not None:
            fields["kinds"] = list(kinds)
        await self.request("subscribe", **fields)

        async def lines() -> AsyncIterator[Dict[str, Any]]:
            while True:
                line = await self._read_reply()
                yield line
                if line.get("done") or line.get("ok") is False:
                    return

        return lines()

    async def subscribe(self, run: str, *, kinds=None,
                        metrics_every: int = 0, max_events: int = 0,
                        ) -> AsyncIterator[Dict[str, Any]]:
        """Yield stream lines (event / metrics_snapshot / done) for a run.

        The ``done`` line is yielded too, then iteration stops and the
        connection is ready for further :meth:`request` calls.  Lazy:
        the subscription opens at first iteration — use
        :meth:`open_subscription` when attachment order matters.
        """
        lines = await self.open_subscription(
            run, kinds=kinds, metrics_every=metrics_every,
            max_events=max_events)
        async for line in lines:
            yield line


@contextlib.contextmanager
def serve_in_thread(host: str = "127.0.0.1", port: int = 0,
                    max_workers: int = 4):
    """Host a FleetService + ControlPlaneServer on a background thread.

    For synchronous callers (experiments, examples, tests): yields a
    namespace with ``host``, ``port``, ``service``, ``server`` and
    ``loop``; on exit, cancels live runs and tears the server down.
    The thread-safe service entry points (``register_external``,
    ``finish_external``) may be called directly on ``box.service``
    from the caller's thread.
    """
    box = SimpleNamespace(service=None, server=None, loop=None,
                          host=host, port=None, error=None)
    started = threading.Event()
    stop_box: Dict[str, Any] = {}

    async def main() -> None:
        try:
            service = await FleetService(max_workers=max_workers).start()
            server = await ControlPlaneServer(service, host, port).start()
        except Exception as exc:
            box.error = exc
            started.set()
            return
        stop = asyncio.Event()
        stop_box["stop"] = stop
        box.service = service
        box.server = server
        box.loop = asyncio.get_running_loop()
        box.port = server.port
        started.set()
        await stop.wait()
        await server.close()
        await service.close()

    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              name="control-plane", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("control plane failed to start within 30s")
    if box.error is not None:
        thread.join(timeout=5.0)
        raise box.error
    try:
        yield box
    finally:
        box.loop.call_soon_threadsafe(stop_box["stop"].set)
        thread.join(timeout=60.0)
