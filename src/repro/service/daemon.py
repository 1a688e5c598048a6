"""The asyncio config-knowledge daemon behind ``repro serve``.

One process, one event loop, many concurrent tenants: each client
connection is an asyncio task reading newline-delimited JSON requests
and answering them against a shared :class:`~repro.service.store.
ServiceStore`.  The store is single-threaded by construction (only
the loop touches it), so no locks - concurrency lives entirely in the
socket layer.

Failure discipline:

* protocol garbage from one tenant is answered with an error frame
  and the connection dropped; other tenants never notice;
* a ``service.server``/``crash`` fault (from ``--faults``) makes the
  daemon write *half* a response and sever the connection - the
  injected equivalent of the server dying mid-write, which the client
  must survive by falling back a tier;
* shutdown - the ``shutdown`` op, ``SIGINT``/``SIGTERM``, or
  :meth:`ConfigServiceDaemon.stop` - hangs up on open connections and
  flushes the write-behind buffer with fsync before the process exits,
  so acknowledged writes are durable.

:class:`ThreadedDaemon` runs the same daemon on a background thread
with its own loop - the harness tests, the stress benchmark and the
chaos tools all boot the real server this way instead of mocking it.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import nullcontext
from pathlib import Path

from repro.faults.inject import FaultInjector, make_injector
from repro.faults.plan import FaultPlan
from repro.obs.trace import TraceContext, root_context, traced_span
from repro.service import protocol
from repro.service.store import ServiceStore
from repro.telemetry.bus import bus, telemetry_session
from repro.telemetry.sinks import JsonlSink
from repro.util.log import get_logger

log = get_logger("service.daemon")


class ConfigServiceDaemon:
    """The server: a :class:`ServiceStore` behind an asyncio socket."""

    def __init__(
        self,
        store: ServiceStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: FaultInjector | None = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.faults = faults
        self.requests = 0
        self.protocol_errors = 0
        self.injected_crashes = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        #: open connection -> its handler task, closed on shutdown
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid once :meth:`start` returned
        (``port=0`` requests an ephemeral port from the OS)."""
        if self._server is None:
            raise RuntimeError("daemon is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        log.info(
            "service daemon listening",
            host=self.address[0],
            port=self.address[1],
            entries=len(self.store),
        )

    async def serve_until_stopped(self) -> None:
        assert self._server is not None and self._stopping is not None
        async with self._server:
            await self._stopping.wait()
            # stop accepting, then hang up on every open connection so
            # each handler ends on EOF instead of being cancelled when
            # the loop tears down
            self._server.close()
            handlers = list(self._connections.values())
            for writer in list(self._connections):
                writer.close()
            if handlers:
                await asyncio.wait(handlers)
        self.store.close()
        log.info("service daemon stopped", requests=self.requests)

    def stop(self) -> None:
        """Request shutdown (safe to call from the loop)."""
        if self._stopping is not None:
            self._stopping.set()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if len(line) > protocol.MAX_LINE_BYTES:
                    await self._send(
                        writer, protocol.error("request line too long")
                    )
                    break
                stop_after = False
                try:
                    op, blob = protocol.validate_request(
                        protocol.decode(line)
                    )
                except protocol.ProtocolError as exc:
                    self.protocol_errors += 1
                    response: dict = protocol.error(str(exc))
                    stop_after = True  # drop the misbehaving tenant
                else:
                    response, stop_after = self._dispatch(op, blob)
                alive = await self._send(writer, response)
                if stop_after or not alive:
                    break
        finally:
            del self._connections[writer]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, op: str, blob: dict) -> tuple[dict, bool]:
        self.requests += 1
        tb = bus()
        if not tb.enabled:
            return self._dispatch_op(op, blob)
        tb.count(f"service.daemon.{op}")
        # adopt the caller's trace context from the wire frame (absent
        # on frames from older clients - extra fields are optional both
        # ways) so the serve span becomes a child of the exact client
        # request that produced it, across the process boundary.
        parent = TraceContext.from_traceparent(blob.get("trace"))
        prev = tb.trace
        if parent is not None:
            tb.trace = parent
        try:
            with traced_span("service.serve", op=op):
                served = tb.trace
                response, stop_after = self._dispatch_op(op, blob)
                if parent is not None and served is not None:
                    # tell the client exactly which daemon span
                    # produced its answer
                    response["trace"] = served.to_traceparent()
            return response, stop_after
        finally:
            tb.trace = prev

    def _dispatch_op(self, op: str, blob: dict) -> tuple[dict, bool]:
        tb = bus()
        if op == "ping":
            return protocol.ok(entries=len(self.store)), False
        if op == "get":
            payload = self.store.get(blob["key"])
            if payload is None:
                if tb.enabled:
                    tb.count("service.daemon.get_miss")
                return protocol.ok(hit=False), False
            if tb.enabled:
                tb.count("service.daemon.get_hit")
            return protocol.ok(hit=True, payload=payload), False
        if op == "put":
            self.store.put(blob["key"], blob["payload"])
            return protocol.ok(), False
        if op == "stats":
            return (
                protocol.ok(
                    stats=self.store.stats_json(),
                    requests=self.requests,
                    protocol_errors=self.protocol_errors,
                ),
                False,
            )
        # op == "shutdown": ack, then stop accepting work.
        self.stop()
        return protocol.ok(stopping=True), True

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict
    ) -> bool:
        """Write one response frame; returns False when the connection
        is (or was made) unusable.  The ``service.server`` fault site
        fires here: a ``crash`` writes half the frame and severs the
        connection, simulating the daemon dying mid-write."""
        data = protocol.encode(response)
        if self.faults is not None:
            spec = self.faults.draw("service.server")
            if spec is not None and spec.action == "crash":
                self.injected_crashes += 1
                try:
                    writer.write(data[: max(1, len(data) // 2)])
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                writer.transport.abort()
                return False
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True


async def _serve(daemon: ConfigServiceDaemon) -> None:
    await daemon.start()
    await daemon.serve_until_stopped()


def serve_forever(
    store_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 9178,
    fault_plan: FaultPlan | None = None,
    capacity: int | None = None,
    ready: "threading.Event | None" = None,
    daemon_box: list | None = None,
    telemetry_dir: str | Path | None = None,
) -> None:
    """Blocking entry point for ``repro serve``: build the store, run
    the daemon until ``shutdown``/Ctrl-C, then close (fsync) the
    store.  ``ready``/``daemon_box`` are test hooks: the started
    daemon is appended to ``daemon_box`` and ``ready`` set once the
    socket is bound.  ``telemetry_dir`` installs an enabled bus for
    the daemon's lifetime writing ``daemon.jsonl`` there (serve spans,
    store events, op counters)."""
    session = nullcontext()
    if telemetry_dir is not None:
        # identify by the store *name*, never its absolute path:
        # records must not depend on where the tree was checked out
        identity = {
            "command": "serve",
            "store": Path(store_dir).name,
            "host": host,
            "port": port,
        }
        session = telemetry_session(
            JsonlSink(Path(telemetry_dir) / "daemon.jsonl"),
            trace=root_context(**identity),
            **identity,
        )
    with session:
        kwargs = {} if capacity is None else {"capacity": capacity}
        store = ServiceStore(store_dir, **kwargs)
        daemon = ConfigServiceDaemon(
            store,
            host=host,
            port=port,
            faults=make_injector(fault_plan, salt="server"),
        )

        async def _run() -> None:
            await daemon.start()
            if daemon_box is not None:
                daemon_box.append(daemon)
            if ready is not None:
                ready.set()
            await daemon.serve_until_stopped()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            store.close()


class ThreadedDaemon:
    """A real daemon on a background thread (tests / benchmarks /
    chaos tools).  Use as a context manager::

        with ThreadedDaemon(tmp / "store") as td:
            client = ServiceClient(td.address)
    """

    def __init__(
        self,
        store_dir: str | Path,
        *,
        fault_plan: FaultPlan | None = None,
        capacity: int | None = None,
        port: int = 0,
        telemetry_dir: str | Path | None = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.fault_plan = fault_plan
        self.capacity = capacity
        self.port = port
        #: NOTE: installs a process-wide bus from the daemon thread;
        #: only set this when the host process is not running its own
        #: telemetry session (the in-process bus is shared otherwise,
        #: which is exactly what the propagation tests rely on).
        self.telemetry_dir = telemetry_dir
        self._thread: threading.Thread | None = None
        self._box: list[ConfigServiceDaemon] = []

    def start(self) -> "ThreadedDaemon":
        """Boot (or re-boot) the daemon thread.  After the first start
        the bound port is pinned, so a later :meth:`start` rebinds the
        SAME address - what the kill/restart soak relies on: clients
        holding the address reconnect to the restarted daemon."""
        if self.running:
            raise RuntimeError("daemon thread is already running")
        ready = threading.Event()
        self._box = []
        self._thread = threading.Thread(
            target=serve_forever,
            args=(self.store_dir,),
            kwargs={
                "port": self.port,
                "fault_plan": self.fault_plan,
                "capacity": self.capacity,
                "ready": ready,
                "daemon_box": self._box,
                "telemetry_dir": self.telemetry_dir,
            },
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError("service daemon failed to start")
        self.port = self.address[1]
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "ThreadedDaemon":
        return self.start()

    @property
    def daemon(self) -> ConfigServiceDaemon:
        return self._box[0]

    @property
    def address(self) -> tuple[str, int]:
        return self.daemon.address

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        daemon = self._box[0] if self._box else None
        if daemon is not None and daemon._stopping is not None:
            # hop onto the daemon's loop to set the asyncio event
            try:
                loop = getattr(daemon._server, "get_loop", None)
                if loop is not None:
                    daemon._server.get_loop().call_soon_threadsafe(
                        daemon.stop
                    )
            except RuntimeError:
                pass
        thread.join(timeout=10.0)
        self._thread = None
