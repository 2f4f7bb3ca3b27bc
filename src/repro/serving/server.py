"""The JSON-lines TCP daemon and its async client.

:class:`GatewayServer` exposes an :class:`~repro.core.gateway.AsyncGateway`
over a stdlib :func:`asyncio.start_server` socket: one JSON request per
line in, one JSON response per line out (:mod:`repro.serving.protocol`).
Each request line is served as its own task, so a pipelining client — or
many concurrent clients — lands its requests in the gateway's admission
queue *concurrently*, which is exactly what lets the gateway batch and
coalesce them; responses therefore return in completion order, paired to
requests by the echoed ``id``.

:class:`AsyncConnectorClient` is the matching client: it multiplexes any
number of in-flight ``solve`` calls over one connection, pairing
responses by ``id``.  The round-trip tests and the gateway benchmark
drive the server through it, and ``examples/serving_gateway.py`` shows it
against a live ``repro serve``.

Lifecycle: the server owns only the sockets.  The gateway and its
backing service belong to the caller (the CLI closes all three in
order), and a ``{"op": "shutdown"}`` request resolves
:meth:`GatewayServer.wait_shutdown` so that caller knows when to start
tearing down — the remote-stop path the tests use to check that no shard
process outlives the daemon.
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.core.gateway import service_health
from repro.core.options import SolveOptions
from repro.core.versioned import GraphDelta
from repro.errors import ServerStateError
from repro.serving.protocol import (
    decode_line,
    encode_line,
    options_from_payload,
    result_to_payload,
)

__all__ = ["AsyncConnectorClient", "GatewayServer", "ServerError"]

#: Per-line buffer bound (a query of tens of thousands of vertex ids).
LINE_LIMIT = 1 << 20


class ServerError(RuntimeError):
    """A server-side failure response, re-raised client-side.

    Carries the server's ``error_type`` (the original exception class
    name) so callers can distinguish a bad query from an internal fault.
    """

    def __init__(self, message: str, error_type: str = "") -> None:
        super().__init__(message)
        self.error_type = error_type


class GatewayServer:
    """Serve one gateway on a TCP port, one JSON line per request.

    ``max_pipelined`` bounds the request tasks live per connection: once
    a client has that many unanswered requests, the read loop stops
    pulling lines, TCP flow control pushes back on the sender, and the
    gateway's admission backpressure actually reaches the socket instead
    of being buffered away into unbounded task memory.
    """

    def __init__(
        self,
        gateway,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pipelined: int = 64,
        close_grace_seconds: float = 30.0,
    ) -> None:
        if max_pipelined < 1:
            raise ValueError(
                f"max_pipelined must be at least 1, got {max_pipelined}"
            )
        if close_grace_seconds <= 0:
            raise ValueError(
                f"close_grace_seconds must be positive, got {close_grace_seconds}"
            )
        self._gateway = gateway
        self._host = host
        self._port = port
        self._max_pipelined = max_pipelined
        # Longest aclose() waits for in-flight request tasks (solve +
        # response write) before force-closing transports.  The bound
        # exists for hostile peers — a client that stops reading its
        # socket blocks writer.drain() forever — so keep it comfortably
        # above the slowest legitimate solve, or computed answers are
        # forfeited at shutdown.
        self._close_grace = close_grace_seconds
        self._server: asyncio.base_events.Server | None = None
        self._request_tasks: set[asyncio.Task] = set()
        self._connection_tasks: set[asyncio.Task] = set()
        self._connection_writers: set = set()
        self._shutdown = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (the OS-assigned one when constructed with 0).

        Reports the first listening socket.  With ``port=0`` and a
        *dual-stack* host name (e.g. ``localhost`` resolving to both
        ``127.0.0.1`` and ``::1``) each address family gets its own
        ephemeral port, so bind a single-family address (the default
        ``127.0.0.1``) when asking the OS to pick the port.
        """
        if self._server is None:
            raise ServerStateError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def addresses(self) -> list[tuple]:
        """``(host, port)`` of every bound socket (dual-stack hosts may
        hold several, with *different* ephemeral ports under ``port=0``)."""
        if self._server is None:
            raise ServerStateError("server is not started")
        return [sock.getsockname()[:2] for sock in self._server.sockets]

    @property
    def host(self) -> str:
        return self._host

    async def start(self) -> "GatewayServer":
        """Bind and start accepting connections; returns ``self``."""
        if self._server is not None:
            raise ServerStateError("server is already started")
        # A fresh event per run: aclose() latches the old one to release
        # its waiters, and a restarted server must not inherit that.
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, limit=LINE_LIMIT
        )
        return self

    async def wait_shutdown(self) -> None:
        """Block until a ``{"op": "shutdown"}`` request has been answered."""
        await self._shutdown.wait()

    async def aclose(self) -> None:
        """Stop accepting, finish in-flight request tasks, close sockets.

        The gateway and its backing service are deliberately left open —
        they belong to the caller (and may outlive several servers).
        """
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        # A connection accepted just before close may have its handler
        # task created but not yet run (so not yet registered); one loop
        # yield lets every such handler register itself before we sweep.
        await asyncio.sleep(0)
        # Answer what is already in flight *before* touching transports —
        # closing first would compute those responses and then drop them
        # on the closed socket.  The grace bound keeps a stalled peer
        # (drain() blocked on an unread socket) or a greedy pipeliner
        # from holding shutdown hostage; past it, they forfeit their
        # answers when the transports close below.
        stalled = False
        try:
            await asyncio.wait_for(
                self._drain_request_tasks(), timeout=self._close_grace
            )
        except asyncio.TimeoutError:  # pragma: no cover - hostile peer
            # A peer stopped reading: its writer.drain() waiters can hold
            # this drain open forever.  Escalate to transport.abort()
            # below — a graceful close cannot flush to a dead reader, so
            # it would never reach connection_lost either.
            stalled = True
        # Idle connections sit blocked in readline() forever.  Closing
        # their transports feeds them EOF so the handler tasks finish on
        # their own — cancelling them instead trips the 3.11 asyncio
        # streams wart where the protocol's done-callback re-raises the
        # CancelledError into the loop's exception handler.  (A line that
        # sneaks in between the drain above and this close is answered by
        # the handler's own final gather, write permitting.)  asyncio.wait
        # (not gather+wait_for) so a timeout never cancels the handlers;
        # any connection still stuck after a grace period gets aborted on
        # the next pass.
        while self._connection_tasks:
            for writer in list(self._connection_writers):
                if stalled:  # pragma: no cover - hostile peer
                    writer.transport.abort()
                else:
                    writer.close()
            _done, pending = await asyncio.wait(
                tuple(self._connection_tasks), timeout=self._close_grace
            )
            if pending:  # pragma: no cover - hostile peer
                stalled = True
        self._server = None
        self._shutdown.set()  # unblock any waiter even on a local close

    async def _drain_request_tasks(self) -> None:
        while self._request_tasks:
            await asyncio.gather(
                *tuple(self._request_tasks), return_exceptions=True
            )

    async def __aenter__(self) -> "GatewayServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        pipeline_slots = asyncio.Semaphore(self._max_pipelined)
        self._connection_tasks.add(asyncio.current_task())
        self._connection_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):  # over-long or reset
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Stop reading once the pipeline is full — flow control
                # is the only backpressure a socket peer can feel.
                await pipeline_slots.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._request_tasks.discard)
                task.add_done_callback(lambda _t: pipeline_slots.release())
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
        finally:
            self._connection_tasks.discard(asyncio.current_task())
            self._connection_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    async def _serve_line(self, line: bytes, writer, write_lock) -> None:
        """Answer one request line; failures fail the request, not the link."""
        request_id = None
        is_shutdown = False
        try:
            message = decode_line(line)
            request_id = message.get("id")
            if "op" in message:
                response, is_shutdown = await self._control(message)
            else:
                response = await self._solve(message)
        except Exception as exc:  # noqa: BLE001 - reported on the wire
            response = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        response["id"] = request_id
        try:
            async with write_lock:
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer went away; nothing left to tell it
        # Even when the acknowledgement could not be delivered (the peer
        # fired shutdown and hung up), the accepted shutdown must happen —
        # dropping it would leave the daemon running forever.
        if is_shutdown:
            self._shutdown.set()

    async def _solve(self, message: dict) -> dict:
        query = message.get("query")
        if not isinstance(query, list) or not query:
            raise ValueError('a solve request needs a non-empty "query" array')
        options = None
        if message.get("options") is not None:
            options = options_from_payload(message["options"])
        result = await self._gateway.asolve(query, options)
        return {"ok": True, "result": result_to_payload(result)}

    async def _control(self, message: dict) -> tuple[dict, bool]:
        op = message["op"]
        if op == "ping":
            return {"ok": True, "pong": True}, False
        if op == "stats":
            payload = {"gateway": dataclasses.asdict(self._gateway.stats())}
            # aservice_stats serializes with the solve windows on the
            # gateway's executor — calling the backing service directly
            # here would race a sharded service's shard links mid-window.
            service_stats = await self._gateway.aservice_stats()
            if service_stats is not None:
                payload["service"] = dataclasses.asdict(service_stats)
            # The degraded-mode verdict (replicated rings report dead
            # slots and failover counters) — what supervisors poll.
            payload["health"] = service_health(service_stats)
            return {"ok": True, "stats": payload}, False
        if op == "mutate":
            # The delta arrives as plain edge lists, and
            # GraphDelta.from_payload validates shape and content.
            # amutate serializes the epoch flip with the solve windows on
            # the gateway's executor.
            delta = GraphDelta.from_payload(message.get("delta"))
            epoch = await self._gateway.amutate(delta)
            return {"ok": True, "epoch": epoch}, False
        if op == "shutdown":
            # The flag defers the event until *after* this response is on
            # the wire, so the requester always sees its acknowledgement.
            return {"ok": True, "shutting_down": True}, True
        raise ValueError(
            f"unknown op {op!r}; choose from "
            "('ping', 'stats', 'mutate', 'shutdown')"
        )


class AsyncConnectorClient:
    """A multiplexing JSON-lines client for :class:`GatewayServer`.

    Any number of :meth:`solve` calls may be in flight concurrently over
    the one connection; a background reader task pairs responses to
    callers by ``id``.  Usable as an async context manager.
    """

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0
    ) -> "AsyncConnectorClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=LINE_LIMIT
        )
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = decode_line(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except Exception as exc:  # noqa: BLE001 - forwarded to awaiters
            error = exc
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    error or ConnectionError("server closed the connection")
                )
        self._pending.clear()

    async def request(self, message: dict) -> dict:
        """Send one raw message and await its paired response."""
        if self._read_task.done():
            raise ConnectionError("client connection is closed")
        request_id = self._next_id
        self._next_id += 1
        message = dict(message, id=request_id)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(encode_line(message))
            await self._writer.drain()
        except BaseException:
            # The caller gets this error directly; leaving the future in
            # _pending would make the read loop fail it with no awaiter
            # ("Future exception was never retrieved" at GC).
            self._pending.pop(request_id, None)
            raise
        return await future

    async def _checked_request(self, message: dict, default_error: str) -> dict:
        """Send one message; a failure envelope raises :class:`ServerError`."""
        response = await self.request(message)
        if not response.get("ok"):
            raise ServerError(
                response.get("error", default_error),
                response.get("error_type", ""),
            )
        return response

    async def solve(self, query, options=None) -> dict:
        """Solve one query; returns the connector document (``"result"``).

        ``options`` may be a :class:`SolveOptions` (serialized in full) or
        a plain dict of field overrides.
        """
        message: dict = {"query": list(query)}
        if isinstance(options, SolveOptions):
            message["options"] = dataclasses.asdict(options)
        elif options is not None:
            message["options"] = dict(options)
        return (await self._checked_request(message, "request failed"))["result"]

    async def stats(self) -> dict:
        response = await self._checked_request({"op": "stats"}, "stats failed")
        return response["stats"]

    async def ping(self) -> bool:
        response = await self.request({"op": "ping"})
        return bool(response.get("pong"))

    async def mutate(self, delta) -> int:
        """Apply a graph delta server-side; returns the new epoch.

        ``delta`` may be a :class:`~repro.core.versioned.GraphDelta` or
        its plain-JSON payload dict (``{"insert": [...], "delete": [...],
        "reweight": [...]}``).
        """
        payload = delta.to_payload() if isinstance(delta, GraphDelta) else dict(delta)
        response = await self._checked_request(
            {"op": "mutate", "delta": payload}, "mutate failed"
        )
        return int(response["epoch"])

    async def shutdown_server(self) -> None:
        """Ask the server to shut down gracefully (acknowledged)."""
        await self._checked_request({"op": "shutdown"}, "shutdown failed")

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # server side already gone
        await self._read_task

    async def __aenter__(self) -> "AsyncConnectorClient":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.aclose()
