"""The shard wire: replicated scatter/gather over sockets.

The paper's §6.6 concedes single-machine memory limits and points at
parallel computation at scale; the systems answer in this reproduction is
a :class:`~repro.core.sharded.ShardedConnectorService` router (and
therefore one :class:`~repro.core.gateway.AsyncGateway` / ``repro serve``
daemon) fronting shard replicas that may live on *other machines*.  Every
replica, local or remote, speaks one wire — the JSON-lines format of
:mod:`repro.serving.protocol` extended with the ``sweep`` op (pickled
:class:`~repro.core.service.SweepOutcome` payloads).  Three pieces:

* :class:`ShardHostServer` — one
  :class:`~repro.core.service.ConnectorService` replica behind that wire.
  It is the daemon behind ``repro shard-host DATASET --port P`` (a TCP
  listener, one thread per connection) and the body of every local
  shard's child process (one socketpair, no listener).  Both serve each
  connection with the same :meth:`~ShardHostServer.serve_connection`
  loop.  Sweeps from all connections are serialized through one lock —
  the replica's LRU layers are the scaling unit, not intra-host
  parallelism (run more hosts for that).
* :class:`RemoteShardTransport` — the router-side
  :class:`~repro.core.sharded.ShardTransport` of a daemon: a blocking
  socket whose ``drain()`` never blocks (it reads only what has already
  arrived) and whose socket object plugs straight into the router's
  multiplexed :func:`multiprocessing.connection.wait` gather loop.
* :class:`LocalShardTransport` — the same codec over one end of a
  socketpair to a child process the router forks and owns.  Only the
  lifecycle differs: spawn and respawn instead of dial, re-dial and
  catch-up.

Handshake
---------

At connect time the transport sends ``{"op": "hello", "digest": ...}``
with the router's :meth:`~repro.core.service.ConnectorService.index_digest`
and the daemon compares it against its own graph.  A mismatch is refused
(:class:`~repro.core.sharded.ShardConnectError`) *before* any request is
routed — and the daemon enforces it server-side too: a connection that
skipped (or failed) ``hello`` has its ``sweep`` requests rejected.  The
bit-identity contract — remote shards return exactly the one-shot
``wiener_steiner`` connectors — only holds when router and shard host
serve the same graph, and a version skew between two dataset copies must
fail loudly at topology-build time, not corrupt answers at serve time.
The same handshake runs again on every :meth:`~RemoteShardTransport.
reconnect`, so a daemon that was restarted with a *different* dataset
while the link was down is refused, never silently rejoined.  A local
shard's link skips ``hello``: the router built that replica from its own
payload at its own epoch, so there is nothing to compare.

Since the versioned-graph layer the handshake also carries the graph
*epoch* (see :mod:`repro.core.versioned`): ``hello`` stamps the router's
epoch, every ``sweep`` request/response is epoch-stamped (a version-
skewed sweep is refused with ``EpochMismatch``, surfaced as a
:class:`~repro.core.sharded.ShardLinkError` — never a silently stale
answer), and the ``mutate`` op ships one
:class:`~repro.core.versioned.GraphDelta` to advance the replica in
lockstep with the router.  A daemon that missed deltas while its link
was down is healed at reconnect: its digest refusal reports the epoch it
is stuck at, and the transport replays the router's retained delta
suffix (the ``catchup`` op, only accepted right after such a refusal)
before re-running ``hello``.

Failure semantics: what fails, what degrades, what heals
--------------------------------------------------------

Three distinct layers, three distinct behaviors:

* **Request faults fail the request.**  A poisoned query travels back as
  a pickled exception value and fails only that request.  Always, at
  every replication factor.
* **Link faults fail the *link*, typed by when they struck.**  Every
  transport failure raises a
  :class:`~repro.core.sharded.ShardTransportError` subclass the router
  can dispatch on: :class:`~repro.core.sharded.ShardConnectError` when
  the link never came up (refused connect, handshake timeout, digest
  mismatch, a non-protocol peer such as an HTTP server on the wrong
  port) and :class:`~repro.core.sharded.ShardLinkError` when an
  established link broke (mid-write reset, peer closed mid-stream, an
  unparsable or pickle-skewed reply — protocol sync is gone, the link is
  unusable).  What the router *does* with a dead link depends on its
  replication factor: with ``replication=1`` it fails the in-flight
  batch and closes the sharded service (the historical close-on-death);
  with ``replication>=2`` it fails over — the in-flight sweeps re-run on
  a surviving replica and the slot heals in the background.
* **Silence is bounded by heartbeats, not TCP timers.**  A silent
  partition (powered-off host, dropped route) produces no FIN/RST.  The
  transport keeps TCP keepalive (~60s) as a kernel backstop, but its
  *application-level* liveness is finer: an optional background monitor
  pings idle links every ``heartbeat_interval`` seconds over a separate
  throwaway connection (never the request socket, so a probe can never
  interleave with a reply in flight) and marks the transport *suspect*
  on a miss; the router confirms suspects with one :meth:`probe` before
  the next batch touches them, and probes mid-batch shards that stay
  silent past its ``liveness_deadline``.  A SIGSTOP'd daemon — the
  kernel accepts new connections into the backlog but nobody answers —
  fails the probe's ping deadline and is declared dead like any other.

Healing: :meth:`RemoteShardTransport.reconnect` re-dials and re-runs the
``hello`` digest handshake, raising the connect-time taxonomy above when
the daemon is still gone; the router paces those attempts with the
jittered exponential backoff of :mod:`repro.core.retry`.  A revived link
rejoins with whatever caches the daemon kept — a daemon that merely lost
the socket is still warm.

``stop()`` only disconnects, within a bounded time even when the peer is
hung: the daemon belongs to whoever started it (several routers may
share it), so tearing down a router never tears down a host.  Use
:func:`shutdown_shard_host` (or the ``shutdown`` op) to stop a daemon
remotely — ``repro shard-host`` exits 0 on it — and
:func:`ping_shard_host` (or ``repro ping``) as the handshake-free health
probe for supervisors.

Trust model: the ``sweep`` op carries pickles, so shard hosts must only
be reachable from trusted routers (a private cluster network), never
from end-user clients — those talk to the pure-JSON gateway instead.  A
local shard opens no port at all: its socketpair is ``AF_UNIX`` and only
the router holds the other end.
"""

from __future__ import annotations

import dataclasses
import socket
import socketserver
import threading
import time

from repro.core import sharded
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService, ServiceStats
from repro.core.sharded import ShardConnectError, ShardLinkError
from repro.core.versioned import GraphDelta
from repro.errors import ServerStateError
from repro.serving.pickled import decode_pickled, encode_pickled
from repro.serving.protocol import decode_line, encode_line

__all__ = [
    "LocalShardTransport",
    "RemoteShardTransport",
    "ShardHostServer",
    "ping_shard_host",
    "shutdown_shard_host",
]

#: Connect/handshake timeout — topology building should fail fast.
CONNECT_TIMEOUT_SECONDS = 10.0

#: Upper bound on ``RemoteShardTransport.stop()``: a SIGSTOP'd or hung
#: daemon must never block router/service teardown.
STOP_TIMEOUT_SECONDS = 5.0

#: Per-read chunk size of the transport's gather loop.
_RECV_CHUNK = 1 << 16


class _ShardHostHandler(socketserver.StreamRequestHandler):
    """One TCP connection, served by :meth:`ShardHostServer.serve_connection`.

    A TCP connection starts un-handshaken: ``sweep`` is only served after
    this connection's ``hello`` succeeded, so the digest check is
    enforced server-side per link, not merely trusted client-side.
    """

    def setup(self) -> None:
        # Small pipelined request/reply lines on a real network: without
        # TCP_NODELAY, Nagle + delayed ACK can stall each tiny segment
        # behind the peer's ACK timer (~40ms) — loopback never shows it.
        # (self.request is the raw socket; self.connection only exists
        # after the parent setup has run.)
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super().setup()
        self.server.shard_host._connection_opened()  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.shard_host._connection_closed()  # type: ignore[attr-defined]
        super().finish()

    def handle(self) -> None:
        host: ShardHostServer = self.server.shard_host  # type: ignore[attr-defined]
        host.serve_connection(self.rfile, self.wfile, handshaken=False)


class _ShardHostTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ShardHostServer:
    """Serve one :class:`ConnectorService` replica's sweeps over the shard wire.

    Ops: ``hello`` (digest handshake), ``sweep`` (one λ×root sweep,
    pickled outcome), ``mutate``/``catchup`` (one graph delta), ``stats``
    (a :class:`ServiceStats` snapshot as JSON plus a ``host`` sub-object
    with daemon-level health: uptime, sweeps served, connections active),
    ``ping`` and ``shutdown``.  :meth:`start` serves them over TCP, one
    thread per connection; a local shard's child process instead calls
    :meth:`serve_connection` on its one socketpair.  Sweeps and snapshots
    across all connections serialize through one lock — the service's
    caches are not thread-safe, and a shard replica's unit of scale is
    the host, not the thread.

    The server owns only its sockets; the service belongs to the caller.
    """

    def __init__(
        self,
        service: ConnectorService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._server: _ShardHostTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._started: float | None = None
        self._connections_active = 0
        self.sweeps_served = 0

    @property
    def port(self) -> int:
        """The bound port (the OS-assigned one when constructed with 0)."""
        if self._server is None:
            raise ServerStateError("shard host is not started")
        return self._server.server_address[1]

    @property
    def host(self) -> str:
        return self._host

    def start(self) -> "ShardHostServer":
        """Bind and start accepting connections; returns ``self``."""
        if self._server is not None:
            raise ServerStateError("shard host is already started")
        self._shutdown = threading.Event()
        self._server = _ShardHostTCPServer(
            (self._host, self._port), _ShardHostHandler
        )
        self._server.shard_host = self  # type: ignore[attr-defined]
        self._started = time.monotonic()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"shard-host-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def wait_shutdown(self, timeout: float | None = None) -> bool:
        """Block until a ``shutdown`` op has been acknowledged."""
        return self._shutdown.wait(timeout)

    def close(self) -> None:
        """Stop accepting and close the listening socket; idempotent.

        Established connections are not force-closed: their handler
        threads are daemons blocked on reads and exit when the router
        disconnects (routers own their connection lifecycle).
        """
        # Swap-then-close so concurrent close() calls (a chaos test's
        # killer thread racing a finally block) are both safe no-ops
        # rather than a TOCTOU on self._server.
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        self._shutdown.set()  # unblock any waiter even on a local close

    def __enter__(self) -> "ShardHostServer":
        return self.start() if self._server is None else self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Daemon-level health (the "host" sub-object of the stats reply)
    # ------------------------------------------------------------------
    def _connection_opened(self) -> None:
        with self._lock:
            self._connections_active += 1

    def _connection_closed(self) -> None:
        with self._lock:
            self._connections_active -= 1

    def host_stats(self) -> dict:
        """Daemon-level counters for dashboards and failover decisions.

        Separate from the :class:`ServiceStats` snapshot on purpose: the
        service knows about queries and caches, only the *daemon* knows
        how long it has been up and who is connected — and the wire
        keeps them apart so ``ServiceStats(**reply["stats"])`` keeps
        round-tripping unchanged as either side grows fields.
        """
        return {
            "uptime_seconds": (
                0.0 if self._started is None
                else time.monotonic() - self._started
            ),
            "sweeps_served": self.sweeps_served,
            "connections_active": self._connections_active,
        }

    # ------------------------------------------------------------------
    # Request handling (TCP handler threads, or a local shard's process)
    # ------------------------------------------------------------------
    def serve_connection(self, rfile, wfile, *, handshaken: bool) -> None:
        """Answer one connection's request lines, each in receipt order.

        The one per-connection loop of both server kinds.  ``handshaken``
        is the link's starting state: ``False`` for a TCP connection
        (``sweep`` and ``mutate`` wait for a successful ``hello``),
        ``True`` for a local shard's socketpair.  Returns at EOF, when
        the peer goes away, or once ``shutdown`` is answered.
        """
        state = {"handshaken": handshaken}
        for line in rfile:
            if not line.strip():
                continue
            response, is_shutdown = self._serve_line(line, state)
            try:
                wfile.write(encode_line(response))
                wfile.flush()
            except OSError:
                # Peer went away; nothing left to tell it — but an
                # accepted shutdown must still happen (same rule as the
                # gateway server: a supervisor that fired-and-forgot, or
                # died right after asking, must not leave the daemon
                # running forever).
                if is_shutdown:
                    self._shutdown.set()
                return
            # As with the gateway's shutdown op: the acknowledgement is on
            # the wire first, then the server stops.
            if is_shutdown:
                self._shutdown.set()
                return

    def _serve_line(self, line: bytes, state: dict) -> tuple[dict, bool]:
        """Answer one request line; failures fail the request, not the link.

        ``state`` is the connection's mutable handshake record: a
        successful ``hello`` flips ``state["handshaken"]`` and unlocks
        ``sweep`` for that connection only.
        """
        request_id = None
        is_shutdown = False
        try:
            message = decode_line(line)
            request_id = message.get("id")
            op = message.get("op")
            if op == "ping":
                response = {"ok": True, "pong": True}
            elif op == "hello":
                response = self._hello(message)
                state["handshaken"] = bool(response.get("ok"))
                # A digest refusal opens the catch-up window: the router
                # may replay the deltas this daemon missed while down,
                # then hello again on the same connection.
                state["catchup"] = (
                    not state["handshaken"]
                    and response.get("error_type") == "GraphDigestMismatch"
                )
            elif op == "sweep":
                if not state["handshaken"]:
                    # The digest check is enforced here, not just trusted
                    # to well-behaved routers: a client that skipped (or
                    # failed) hello must never receive answers that may
                    # come from a different graph than it expects.
                    raise PermissionError(
                        "sweep before a successful hello handshake; send "
                        '{"op": "hello", "digest": ...} first'
                    )
                response = self._sweep(message)
            elif op == "mutate":
                if not state["handshaken"]:
                    # Same gate as sweep: only a digest-verified router
                    # may advance this replica's graph version.
                    raise PermissionError(
                        "mutate before a successful hello handshake; send "
                        '{"op": "hello", "digest": ...} first'
                    )
                response = self._apply_delta(message)
            elif op == "catchup":
                if not state.get("catchup"):
                    raise PermissionError(
                        "catchup is only accepted right after a hello "
                        "refused for a digest mismatch"
                    )
                response = self._apply_delta(message)
            elif op == "stats":
                with self._lock:
                    snapshot = self._service.stats()
                response = {
                    "ok": True,
                    "stats": dataclasses.asdict(snapshot),
                    "host": self.host_stats(),
                }
            elif op == "shutdown":
                response = {"ok": True, "shutting_down": True}
                is_shutdown = True
            else:
                raise ValueError(
                    f"unknown op {op!r}; choose from ('hello', 'sweep', "
                    "'mutate', 'catchup', 'stats', 'ping', 'shutdown')"
                )
        except Exception as exc:  # noqa: BLE001 - reported on the wire
            response = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        response["id"] = request_id
        return response, is_shutdown

    def _hello(self, message: dict) -> dict:
        theirs = message.get("digest")
        with self._lock:
            # Computed on demand (the service caches it per epoch), so a
            # replica that never sees a hello never pays the O(|E|) pass.
            ours = self._service.index_digest()
        if theirs != ours:
            # The refusal reports this daemon's version coordinates so a
            # router that mutated past us can decide whether catch-up
            # (replaying the missed deltas) can bridge the gap.
            return {
                "ok": False,
                "error": (
                    f"graph digest mismatch: router has {theirs!r}, this "
                    f"shard host serves {ours!r} — both sides must "
                    "load the same graph"
                ),
                "error_type": "GraphDigestMismatch",
                "digest": ours,
                "epoch": self._service.epoch,
            }
        epoch = message.get("epoch")
        if isinstance(epoch, int) and epoch != self._service.epoch:
            # Same graph (digest-verified), different counting base: a
            # daemon restarted with the already-mutated dataset starts at
            # 0 again.  Adopt the router's timeline so sweep stamping and
            # catch-up arithmetic agree.  A shard host serves one
            # deployment's epoch timeline at a time.
            with self._lock:
                self._service.align_epoch(epoch)
        return {
            "ok": True,
            "digest": ours,
            "epoch": self._service.epoch,
            "nodes": self._service.num_nodes,
        }

    def _sweep(self, message: dict) -> dict:
        query_tuple, options = decode_pickled(message["request"])
        if not isinstance(options, SolveOptions):
            raise ValueError(
                f"sweep options must be SolveOptions, got {type(options).__name__}"
            )
        expected = message.get("epoch")
        try:
            with self._lock:
                # Checked and served under one lock: a concurrent mutate
                # cannot slip between the version check and the sweep, so
                # the stamped epoch is exactly the one that answered.
                epoch = self._service.epoch
                if expected is not None and expected != epoch:
                    return {
                        "ok": False,
                        "error": (
                            f"sweep dispatched at epoch {expected} but "
                            f"this shard host serves epoch {epoch}"
                        ),
                        "error_type": "EpochMismatch",
                        "epoch": epoch,
                    }
                outcome = self._service.sweep(query_tuple, options)
                self.sweeps_served += 1
        except Exception as exc:
            # The shard-side fault travels as a value: the router
            # re-raises the original exception type when it can.
            response = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
            try:
                response["exception"] = encode_pickled(exc)
            except Exception:  # pragma: no cover - unpicklable exception
                pass
            return response
        return {"ok": True, "outcome": encode_pickled(outcome), "epoch": epoch}

    def _apply_delta(self, message: dict) -> dict:
        """Advance this replica one epoch (the ``mutate``/``catchup`` ops)."""
        delta = GraphDelta.from_payload(message.get("delta"))
        with self._lock:
            epoch = self._service.apply_delta(delta)
        return {"ok": True, "epoch": epoch}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "stopped" if self._server is None else f"port={self.port}"
        return (
            f"{type(self).__name__}(|V|={self._service.num_nodes}, {state}, "
            f"sweeps={self.sweeps_served})"
        )


class _HeartbeatMonitor:
    """Ping an idle shard link in the background; flag misses as suspect.

    Runs as a daemon thread per :class:`RemoteShardTransport`.  Probes go
    over a *fresh throwaway connection* each time (:func:`ping_shard_host`),
    never the transport's request socket — a probe must not interleave
    with a sweep reply in flight, and a daemon whose listener still
    answers is alive regardless of what one busy link looks like.  Links
    with recent request traffic are not probed (the traffic *is* the
    heartbeat).  A miss only *marks* the transport suspect; the router
    owns the decision, confirming with one more probe at the next batch
    boundary before taking the slot out of service.
    """

    def __init__(
        self,
        transport: "RemoteShardTransport",
        interval: float,
        probe_timeout: float,
    ) -> None:
        self._transport = transport
        self._interval = interval
        self._probe_timeout = probe_timeout
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            name=f"shard-heartbeat-{transport.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self._transport.idle_seconds() < self._interval:
                continue  # request traffic is the heartbeat
            if not self._transport.probe(self._probe_timeout):
                self._transport._suspect.set()

    def stop(self, timeout: float) -> None:
        self._stop.set()
        self._thread.join(timeout)


class RemoteShardTransport:
    """Socket-backed :class:`~repro.core.sharded.ShardTransport`.

    Connects and handshakes eagerly in the constructor (a bad address or
    a digest mismatch fails topology building, not the first batch).  The
    socket then stays in blocking mode: ``submit`` may block briefly on
    the OS send buffer — safe because the router caps in-flight requests
    per shard — while ``drain`` uses a zero-timeout ``select`` loop to
    read exactly what has already arrived, parse complete lines, and
    buffer the rest.  The raw socket is exposed as :attr:`waitable` for
    the router's multiplexed gather.

    Failures carry the module taxonomy (see the module docstring):
    :class:`~repro.core.sharded.ShardConnectError` from ``__init__`` /
    :meth:`reconnect`, :class:`~repro.core.sharded.ShardLinkError` (or a
    raw ``EOFError`` on a clean peer close) from ``submit``/``drain``.
    With ``heartbeat_interval`` set, a background monitor pings the
    daemon while the link is idle and marks it suspect on a miss.
    """

    def __init__(
        self,
        shard_id: int,
        host: str,
        port: int,
        *,
        digest,
        epoch=0,
        catchup=None,
        connect_timeout: float = CONNECT_TIMEOUT_SECONDS,
        heartbeat_interval: float | None = None,
        probe_timeout: float = 5.0,
    ) -> None:
        self.shard_id = shard_id
        self.address = f"{host}:{port}"
        self._host = host
        self._port = port
        # Version state comes in as providers (plain values are wrapped):
        # every (re)connect must handshake at the epoch the router serves
        # *now*, not the one it served when this transport was built.
        self._digest_of = digest if callable(digest) else (lambda: digest)
        self._epoch_of = epoch if callable(epoch) else (lambda: epoch)
        self._catchup = catchup
        self._connect_timeout = connect_timeout
        self._probe_timeout = probe_timeout
        self._heartbeat_interval = heartbeat_interval
        self._buffer = bytearray()
        self._suspect = threading.Event()
        self._last_activity = time.monotonic()
        self._monitor: _HeartbeatMonitor | None = None
        self._sock: socket.socket | None = None
        self._connect()
        if heartbeat_interval is not None:
            self._monitor = _HeartbeatMonitor(
                self, heartbeat_interval, probe_timeout
            )

    def _connect(self) -> None:
        """Dial and run the ``hello`` digest handshake (connect-time taxonomy)."""
        self._buffer.clear()
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
        except OSError as exc:
            self._sock = None
            raise ShardConnectError(
                f"cannot connect to shard host {self.address}: {exc}"
            ) from exc
        # See _ShardHostHandler.setup: tiny pipelined lines must not sit
        # out Nagle/delayed-ACK stalls on real cross-machine links.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Kernel backstop for silent partitions (powered-off host, dropped
        # route): no FIN/RST ever arrives, so without keepalive a gather
        # with no liveness deadline would block forever.  The OS errors
        # the socket after ~60s of silence; the application-level
        # heartbeat/probe machinery usually notices far sooner.
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for option, value in (
            ("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 10), ("TCP_KEEPCNT", 3),
        ):
            if hasattr(socket, option):  # Linux/BSD; harmless to skip
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, getattr(socket, option), value
                )
        try:
            reply = self._say_hello()
            if not reply.get("ok"):
                reply = self._negotiate_catchup(reply)
            if not reply.get("ok"):
                raise ShardConnectError(
                    f"shard host {self.address} refused the handshake: "
                    f"{reply.get('error', 'no error reported')}"
                )
            self._sock.settimeout(None)  # blocking from here on
        except BaseException:
            self._sock.close()
            self._sock = None
            raise
        self._last_activity = time.monotonic()

    def _say_hello(self) -> dict:
        self._sock.sendall(
            encode_line({
                "op": "hello",
                "digest": self._digest_of(),
                "epoch": self._epoch_of(),
                "id": None,
            })
        )
        return self._handshake_reply(self._connect_timeout)

    def _negotiate_catchup(self, refusal: dict) -> dict:
        """Try to bridge a digest refusal by replaying missed deltas.

        A daemon that was down across some epochs still serves the old
        graph; its refusal reports the epoch it is stuck at.  When the
        router retains the delta suffix from there to now, this replays
        it over the same connection (the daemon only accepts ``catchup``
        right after its own refusal) and re-runs ``hello`` — which now
        compares equal digests.  Anything else — no catch-up source, a
        daemon *ahead* of the router, a suffix outside the retained
        history window (``catchup(...)`` returns ``None``), a diverged
        graph that digest-mismatches even at the right epoch — returns
        the original refusal for the caller to raise.
        """
        if refusal.get("error_type") != "GraphDigestMismatch":
            return refusal
        theirs = refusal.get("epoch")
        ours = self._epoch_of()
        if self._catchup is None or not isinstance(theirs, int) or theirs >= ours:
            return refusal
        deltas = self._catchup(theirs)
        if deltas is None:
            return refusal
        for delta in deltas:
            self._sock.sendall(
                encode_line(
                    {"op": "catchup", "delta": delta.to_payload(), "id": None}
                )
            )
            step = self._handshake_reply(self._connect_timeout)
            if not step.get("ok"):
                return step
        return self._say_hello()

    def _pop_line(self) -> bytes | None:
        """Remove and return one complete line from the buffer, if any."""
        newline = self._buffer.find(b"\n")
        if newline < 0:
            return None
        line = bytes(self._buffer[: newline + 1])
        del self._buffer[: newline + 1]
        return line

    def _handshake_reply(self, timeout: float) -> dict:
        """Read exactly one reply line, honoring the connect timeout."""
        while True:
            line = self._pop_line()
            if line is not None:
                try:
                    return decode_line(line)
                except ValueError as exc:
                    # The peer answered with non-JSON (an HTTP server, an
                    # SSH banner): a connect-time topology error, so the
                    # CLI reports it as one, not as a traceback.
                    raise ShardConnectError(
                        f"shard host {self.address} answered the handshake "
                        f"with a non-protocol reply: {exc}"
                    ) from exc
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except socket.timeout:
                raise ShardConnectError(
                    f"shard host {self.address} did not answer the "
                    f"handshake within {timeout:.0f}s"
                ) from None
            if not chunk:
                raise ShardConnectError(
                    f"shard host {self.address} closed the connection "
                    "during the handshake"
                )
            self._buffer.extend(chunk)

    # ------------------------------------------------------------------
    # ShardTransport
    # ------------------------------------------------------------------
    def submit(
        self,
        request_id: int,
        query_tuple: tuple,
        options: SolveOptions,
        epoch: int | None = None,
    ) -> None:
        message = {
            "op": "sweep",
            "id": request_id,
            "request": encode_pickled((query_tuple, options)),
        }
        if epoch is not None:
            message["epoch"] = epoch
        self._send(encode_line(message))

    def submit_mutate(self, request_id: int, delta) -> None:
        self._send(
            encode_line(
                {"op": "mutate", "id": request_id, "delta": delta.to_payload()}
            )
        )

    def submit_stats(self, request_id: int) -> None:
        self._send(encode_line({"op": "stats", "id": request_id}))

    def _send(self, payload: bytes) -> None:
        if self._sock is None:
            raise ShardLinkError(
                f"shard host link {self.address} is closed"
            )
        try:
            self._sock.sendall(payload)
        except OSError as exc:
            # A mid-write reset (or an already-errored socket): the link
            # broke in flight, typed so the router fails over cleanly.
            raise ShardLinkError(
                f"shard host {self.address} link failed mid-write: {exc}"
            ) from exc
        self._last_activity = time.monotonic()

    def drain(self) -> list[tuple[int, str, object]]:
        if self._sock is None:
            raise ShardLinkError(
                f"shard host link {self.address} is closed"
            )
        eof = False
        # A non-blocking recv loop, not select(): select.select raises
        # ValueError for any fd >= FD_SETSIZE (1024), which a busy host
        # process can easily reach — and that ValueError would escape the
        # router's transport-failure handling.  Blocking mode is restored
        # for submit's sendall.
        self._sock.setblocking(False)
        try:
            while True:
                try:
                    chunk = self._sock.recv(_RECV_CHUNK)
                except (BlockingIOError, InterruptedError):
                    break  # nothing more has arrived
                except OSError as exc:
                    raise ShardLinkError(
                        f"shard host {self.address} link failed mid-read: "
                        f"{exc}"
                    ) from exc
                if not chunk:
                    eof = True
                    break
                self._buffer.extend(chunk)
        finally:
            if self._sock is not None:
                self._sock.setblocking(True)
        replies = []
        while (line := self._pop_line()) is not None:
            if line.strip():
                replies.append(self._parse(line))
        if replies:
            self._last_activity = time.monotonic()
        if eof and not replies:
            # The socket stays readable at EOF, so after any already-
            # parsed replies are consumed the next drain raises here.
            raise EOFError(
                f"shard host {self.address} closed the connection"
            )
        return replies

    def _parse(self, line: bytes) -> tuple[int, str, object]:
        try:
            message = decode_line(line)
            request_id = message.get("id")
            if message.get("ok"):
                if "outcome" in message:
                    # Sweep replies are epoch-stamped so the router can
                    # verify the serving version on receipt.
                    return request_id, "ok", (
                        message.get("epoch", 0),
                        decode_pickled(message["outcome"]),
                    )
                if "stats" in message:
                    return request_id, "ok", ServiceStats(**message["stats"])
                if "epoch" in message:
                    # A mutate acknowledgement: the replica's new epoch.
                    return request_id, "ok", message["epoch"]
                raise ValueError("success reply carries no payload")
            error_type = message.get("error_type", "")
            if error_type == "EpochMismatch":
                # The daemon refused to answer from a different graph
                # version — the link is stale, not the query poisoned, so
                # the router must fail over and reconnect (with catch-up),
                # never treat it as a request fault.
                raise ShardLinkError(
                    f"shard host {self.address} is at a different epoch: "
                    f"{message.get('error', 'epoch mismatch')}"
                )
            error = message.get("error", "request failed")
            if "exception" in message:
                exc = decode_pickled(message["exception"])
                if isinstance(exc, Exception):
                    return request_id, "error", exc
            rebuilt = RuntimeError(
                f"{error_type}: {error}" if error_type else error
            )
            return request_id, "error", rebuilt
        except ShardLinkError:
            raise  # already typed (a stale-epoch reply), not a parse fault
        except Exception as exc:
            # An unparsable reply — bad JSON, a missing field, a pickle
            # that will not load (version skew, corruption) — means router
            # and host have lost protocol sync: the link is unusable,
            # exactly like a dead one, so the router must see an in-flight
            # transport failure, never a stray exception type.
            raise ShardLinkError(
                f"shard host {self.address} sent an unparsable reply: {exc}"
            ) from exc

    @property
    def waitable(self):
        return self._sock

    # ------------------------------------------------------------------
    # Health: probe / suspect / reconnect
    # ------------------------------------------------------------------
    def idle_seconds(self) -> float:
        """Seconds since the last request-socket traffic (for heartbeats)."""
        return time.monotonic() - self._last_activity

    def probe(self, timeout: float | None = None) -> bool:
        """Is the daemon answering pings *right now*?  Never raises.

        Uses a fresh throwaway connection (see :class:`_HeartbeatMonitor`
        for why), so it works — and stays safe — whatever state the
        request socket is in, including mid-batch with replies in flight.
        """
        try:
            ping_shard_host(
                self._host,
                self._port,
                timeout=self._probe_timeout if timeout is None else timeout,
            )
        except Exception:
            return False
        return True

    def is_suspect(self) -> bool:
        """Has the heartbeat monitor flagged a missed ping?"""
        return self._suspect.is_set()

    def clear_suspect(self) -> None:
        self._suspect.clear()

    def reconnect(self) -> None:
        """Re-dial and re-run the digest handshake; rejoin on success.

        Raises the connect-time taxonomy while the daemon is still gone
        (the router's backoff schedule paces the attempts).  A restarted
        daemon serving a *different* graph is refused by the handshake —
        a stale replica must never silently rejoin the ring.
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._sock = None
        self._connect()
        self._suspect.clear()
        if self._heartbeat_interval is not None and self._monitor is None:
            # stop() (a router taking the slot out of service) tears the
            # monitor down; a successful revival brings it back.
            self._monitor = _HeartbeatMonitor(
                self, self._heartbeat_interval, self._probe_timeout
            )

    def stop(self) -> None:
        """Disconnect from the daemon (which keeps running); idempotent.

        Bounded: the close path never waits on the peer — a SIGSTOP'd or
        hung daemon cannot block router/service teardown.  The heartbeat
        monitor thread is stopped with the same bound.
        """
        if self._monitor is not None:
            self._monitor.stop(STOP_TIMEOUT_SECONDS)
            self._monitor = None
        if self._sock is None:
            return
        try:
            # An explicit timeout so nothing on the close path (a lingering
            # send buffer, an unresponsive peer) can wait on the daemon.
            self._sock.settimeout(STOP_TIMEOUT_SECONDS)
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._sock = None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"{type(self).__name__}(shard={self.shard_id}, "
            f"address={self.address})"
        )


class LocalShardTransport(RemoteShardTransport):
    """A shard host in a child process the router forks and owns.

    The codec is :class:`RemoteShardTransport`'s (``submit*``, ``drain``,
    ``_parse``) over the router's end of a socketpair; the child answers
    with :meth:`ShardHostServer.serve_connection` (see
    :func:`repro.core.sharded._shard_main`).  Only the lifecycle is this
    class's own, so the base constructor (dial, ``hello``, heartbeat)
    never runs: each child is forked from the router's *current* payload
    (``payload`` is a provider, like a remote link's ``epoch``), so its
    link starts handshaken at the ring's epoch; liveness is the OS's word
    on the process; :meth:`reconnect` forks a fresh, cold child.  The
    socketpair is ``AF_UNIX``, so no listener is ever opened.
    """

    def __init__(self, shard_id: int, *, payload, mp_context) -> None:
        self.shard_id = shard_id
        self.address = f"local shard {shard_id}"
        self._payload_of = payload
        self._ctx = mp_context
        self._spawn()

    def _spawn(self) -> None:
        self._buffer = bytearray()
        self._sock, child_end = socket.socketpair()
        self.process = self._ctx.Process(
            # Looked up at spawn time, so a wrapper installed on the
            # module attribute (perfbench's ShardCollector) is what runs.
            target=sharded._shard_main,
            args=(child_end, self._payload_of()),
            name=f"connector-shard-{self.shard_id}",
            daemon=True,
        )
        try:
            self.process.start()
        finally:
            child_end.close()  # the child owns its end now
        self._last_activity = time.monotonic()

    def probe(self, timeout: float | None = None) -> bool:
        """A live child is a live shard: one stuck in a long sweep is
        alive, a crashed or OOM-killed one is not."""
        return self.process.is_alive()

    def is_suspect(self) -> bool:
        return not self.process.is_alive()

    def clear_suspect(self) -> None:
        """No sticky flag to clear — suspicion *is* process death."""

    def reconnect(self) -> None:
        self.stop()
        self._spawn()

    def stop(self) -> None:
        """Shut the link down and reap the child; idempotent.

        ``shutdown``, not a bare close: every shard forked after this one
        holds a copy of the router's end, so closing this fd alone would
        never show the child an EOF.  On EOF the child returns and exits
        0; one wedged past the bound is terminated.
        """
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the child is already gone
            self._sock.close()
            self._sock = None
        self.process.join(STOP_TIMEOUT_SECONDS)
        if self.process.is_alive():  # pragma: no cover - defensive reaping
            self.process.terminate()
            self.process.join()


def ping_shard_host(
    host: str,
    port: int,
    *,
    timeout: float = CONNECT_TIMEOUT_SECONDS,
    with_stats: bool = False,
) -> dict:
    """Handshake-free health probe of a shard-host daemon.

    Connects, sends one ``ping``, and returns ``{"rtt_seconds": ...}``
    measured around the round trip — no ``hello`` required, so any
    supervisor can probe any daemon without knowing its graph.  With
    ``with_stats=True`` the reply also carries the daemon's ``stats``
    snapshot (``"stats"``: the :class:`ServiceStats` fields, ``"host"``:
    uptime/sweeps/connections) fetched over the same connection.

    Raises :class:`~repro.core.sharded.ShardConnectError` when the
    daemon is unreachable, does not answer within ``timeout`` (a
    SIGSTOP'd daemon: the kernel accepts the connection, nobody ever
    replies), or answers with something that is not a shard-host pong.
    """
    address = f"{host}:{port}"
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(timeout)
            reader = sock.makefile("rb")
            started = time.perf_counter()
            sock.sendall(encode_line({"op": "ping", "id": 0}))
            line = reader.readline()
            rtt = time.perf_counter() - started
            if not line:
                raise ShardConnectError(
                    f"shard host {address} closed the connection on ping"
                )
            try:
                reply = decode_line(line)
            except ValueError as exc:
                raise ShardConnectError(
                    f"shard host {address} answered ping with a "
                    f"non-protocol reply: {exc}"
                ) from exc
            if not (reply.get("ok") and reply.get("pong")):
                raise ShardConnectError(
                    f"shard host {address} did not pong: {reply!r}"
                )
            result = {"rtt_seconds": rtt}
            if with_stats:
                sock.sendall(encode_line({"op": "stats", "id": 1}))
                stats_line = reader.readline()
                try:
                    stats_reply = decode_line(stats_line) if stats_line else {}
                except ValueError:
                    stats_reply = {}
                if stats_reply.get("ok"):
                    result["stats"] = stats_reply.get("stats")
                    result["host"] = stats_reply.get("host")
            return result
    except socket.timeout:
        raise ShardConnectError(
            f"shard host {address} did not answer within {timeout:.0f}s"
        ) from None
    except OSError as exc:
        raise ShardConnectError(
            f"cannot connect to shard host {address}: {exc}"
        ) from exc


def shutdown_shard_host(
    host: str, port: int, timeout: float = CONNECT_TIMEOUT_SECONDS
) -> bool:
    """Ask a shard-host daemon to stop; ``True`` only on its acknowledgement.

    The remote-stop path examples, benchmarks, and supervisors use so a
    ``repro shard-host`` daemon exits 0 with nothing orphaned.  Returns
    ``False`` when the daemon is already gone (connection refused), never
    answers within ``timeout`` (every socket operation below runs under
    an explicit timeout, so a SIGSTOP'd daemon cannot hang the caller),
    or the peer is not actually a shard host (no ``shutting_down`` ack) —
    a supervisor must not wait on a process that was never told to stop.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            # create_connection's timeout covers the dial; pin it on the
            # established socket too so sendall and the reply read are
            # bounded against a hung (SIGSTOP'd) daemon.
            sock.settimeout(timeout)
            sock.sendall(encode_line({"op": "shutdown", "id": 0}))
            line = sock.makefile("rb").readline()
    except OSError:  # includes socket.timeout
        return False
    try:
        reply = decode_line(line)
    except ValueError:
        return False
    return bool(reply.get("ok")) and bool(reply.get("shutting_down"))
