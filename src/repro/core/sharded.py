"""ShardedConnectorService — replicated, self-healing sharded serving.

The ROADMAP's scaling ladder after the serving layer: partition the
result/candidate caches and the root-BFS state of a
:class:`~repro.core.service.ConnectorService` across several *persistent*
shard replicas, with a thin router in front.  A shard is just a service
holding a subset of the key space — exactly what ``ConnectorService`` was
designed for — so the router stays small:

* **consistent-hash routing with replication** — each ``(query, options)``
  request key is placed on a hash ring (:class:`SolveOptions.stable_digest`
  plus the canonical query repr, never the per-process-salted ``hash()``)
  with many virtual points per shard.  With ``replication=R`` a key maps
  to the first **R distinct** slots clockwise from its hash — a
  deterministic *primary order* that depends only on the slot count,
  never the transport — and distinct keys rotate their preferred replica
  within that list, fanning reads across the replica group (the
  hot-spot headroom PRs 3–5 kept recording) while every *repeat* of a
  key still lands on the same replica (cache affinity);
* **persistent shard replicas behind one wire** — every shard is a
  long-lived ``ConnectorService`` replica behind a
  :class:`repro.serving.remote.ShardHostServer`, reached through a
  :class:`ShardTransport`.  A ``"local"`` slot is a child process the
  router forks, seeded with its bare CSR int arrays; a ``"host:port"``
  slot is a ``repro shard-host`` daemon that may live on *another
  machine*.  Both speak the same JSON-lines wire and differ only in
  lifecycle.  Either way each replica keeps its *own* root-BFS /
  candidate / score / sweep LRU layers, so warm traffic is served
  shard-locally across batches;
* **a thin router** — :meth:`~ShardedConnectorService.solve_many`
  validates locally, dedupes identical in-flight keys (duplicates within
  a batch are sent once and fan back out to every position), preserves
  request order, and turns the shards' picklable
  :class:`~repro.core.service.SweepOutcome` replies into
  :class:`~repro.core.result.ConnectorResult` objects on the
  graph-holding side.

Failure semantics (what fails, what degrades, what heals)
---------------------------------------------------------

The router speaks :class:`ShardTransport` only: ``submit`` /
``submit_stats`` scatter requests (at most :data:`MAX_INFLIGHT_PER_SHARD`
outstanding per shard, so no socket buffer can deadlock),
``drain`` gathers whatever replies have arrived without blocking,
``waitable`` exposes the underlying socket for a multiplexed
:func:`multiprocessing.connection.wait`, and ``probe``/``reconnect``
carry the health surface.  Transport failures raise
:class:`ShardTransportError` — :class:`ShardConnectError` at
connect/handshake time, :class:`ShardLinkError` on an established link —
so the router can tell a topology problem from a mid-flight death.

* **Shard-side request faults** (a poisoned query) ship back as
  exception values and fail only that request.  Always.
* **With ``replication=1``** (the default) a dead shard — local process
  OOM-killed, remote daemon gone, socket reset — poisons any half-served
  batch, so the router fails the batch with one clean ``RuntimeError``
  and closes the whole service; stale replies can never leak into a
  later batch.
* **With ``replication>=2``** a dead replica *degrades* instead: the
  router takes the slot out of service, re-dispatches that replica's
  in-flight sweeps on the next surviving replica of each key (counted in
  ``ShardedStats.failovers``), and the batch completes bit-identically —
  replicas are identical ``ConnectorService``s, so the answer cannot
  depend on who computes it.  The batch fails (and the service closes)
  only when a key range has **zero** live replicas.
* **Healing is silent**: every down slot keeps a jittered-exponential
  :class:`~repro.core.retry.RetrySchedule` (``core/retry.py``), and at
  each batch boundary the router retries due slots —
  ``RemoteShardTransport.reconnect()`` re-dials and re-runs the ``hello``
  digest handshake; a local slot forks a fresh child.  Successful
  revivals (``ShardedStats.reconnects``) restore the slot's exact ring
  position, so warm keys return home.
* **Liveness is application-level**: remote transports heartbeat idle
  links with ``ping`` probes and are marked *suspect* on a missed
  deadline (a local slot is suspect once its child process has died);
  the router confirms suspects with one probe before a batch
  touches them.  Mid-batch, a shard that has been silent past
  ``liveness_deadline`` seconds is probed and — if unreachable —
  declared dead (failover as above), bounding silent partitions and
  SIGSTOP'd daemons by the configured deadline instead of the ~60s TCP
  keepalive the transport also keeps as a backstop.

Stopping a shard stops what the router owns: a local slot shuts its
socketpair down and reaps its child, a remote transport merely
disconnects (the daemon, started and owned elsewhere, keeps serving its
other routers).

Identity contract
-----------------

Sharding never changes answers.  For any shard count, any replication
factor, and any transport mix, cold or warm, before and after LRU
eviction, :meth:`resize`, :meth:`replace_shard`, and mid-batch failover,
every connector returned is **bit-identical** to the one-shot
:func:`~repro.core.wiener_steiner.wiener_steiner` under equal options —
each shard runs the same canonical λ×root sweep
(:meth:`ConnectorService.sweep`) on the same arrays, and the router only
moves bytes.  The replicated surface changes *when* the router gives up,
never *what* it returns.  ``tests/test_sharded.py``,
``tests/test_remote.py``, and ``tests/test_failover.py`` fuzz this
against the one-shot solver on random corpora, over local, remote and
mixed rings, and chaos (kill / SIGSTOP / partition mid-stream).

Rebalancing and rolling replace
-------------------------------

:meth:`resize` is legal between batches (the router is synchronous, so
there are never in-flight requests at call time).  It accepts a count —
growing spawns fresh local shards, shrinking stops the highest-numbered
slots — or a full spec list, which *diffs against the current topology*:
unchanged slots keep their live transports and warm caches, changed
slots are replaced in place.  :meth:`replace_shard` swaps a single
slot's transport for a new spec without touching the ring, so a
deployment with ``replication>=2`` upgrades shard hosts one at a time
with zero downtime (the other replicas cover each key range during the
swap).  Resizing to the current topology is a true no-op.  Keys whose
ring ownership moved are simply re-solved cold on their new shard — a
cache-locality event, not a correctness event.

Quickstart
----------
>>> from repro.core.sharded import ShardedConnectorService
>>> from repro.datasets import karate_club
>>> with ShardedConnectorService(karate_club(), n_shards=2) as service:
...     results = service.solve_many([[12, 25], [12, 26, 30], [12, 25]])
>>> [sorted(r.query) for r in results]
[[12, 25], [12, 26, 30], [12, 25]]

Remote shard hosts (see :mod:`repro.serving.remote`) plug in by address,
and ``replication=2`` makes any single replica's death survivable::

    ShardedConnectorService(
        graph, shards=["10.0.0.5:8766", "10.0.0.6:8766"], replication=2
    )
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Protocol, runtime_checkable

from repro.core.options import SolveOptions, stable_repr
from repro.core.result import ConnectorResult
from repro.core.retry import BackoffPolicy, RetrySchedule
from repro.core.service import (
    ConnectorService,
    ServiceStats,
    cache_hit_rate,
    service_from_payload,
)
from repro.errors import ServiceClosedError
from repro.graphs.graph import Graph, Node

__all__ = [
    "ShardTransport",
    "ShardTransportError",
    "ShardConnectError",
    "ShardLinkError",
    "ShardedConnectorService",
    "ShardedStats",
    "normalize_shard_spec",
    "request_digest",
]


class ShardTransportError(RuntimeError):
    """A shard link failed at the transport layer (not a request fault).

    Raised by :class:`ShardTransport` implementations when the link
    itself is unusable.  The router treats it exactly like a raw
    ``OSError``/``EOFError`` from a dead socket: the in-flight sweeps on
    that replica cannot be completed there, so the router fails over
    (``replication>=2``) or closes the service with one clear error
    (``replication=1``).  The two subclasses let the router and its
    callers tell *when* the link died.
    """


class ShardConnectError(ShardTransportError):
    """The link never came up: refused connect, handshake timeout, a
    graph-digest mismatch, or a peer that answers with a non-protocol
    reply (an HTTP server on the wrong port).  Raising at connect time
    is what lets a bad topology fail at build/revival time instead of
    poisoning a batch."""


class ShardLinkError(ShardTransportError):
    """An established link broke in flight: a mid-write reset, the peer
    closing mid-stream, or a reply the router cannot parse (pickle or
    protocol skew) — the link has lost sync and must be abandoned."""


#: What the router catches from a transport call: the link is dead or
#: broken, as opposed to a shard-side request fault (shipped as a value).
_TRANSPORT_FAILURES = (EOFError, OSError, ShardTransportError)


@runtime_checkable
class ShardTransport(Protocol):
    """The router-side contract of one shard replica, however reached.

    Both implementations speak the one shard wire of
    :mod:`repro.serving.remote` and differ only in lifecycle:
    :class:`~repro.serving.remote.RemoteShardTransport` dials a
    ``repro shard-host`` daemon over TCP, and its subclass
    :class:`~repro.serving.remote.LocalShardTransport` forks and owns a
    shard-host child on a socketpair.  The router guarantees at most
    :data:`ShardedConnectorService.MAX_INFLIGHT_PER_SHARD` submitted and
    undrained requests per transport in steady state (failover may
    briefly overshoot while a dead replica's sweeps re-dispatch), so
    ``submit`` may block on the OS buffer without deadlock risk.  All
    methods raise one of :data:`_TRANSPORT_FAILURES` when the link is
    dead.
    """

    def submit(
        self,
        request_id: int,
        query_tuple: tuple,
        options: SolveOptions,
        epoch: int | None = None,
    ) -> None:
        """Send one sweep request; the reply arrives via :meth:`drain`.

        ``epoch`` stamps the graph version the router dispatched at; a
        replica serving a different version refuses the sweep with a
        :class:`ShardLinkError` value rather than answering from the
        wrong graph.
        """
        ...  # pragma: no cover - protocol definition

    def submit_mutate(self, request_id: int, delta) -> None:
        """Ship one :class:`~repro.core.versioned.GraphDelta` to the replica.

        The reply value is the replica's new epoch, which must equal the
        router's after its own local apply — anything else means the
        replica diverged.
        """
        ...  # pragma: no cover - protocol definition

    def submit_stats(self, request_id: int) -> None:
        """Request a :class:`ServiceStats` snapshot from the replica."""
        ...  # pragma: no cover - protocol definition

    def drain(self) -> list[tuple[int, str, object]]:
        """Every reply currently available, without blocking.

        Each reply is ``(request_id, "ok" | "error", value)`` — the value
        is a :class:`~repro.core.service.SweepOutcome`, a
        :class:`ServiceStats`, or the shard-side exception.
        """
        ...  # pragma: no cover - protocol definition

    @property
    def waitable(self):
        """The socket for :func:`multiprocessing.connection.wait`."""
        ...  # pragma: no cover - protocol definition

    def probe(self, timeout: float) -> bool:
        """Is the replica reachable *right now*?  Never raises.

        Used to tell a slow-but-alive replica (a long sweep in flight)
        from a dead one before declaring mid-batch failover, and to
        confirm heartbeat suspicions at batch boundaries.
        """
        ...  # pragma: no cover - protocol definition

    def reconnect(self) -> None:
        """Re-establish a dropped link (respawn/re-dial + handshake).

        Raises one of :data:`_TRANSPORT_FAILURES` when the replica is
        still unreachable; on success the transport serves again with
        its caches in whatever state the replica kept (a daemon that
        merely lost the socket stays warm, a respawned child is cold).
        """
        ...  # pragma: no cover - protocol definition

    def is_suspect(self) -> bool:
        """Has background health monitoring flagged this link?"""
        ...  # pragma: no cover - protocol definition

    def clear_suspect(self) -> None:
        """Reset the suspect flag after a successful probe."""
        ...  # pragma: no cover - protocol definition

    def stop(self) -> None:
        """Release what the router owns (the socket, and a local child)."""
        ...  # pragma: no cover - protocol definition


def normalize_shard_spec(spec) -> str | tuple[str, int]:
    """Validate one shard spec: ``"local"`` or ``"host:port"``.

    Returns ``"local"`` for a shard process the router forks, or a
    ``(host, port)`` pair for a remote shard-host address.  Used by both
    :class:`ShardedConnectorService` and the CLI ``--shards`` parser, so
    the accepted forms (and the error messages) cannot drift apart.
    """
    if isinstance(spec, tuple) and len(spec) == 2:
        # Already normalized (the service stores and re-feeds these).
        spec = f"{spec[0]}:{spec[1]}"
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(
            f"a shard spec must be 'local' or 'host:port', got {spec!r}"
        )
    spec = spec.strip()
    if spec == "local":
        return "local"
    host, separator, port_text = spec.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"a shard spec must be 'local' or 'host:port', got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"shard spec {spec!r} has a non-numeric port {port_text!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(
            f"shard spec {spec!r} has an out-of-range port {port}"
        )
    return host, port


def request_digest(query_set: frozenset, options: SolveOptions) -> bytes:
    """The stable routing key of one ``(query, options)`` request.

    Built from the canonical repr of the query labels plus
    :meth:`SolveOptions.stable_digest`, so every router process — today's
    and a restarted one — places the key identically.
    """
    query_part = ",".join(sorted(stable_repr(q) for q in query_set))
    return hashlib.sha1(
        query_part.encode("utf-8") + options.stable_digest()
    ).digest()


class _HashRing:
    """A consistent-hash ring with virtual points per shard.

    ``POINTS_PER_SHARD`` virtual points smooth the load split; lookups
    walk clockwise to the first point at or after the key's hash.  Adding
    or removing one shard of ``n`` reassigns ``~1/n`` of the key space —
    the property that makes :meth:`ShardedConnectorService.resize` cheap
    for warm caches.  :meth:`replicas` continues the same clockwise walk
    to the next *distinct* shards, which is the standard consistent-
    hashing replica placement: deterministic, transport-agnostic, and
    stable under the same ``~1/n`` movement bound.
    """

    POINTS_PER_SHARD = 64

    def __init__(self, shard_ids: Iterable[int]) -> None:
        points = []
        for shard_id in shard_ids:
            for replica in range(self.POINTS_PER_SHARD):
                token = hashlib.sha1(
                    f"shard-{shard_id}-point-{replica}".encode("ascii")
                ).digest()
                points.append((int.from_bytes(token[:8], "big"), shard_id))
        points.sort()
        if not points:
            raise ValueError("a hash ring needs at least one shard")
        self._hashes = [point for point, _ in points]
        self._shard_ids = [shard_id for _, shard_id in points]

    def lookup(self, digest: bytes) -> int:
        return self.replicas(digest, 1)[0]

    def replicas(self, digest: bytes, count: int) -> list[int]:
        """The first ``count`` distinct shards clockwise from the key.

        This is the key's *primary order*: position 0 is the slot a
        ``replication=1`` ring would choose, and failover walks the list
        left to right.  Depends only on the slot-id set — never on
        transports or liveness — so every router places every key
        identically, forever.
        """
        position = bisect_right(
            self._hashes, int.from_bytes(digest[:8], "big")
        )
        chosen: list[int] = []
        for step in range(len(self._hashes)):
            shard_id = self._shard_ids[(position + step) % len(self._hashes)]
            if shard_id not in chosen:
                chosen.append(shard_id)
                if len(chosen) == count:
                    break
        return chosen


def _shard_main(connection, payload: dict) -> None:
    """The body of a local shard's child process: a shard host on one link.

    Builds the replica from the router's payload and serves the child's
    socketpair end with
    :meth:`~repro.serving.remote.ShardHostServer.serve_connection`,
    already handshaken: the router built this replica at its own epoch.
    Each sweep is still epoch-stamped and checked on both ends.  Returns
    on EOF (the router shut its end down) or on the ``shutdown`` op.
    """
    # Imported here: the serving layer depends on core, not the reverse.
    from repro.serving.remote import ShardHostServer

    host = ShardHostServer(service_from_payload(payload))
    try:
        with (
            connection,
            connection.makefile("rb") as reader,
            connection.makefile("wb") as writer,
        ):
            host.serve_connection(reader, writer, handshaken=True)
    except (OSError, KeyboardInterrupt):
        pass  # router went away; nothing left to serve


class _InflightRequest:
    """One scattered request: its key, payload, and current placement."""

    __slots__ = ("request_id", "key", "query_tuple", "options", "replicas",
                 "shard", "kind")

    def __init__(self, request_id, key, query_tuple, options, replicas,
                 kind="sweep") -> None:
        self.request_id = request_id
        self.key = key
        self.query_tuple = query_tuple
        self.options = options
        self.replicas = replicas  # primary order; failover walks this
        self.shard = None  # the slot currently serving it
        self.kind = kind  # "sweep" | "mutate" | "stats"


class _BatchState:
    """The mutable bookkeeping of one scatter/gather cycle."""

    __slots__ = ("pending", "inflight", "outcomes", "failures", "activity")

    def __init__(self) -> None:
        self.pending: dict[int, int] = {}  # shard id -> in-flight count
        self.inflight: dict[int, _InflightRequest] = {}  # request id -> record
        self.outcomes: dict[int, object] = {}
        self.failures: dict[int, Exception] = {}
        self.activity: dict[int, float] = {}  # shard id -> last traffic


class _DownShard:
    """A slot out of service: its stopped transport and revival timer."""

    __slots__ = ("transport", "schedule")

    def __init__(self, transport, schedule: RetrySchedule) -> None:
        self.transport = transport
        self.schedule = schedule


@dataclass(frozen=True)
class ShardedStats:
    """Router counters plus one :class:`ServiceStats` snapshot per live shard.

    ``router_local`` is the router-side fallback service that answers
    what shard replicas cannot (non-``ws-q`` methods); its cache traffic
    counts toward the aggregate hit numbers below so a baseline-method
    workload does not read as "never warm" just because it is sharded.

    The health surface: ``dead_shards`` lists the slots currently out of
    service (their snapshots are necessarily absent from ``shards``),
    ``shards_failed`` counts every time a slot was declared dead over
    the router's lifetime, ``failovers`` counts in-flight sweeps that
    were re-dispatched onto a surviving replica, and ``reconnects``
    counts successful revivals.  A deployment is *degraded* — serving,
    but with less redundancy than configured — whenever ``dead_shards``
    is non-empty.

    With remote shards in the ring, a shard's snapshot covers the
    *daemon's* lifetime — which may predate this router connecting.
    """

    n_shards: int
    requests_routed: int
    inflight_deduped: int
    shards: tuple[ServiceStats, ...]
    router_local: ServiceStats | None = None
    replication: int = 1
    failovers: int = 0
    shards_failed: int = 0
    reconnects: int = 0
    dead_shards: tuple[int, ...] = ()
    #: The graph version the whole ring serves (every live replica is
    #: held at this epoch; a disagreeing reply is a ShardLinkError).
    epoch: int = 0

    @property
    def degraded(self) -> bool:
        """Serving with at least one replica slot out of service."""
        return bool(self.dead_shards)

    @property
    def _snapshots(self) -> tuple[ServiceStats, ...]:
        if self.router_local is None:
            return self.shards
        return self.shards + (self.router_local,)

    @property
    def queries_served(self) -> int:
        """Total requests served: shard sweeps plus router-local solves."""
        return sum(stats.queries_served for stats in self._snapshots)

    @property
    def result_hits(self) -> int:
        """Warm result-cache hits: every shard plus the router fallback."""
        return sum(stats.result_hits for stats in self._snapshots)

    @property
    def pairs_pruned(self) -> int:
        """Certified-pruned ``(root, λ)`` sweep pairs across the deployment."""
        return sum(stats.pairs_pruned for stats in self._snapshots)

    @property
    def pairs_scored(self) -> int:
        """Fully scored ``(root, λ)`` sweep pairs across the deployment."""
        return sum(stats.pairs_scored for stats in self._snapshots)

    @property
    def prune_rate(self) -> float:
        """Aggregate fraction of sweep pairs pruned (``0.0`` before any sweep)."""
        total = self.pairs_pruned + self.pairs_scored
        return self.pairs_pruned / total if total else 0.0

    @property
    def landmark_rebuilds(self) -> int:
        """Eager landmark-index rebuilds across every replica."""
        return sum(stats.landmark_rebuilds for stats in self._snapshots)

    def hit_rate(self, layer: str = "result") -> float:
        """Aggregate cache hit rate of one layer across the deployment.

        Same contract as :meth:`ServiceStats.hit_rate` (``"result"``,
        ``"candidate"`` or ``"score"``; ``0.0`` before any lookup), summed
        over the shard snapshots and the router-local fallback service.
        """
        return cache_hit_rate(self._snapshots, layer)


class ShardedConnectorService:
    """Route Min-Wiener-Connector queries across persistent shard replicas.

    Parameters
    ----------
    graph:
        The host graph; the router keeps it for validation and result
        construction while shards receive only the payload arrays (or,
        for remote shards, nothing — the daemon loaded its own copy,
        checked against ours by digest at connect time).  May be ``None``
        when ``csr`` is given: the router then runs graph-less on the
        bare arrays (the stream-constructed million-node path), serving
        ``ws-q`` with results whose hosts are induced from the CSR.
    csr:
        A :class:`~repro.graphs.csr.CSRGraph` backing a graph-less
        router; ignored when ``graph`` is given.
    options:
        Default :class:`SolveOptions`, overridable per call (the pair is
        the routing key, so the same query under different options may
        live on different shards — by design, results are keyed the same
        way).
    n_shards:
        Local shard-process count; defaults to ``min(4, cpu_count)``.
        Mutually exclusive with ``shards``.
    shards:
        Explicit shard specs, one per ring slot: ``"local"`` forks a
        shard-host child process the router owns, reached over a
        socketpair; ``"host:port"`` connects to a ``repro shard-host``
        daemon (see :mod:`repro.serving.remote`).  Both speak the same
        wire.  Mixed rings are fine; ring placement depends only on the
        slot count, so ``shards=["local", "local"]`` and two remote
        hosts route identically.
    replication:
        How many distinct replicas serve each key range (default 1 —
        exactly the pre-replication behavior, including
        close-on-death).  With ``replication=R >= 2`` each key's sweeps
        can be served by any of its R ring replicas, a dead replica
        fails over instead of failing the batch, and the batch fails
        only when a key range has zero live replicas.  Must not exceed
        the slot count at construction (a later shrink caps it
        implicitly).
    liveness_deadline:
        Seconds of mid-batch silence from a shard with in-flight sweeps
        before the router *probes* it (``None`` disables probing and
        waits forever, the pre-heartbeat behavior).  A probe that
        answers resets the clock — a long sweep is not a dead shard; a
        probe that does not marks the replica dead.  This replaces the
        ~60s TCP-keepalive bound on silent partitions with a
        configurable one.
    probe_timeout:
        Seconds a liveness/suspect-confirmation probe waits.
    heartbeat_interval:
        Forwarded to remote transports: idle links are pinged this often
        by a background monitor and marked suspect on a miss, so the
        router learns of a dead daemon *before* a batch touches it.
        ``None`` disables idle heartbeats.
    backoff:
        The :class:`~repro.core.retry.BackoffPolicy` pacing revival
        attempts of down slots (default: 0.5s doubling to 30s, 20%
        jitter).
    max_cached_roots / max_cached_candidates / max_cached_scores /
    max_cached_results:
        Forwarded to every *local* shard replica, bounding per-shard
        memory (a remote daemon's bounds were fixed by whoever started
        it).
    landmarks:
        When set, the router-local service *and* every local shard
        replica build a shared :class:`~repro.graphs.landmarks.LandmarkIndex`
        with this many landmarks, and rebuild it eagerly at
        delta-apply time so post-mutate sweeps never pay the rebuild.
    mp_context:
        The :mod:`multiprocessing` context that starts local shard
        children (default: the platform's default context).
    """

    #: Most requests a shard may have in flight before the router drains
    #: its replies.  Bounds both directions of every socket far below
    #: the OS buffer size, so arbitrarily large batches scatter without
    #: deadlock.  Failover may briefly overshoot this by the dead
    #: replica's re-dispatched sweeps (at most one extra cap's worth) —
    #: still far inside the buffer headroom the cap was sized for.
    MAX_INFLIGHT_PER_SHARD = 16

    def __init__(
        self,
        graph: Graph | None = None,
        options: SolveOptions | None = None,
        *,
        csr=None,
        n_shards: int | None = None,
        shards: Sequence[str] | None = None,
        replication: int = 1,
        liveness_deadline: float | None = 30.0,
        probe_timeout: float = 5.0,
        heartbeat_interval: float | None = 15.0,
        backoff: BackoffPolicy | None = None,
        max_cached_roots: int | None = 512,
        max_cached_candidates: int | None = 4096,
        max_cached_scores: int | None = 4096,
        max_cached_results: int | None = 1024,
        landmarks: int | None = None,
        mp_context=None,
    ) -> None:
        if shards is not None:
            if n_shards is not None:
                raise ValueError("pass n_shards or shards, not both")
            specs = [normalize_shard_spec(spec) for spec in shards]
            if not specs:
                raise ValueError("shards must name at least one shard")
        else:
            if n_shards is None:
                n_shards = min(4, os.cpu_count() or 1)
            if n_shards < 1:
                raise ValueError(f"n_shards must be at least 1, got {n_shards}")
            specs = ["local"] * n_shards
        if replication < 1:
            raise ValueError(
                f"replication must be at least 1, got {replication}"
            )
        if replication > len(specs):
            raise ValueError(
                f"replication={replication} needs at least that many shard "
                f"slots, got {len(specs)}"
            )
        if liveness_deadline is not None and liveness_deadline <= 0:
            raise ValueError(
                f"liveness_deadline must be positive or None, "
                f"got {liveness_deadline}"
            )
        self._replication = replication
        self._liveness_deadline = liveness_deadline
        self._probe_timeout = probe_timeout
        self._heartbeat_interval = heartbeat_interval
        self._backoff = backoff if backoff is not None else BackoffPolicy()
        # The router-side service: validation, payload construction, result
        # building, and the local fallback for non-"ws-q" methods.  Its own
        # solve caches see no sharded traffic.
        self._local = ConnectorService(
            graph,
            options,
            csr=csr,
            max_cached_roots=max_cached_roots,
            max_cached_candidates=max_cached_candidates,
            max_cached_scores=max_cached_scores,
            max_cached_results=max_cached_results,
            landmarks=landmarks,
        )
        # Kept so apply_delta can rebuild the payload at the new epoch
        # (revived local slots respawn from it and must not be stale).
        # ``landmarks`` rides along the same channel: replicas built from
        # the payload own their own landmark index and rebuild it eagerly
        # at delta-apply time, off the query path.
        self._cache_limits = {
            "max_cached_roots": max_cached_roots,
            "max_cached_candidates": max_cached_candidates,
            "max_cached_scores": max_cached_scores,
            "max_cached_results": max_cached_results,
        }
        if landmarks is not None:
            self._cache_limits["landmarks"] = landmarks
        self._payload = self._local.worker_payload(
            cache_limits=self._cache_limits
        )
        self._ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        self._specs: dict[int, object] = {}
        self._shards: dict[int, ShardTransport] = {}
        self._down: dict[int, _DownShard] = {}
        self._ring: _HashRing | None = None
        self._next_request_id = 0
        self._requests_routed = 0
        self._inflight_deduped = 0
        self._failovers = 0
        self._shards_failed = 0
        self._reconnects = 0
        self._closed = False
        try:
            for shard_id, spec in enumerate(specs):
                self._shards[shard_id] = self._make_transport(shard_id, spec)
                self._specs[shard_id] = spec
        except BaseException:
            # A refused remote handshake (or connect failure) mid-build
            # must not leak the shards already spawned.
            self.close()
            raise
        self._ring = _HashRing(sorted(self._specs))

    def _make_transport(self, shard_id: int, spec) -> ShardTransport:
        # Imported lazily: the serving layer depends on core, so core only
        # reaches back when it builds a shard.
        from repro.serving.remote import LocalShardTransport, RemoteShardTransport

        # Version state goes in as *providers*, not snapshots: a revival
        # after a delta must respawn (local) or handshake (remote) at the
        # epoch the ring serves now, and offer a daemon the catch-up
        # deltas it missed while down.
        if spec == "local":
            return LocalShardTransport(
                shard_id, payload=lambda: self._payload, mp_context=self._ctx
            )
        host, port = spec
        return RemoteShardTransport(
            shard_id,
            host,
            port,
            digest=self._local.index_digest,
            epoch=lambda: self._local.epoch,
            catchup=self._local.deltas_since,
            heartbeat_interval=self._heartbeat_interval,
            probe_timeout=self._probe_timeout,
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._local.graph

    @property
    def options(self) -> SolveOptions:
        return self._local.options

    @property
    def n_shards(self) -> int:
        """Total ring slots, live or down (the ring never shrinks on death)."""
        return len(self._specs)

    @property
    def replication(self) -> int:
        return self._replication

    @property
    def dead_shards(self) -> tuple[int, ...]:
        """The slots currently out of service, awaiting revival."""
        return tuple(sorted(self._down))

    def resize(self, shards: int | Sequence[str]) -> None:
        """Grow, shrink, or roll the shard topology and rebuild the ring.

        Legal between batches only (the synchronous router never holds
        in-flight requests across calls).  With a *count*: growing
        spawns fresh, cold *local* shards; shrinking stops the
        highest-numbered slots (reaping local children, merely
        disconnecting remote daemons).  With a *spec list*: the list is
        diffed against the current topology slot by slot — unchanged
        slots keep their live transports and warm caches, changed slots
        are replaced in place (the rolling-upgrade path), extra specs
        grow the ring, missing ones shrink it.  Resizing to the current
        topology is a true no-op — the ring, the transports, and every
        warm cache are left untouched.  Retained shards keep their warm
        caches, and consistent hashing keeps ``~(n-1)/n`` of the key
        space pinned to them.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if isinstance(shards, int):
            if shards < 1:
                raise ValueError(f"n_shards must be at least 1, got {shards}")
            current = [self._specs[i] for i in sorted(self._specs)]
            if shards <= len(current):
                specs = current[:shards]
            else:
                specs = current + ["local"] * (shards - len(current))
        else:
            specs = [normalize_shard_spec(spec) for spec in shards]
            if not specs:
                raise ValueError("shards must name at least one shard")
        old_count = len(self._specs)
        # Replace slots whose spec changed (keep matching ones untouched).
        for shard_id in range(min(old_count, len(specs))):
            if specs[shard_id] != self._specs[shard_id]:
                self.replace_shard(shard_id, specs[shard_id])
        created: list[int] = []
        try:
            for shard_id in range(old_count, len(specs)):
                self._shards[shard_id] = self._make_transport(
                    shard_id, specs[shard_id]
                )
                self._specs[shard_id] = specs[shard_id]
                created.append(shard_id)
        except BaseException:
            for shard_id in created:  # pragma: no cover - spawn failure
                self._shards.pop(shard_id).stop()
                self._specs.pop(shard_id)
            raise
        for shard_id in range(len(specs), old_count):
            self._specs.pop(shard_id)
            down = self._down.pop(shard_id, None)
            transport = self._shards.pop(shard_id, None)
            if transport is None and down is not None:
                transport = down.transport
            if transport is not None:
                transport.stop()
        if len(specs) != old_count:
            self._ring = _HashRing(sorted(self._specs))

    def replace_shard(self, shard_id: int, spec) -> None:
        """Swap one slot's transport for a new spec, ring untouched.

        The rolling-upgrade primitive: the replacement is built (and,
        for a remote spec, connected and digest-handshaken) *before* the
        old transport is stopped, so a failed replacement leaves the old
        shard serving.  The slot keeps its exact ring position — with
        ``replication>=2`` the other replicas of each key range cover
        the swap window, so a deployment upgrades hosts one slot at a
        time with zero downtime.  A currently-down slot may be replaced
        too (pointing it at a fresh host is the operator's fast path
        around the backoff timer).
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if shard_id not in self._specs:
            raise ValueError(
                f"no shard slot {shard_id}; slots are {sorted(self._specs)}"
            )
        normalized = normalize_shard_spec(spec)
        replacement = self._make_transport(shard_id, normalized)
        down = self._down.pop(shard_id, None)
        old = self._shards.pop(shard_id, None)
        if old is None and down is not None:
            old = down.transport
        if old is not None:
            try:
                old.stop()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        self._shards[shard_id] = replacement
        self._specs[shard_id] = normalized

    def shard_of(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> int:
        """The preferred shard of this ``(query, options)`` key (introspection).

        Pure placement — liveness is ignored, so the answer is stable
        across failures and heals.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        opts = self._local._merge(options)
        return self._route(request_digest(frozenset(query), opts))[0]

    def _route(self, digest: bytes) -> list[int]:
        """The key's replica list, preferred-first.

        The ring's clockwise walk gives the deterministic primary order;
        with ``replication>=2`` the list is then *rotated* by a digest
        byte so distinct keys sharing a replica group spread their
        preferred reads across it (hot-range fan-out) while every repeat
        of one key keeps hitting the same replica (cache affinity).
        Failover walks the rotated list left to right.
        """
        count = min(self._replication, len(self._specs))
        replicas = self._ring.replicas(digest, count)
        if len(replicas) > 1:
            offset = digest[8] % len(replicas)
            replicas = replicas[offset:] + replicas[:offset]
        return replicas

    # ------------------------------------------------------------------
    # Health: failure, failover, healing
    # ------------------------------------------------------------------
    def _shard_down(
        self, shard_id: int, state: _BatchState, *, mid_batch: bool
    ) -> None:
        """Take a failed slot out of service; fail over or fail the batch.

        With ``replication=1`` this is the historical close-on-death:
        a half-served batch cannot be completed and leaves replies
        queued in the surviving links, so the service closes with one
        clear error.  With ``replication>=2`` the slot moves to the
        down set (revival scheduled under the backoff policy) and its
        in-flight sweeps re-dispatch onto each key's next surviving
        replica; only a key range with zero live replicas still fails
        the batch.
        """
        if shard_id not in self._shards:
            return  # already handled by an earlier failure this batch
        if self._replication == 1:
            self.close()
            raise ServiceClosedError(
                f"shard {shard_id} died{' mid-batch' if mid_batch else ''}; "
                "the sharded service was closed and must be rebuilt"
            ) from None
        transport = self._shards.pop(shard_id)
        try:
            transport.stop()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        self._down[shard_id] = _DownShard(
            transport,
            RetrySchedule(self._backoff, seed=shard_id, initial_delay=True),
        )
        self._shards_failed += 1
        state.pending.pop(shard_id, None)
        state.activity.pop(shard_id, None)
        orphans = [
            record for record in state.inflight.values()
            if record.shard == shard_id
        ]
        for record in orphans:
            del state.inflight[record.request_id]
            if record.kind != "sweep":
                # A snapshot of a dead replica is meaningless; a mutate
                # needs no failover either — the slot picks the delta up
                # on revival (refreshed payload / catch-up handshake).
                continue
            self._failovers += 1
            self._dispatch(record, state)

    def _preferred_live(self, record: _InflightRequest) -> int:
        """The first live replica of the record's primary order.

        When every replica of the key range is down, each gets one
        last-resort revival attempt (ignoring its backoff timer — the
        alternative is failing the batch, so a wasted probe is cheap).
        Only when that too comes up empty does the batch fail: the
        ``replication>=2`` contract is *zero live replicas*, not *one
        dead one*.
        """
        for shard_id in record.replicas:
            if shard_id in self._shards:
                return shard_id
        for shard_id in record.replicas:
            if self._revive(shard_id):
                return shard_id
        self.close()
        raise ServiceClosedError(
            f"no live replicas for a key range (slots {record.replicas} are "
            "all down); the sharded service was closed and must be rebuilt"
        )

    def _dispatch(self, record: _InflightRequest, state: _BatchState) -> None:
        """Submit one sweep to its first live replica, failing over on death."""
        while True:
            shard_id = self._preferred_live(record)
            try:
                self._shards[shard_id].submit(
                    record.request_id,
                    record.query_tuple,
                    record.options,
                    self._local.epoch,
                )
            except _TRANSPORT_FAILURES:
                self._shard_down(shard_id, state, mid_batch=False)
                continue  # walk to the key's next replica
            self._track(record, shard_id, state)
            return

    @staticmethod
    def _track(record: _InflightRequest, shard_id: int, state: _BatchState) -> None:
        """Book a request submitted to ``shard_id`` as in flight there."""
        record.shard = shard_id
        state.inflight[record.request_id] = record
        state.pending[shard_id] = state.pending.get(shard_id, 0) + 1
        state.activity[shard_id] = time.monotonic()

    def _revive(self, shard_id: int) -> bool:
        """One revival attempt of a down slot; True when it rejoined."""
        down = self._down.get(shard_id)
        if down is None:
            return shard_id in self._shards
        try:
            down.transport.reconnect()
        except Exception:
            down.schedule.record_failure()
            return False
        self._shards[shard_id] = down.transport
        del self._down[shard_id]
        self._reconnects += 1
        return True

    def _probe_shard(self, transport: ShardTransport) -> bool:
        try:
            return transport.probe(self._probe_timeout)
        except Exception:  # pragma: no cover - probe must never raise
            return False

    def _heal(self) -> None:
        """The batch-boundary health pass: revive the due, confirm suspects.

        Runs before every scatter so a batch starts from the healthiest
        ring the backoff timers allow, and so replicas flagged by the
        idle heartbeat monitors are confirmed (one probe) and taken out
        of service *before* sweeps are routed at them.
        """
        now = time.monotonic()
        for shard_id in sorted(self._down):
            if self._down[shard_id].schedule.due(now):
                self._revive(shard_id)
        for shard_id in sorted(self._shards):
            transport = self._shards[shard_id]
            if not transport.is_suspect():
                continue
            if self._probe_shard(transport):
                transport.clear_suspect()
            else:
                self._shard_down(shard_id, _BatchState(), mid_batch=False)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def solve(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> ConnectorResult:
        """Solve one query on its home shard."""
        return self.solve_many([query], options)[0]

    def solve_many(
        self,
        queries: Iterable[Iterable[Node]],
        options: SolveOptions | None = None,
    ) -> list[ConnectorResult]:
        """Solve a batch across the shards; results come back in input order.

        Distinct keys are scattered to their home shards and solved
        concurrently; identical in-flight keys are sent once and every
        duplicate position receives the same result object.  Non-``ws-q``
        methods need the host graph, which the array-seeded shard
        replicas do not have, so the router's local service answers them
        with the same results.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        opts = self._local._merge(options)
        query_sets = [frozenset(query) for query in queries]
        if opts.method != "ws-q":
            return [self._local.solve(query_set, opts) for query_set in query_sets]
        for query_set in query_sets:
            self._local._validate(query_set)
        self._heal()

        # Dedupe identical in-flight keys and scatter one request each.
        # Draining is interleaved with scattering: a socket buffers
        # only a bounded number of bytes per direction, so a router that
        # sent a whole large batch before reading any reply would deadlock
        # against a shard blocked on sending its replies.  The per-shard
        # in-flight cap keeps both directions of every link comfortably
        # under the buffer size.
        state = _BatchState()
        routed: dict[frozenset, _InflightRequest] = {}
        for query_set in query_sets:
            if query_set in routed:
                self._inflight_deduped += 1
                continue
            record = _InflightRequest(
                request_id=self._take_request_id(),
                key=query_set,
                query_tuple=tuple(sorted(query_set, key=repr)),
                options=opts,
                replicas=self._route(request_digest(query_set, opts)),
            )
            target = self._preferred_live(record)
            if state.pending.get(target, 0) >= self.MAX_INFLIGHT_PER_SHARD:
                self._gather(state, below_cap=target)
            self._dispatch(record, state)
            routed[query_set] = record
            self._requests_routed += 1
        self._gather(state)

        if state.failures:
            # Fail the batch with the error of the *earliest* failed request
            # (deterministic regardless of which shard replied first).
            raise state.failures[min(state.failures)]
        results: dict[frozenset, ConnectorResult] = {}
        for query_set, record in routed.items():
            results[query_set] = self._local._to_result(
                query_set,
                state.outcomes[record.request_id],
                extra={
                    "sharded": True,
                    "shard": record.shard,
                    "shards": self.n_shards,
                },
            )
        return [results[query_set] for query_set in query_sets]

    def _take_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    def _gather(self, state: _BatchState, *, below_cap: int | None = None) -> None:
        """Receive shard replies into ``state.outcomes`` / ``state.failures``.

        With ``below_cap=shard_id``, stops as soon as that shard is back
        under :data:`MAX_INFLIGHT_PER_SHARD` (the mid-scatter drain);
        otherwise runs until every link is empty, even when some replies
        carry errors — the next batch must find the transports drained.
        Uses :func:`multiprocessing.connection.wait` over the transports'
        waitables so a slow shard never blocks draining the others.

        Liveness: with a configured ``liveness_deadline``, the wait ticks
        instead of blocking forever; a shard silent past the deadline is
        probed, and only an *unreachable* one is declared dead (a probe
        that answers resets the shard's clock — long sweeps are work,
        not death).  Death here routes through the same
        :meth:`_shard_down` failover path as an explicit transport error.
        """
        while state.pending:
            if (
                below_cap is not None
                and state.pending.get(below_cap, 0) < self.MAX_INFLIGHT_PER_SHARD
            ):
                return
            progressed = False
            for shard_id in list(state.pending):
                transport = self._shards.get(shard_id)
                if transport is None:
                    # Went down (and failed over) earlier in this pass.
                    state.pending.pop(shard_id, None)
                    continue
                try:
                    replies = transport.drain()
                except _TRANSPORT_FAILURES:
                    self._shard_down(shard_id, state, mid_batch=True)
                    progressed = True
                    continue
                for request_id, status, value in replies:
                    record = state.inflight.pop(request_id, None)
                    if record is None:
                        continue  # defensive: a reply for a failed-over id
                    if status == "ok" and record.kind == "sweep":
                        # Sweep replies arrive epoch-stamped.  The router
                        # is synchronous, so its epoch cannot have moved
                        # since dispatch — a mismatch means the replica
                        # answered from another graph version, and that
                        # must surface as a typed error, never a silently
                        # stale connector.
                        reply_epoch, payload = value
                        if reply_epoch != self._local.epoch:
                            state.failures[request_id] = ShardLinkError(
                                f"shard {shard_id} answered a sweep at "
                                f"epoch {reply_epoch}; the router is at "
                                f"epoch {self._local.epoch}"
                            )
                        else:
                            state.outcomes[request_id] = payload
                    elif status == "ok":
                        state.outcomes[request_id] = value
                    else:
                        state.failures[request_id] = value
                    state.pending[shard_id] -= 1
                    state.activity[shard_id] = time.monotonic()
                    progressed = True
                if not state.pending.get(shard_id, 1):
                    del state.pending[shard_id]
            if progressed or not state.pending:
                continue
            by_waitable = {
                self._shards[shard_id].waitable: shard_id
                for shard_id in state.pending
            }
            if self._liveness_deadline is None:
                mp_connection.wait(list(by_waitable))
                continue
            tick = min(1.0, self._liveness_deadline / 4)
            ready = mp_connection.wait(list(by_waitable), tick)
            if ready:
                continue
            now = time.monotonic()
            for shard_id in list(state.pending):
                silent = now - state.activity.get(shard_id, now)
                if silent < self._liveness_deadline:
                    continue
                if self._probe_shard(self._shards[shard_id]):
                    state.activity[shard_id] = now  # alive, just slow
                else:
                    self._shard_down(shard_id, state, mid_batch=True)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The graph version the ring serves (the router's local epoch)."""
        return self._local.epoch

    def index_digest(self) -> str:
        """The current graph version's digest (changes with every delta)."""
        return self._local.index_digest()

    def apply_delta(self, delta) -> int:
        """Advance the whole ring to the next graph version; returns it.

        The two-phase epoch flip.  *Quiesce* is structural: the router is
        synchronous, so at call time no batch is in flight anywhere —
        every previously scattered sweep has been gathered, and every
        future sweep will be dispatched (and epoch-stamped) after the
        flip.  Phase one applies the delta to the router's local service
        (which validates it — an inapplicable delta raises
        :class:`~repro.errors.DeltaError` before any replica is touched)
        and rebuilds the worker payload so revived local slots respawn at
        the new version.  Phase two scatters the delta to every *live*
        replica and gathers their new epochs; a replica that answers with
        a different epoch, or fails to apply a delta the router already
        applied, has diverged — a :class:`ShardLinkError`, because a
        version-skewed link is a broken link.

        Down slots are not forgotten: a local slot respawns cold from the
        refreshed payload, and a remote slot's reconnect handshake
        negotiates catch-up — the daemon reports the epoch it is stuck
        at, the transport replays ``deltas_since`` that epoch, and only a
        daemon too far behind (or on a diverged graph) stays refused.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        # Heal first so every replica that *can* take the delta live does,
        # instead of burning a cold respawn/catch-up on the next batch.
        self._heal()
        epoch = self._local.apply_delta(delta)
        self._payload = self._local.worker_payload(
            cache_limits=self._cache_limits
        )
        replies, failures = self._broadcast(
            "mutate", lambda link, request_id: link.submit_mutate(request_id, delta)
        )
        if failures:
            first = next(iter(failures.values()))
            raise ShardLinkError(
                f"a replica failed to apply the delta for epoch {epoch} "
                f"(it has diverged from the router): {first}"
            ) from first
        # A slot that died mid-mutate has no reply: it went down, and
        # revival brings it back at the current epoch.
        for shard_id, replied in replies.items():
            if replied != epoch:
                raise ShardLinkError(
                    f"shard {shard_id} applied the delta but reports epoch "
                    f"{replied}; the router is at epoch {epoch}"
                )
        return epoch

    def _broadcast(self, kind: str, submit) -> tuple[dict, dict]:
        """Send one ``kind`` request to every live slot and gather replies.

        ``submit(transport, request_id)`` sends it.  A slot whose link
        fails goes down without failover — a mutate or a snapshot belongs
        to that one replica — and has no entry in either result.  Returns
        ``(replies, failures)``, both keyed by shard id in slot order.
        """
        state = _BatchState()
        sent: dict[int, int] = {}  # shard id -> request id
        for shard_id in sorted(self._shards):
            record = _InflightRequest(
                request_id=self._take_request_id(),
                key=None,
                query_tuple=None,
                options=None,
                replicas=(shard_id,),
                kind=kind,
            )
            try:
                submit(self._shards[shard_id], record.request_id)
            except _TRANSPORT_FAILURES:
                self._shard_down(shard_id, state, mid_batch=False)
                continue
            self._track(record, shard_id, state)
            sent[shard_id] = record.request_id
        self._gather(state)
        replies = {
            shard_id: state.outcomes[request_id]
            for shard_id, request_id in sent.items()
            if request_id in state.outcomes
        }
        failures = {
            shard_id: state.failures[request_id]
            for shard_id, request_id in sent.items()
            if request_id in state.failures
        }
        return replies, failures

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ShardedStats:
        """Router counters plus a live snapshot from every *live* shard.

        Down slots contribute no snapshot (there is nobody to ask) and
        are listed in :attr:`ShardedStats.dead_shards` instead; a shard
        that dies during this very scatter is likewise reported as dead
        rather than failing the call (``replication>=2`` only — with a
        single replica the historical close-on-death applies here too).
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        self._heal()
        snapshots, failures = self._broadcast(
            "stats", lambda link, request_id: link.submit_stats(request_id)
        )
        assert not failures  # stats requests cannot fail
        return ShardedStats(
            n_shards=self.n_shards,
            requests_routed=self._requests_routed,
            inflight_deduped=self._inflight_deduped,
            shards=tuple(snapshots.values()),
            router_local=self._local.stats(),
            replication=self._replication,
            failovers=self._failovers,
            shards_failed=self._shards_failed,
            reconnects=self._reconnects,
            dead_shards=self.dead_shards,
            epoch=self._local.epoch,
        )

    def close(self) -> None:
        """Stop every shard transport, live or down; idempotent.

        Local children see their link shut down, return, and are reaped;
        remote daemons are only disconnected (they are owned by whoever
        started them and may be serving other routers).
        """
        if self._closed:
            return
        self._closed = True
        while self._shards:
            _, shard = self._shards.popitem()
            shard.stop()
        while self._down:
            _, down = self._down.popitem()
            try:
                down.transport.stop()
            except Exception:  # pragma: no cover - already stopped
                pass

    def __enter__(self) -> "ShardedConnectorService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "closed" if self._closed else (
            f"shards={self.n_shards}"
            + (f" (down: {list(self.dead_shards)})" if self._down else "")
        )
        return (
            f"{type(self).__name__}(|V|={self._local.num_nodes}, {state}, "
            f"routed={self._requests_routed})"
        )
