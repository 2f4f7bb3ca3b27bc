"""ConnectorService — a persistent multi-query serving API over one graph.

The paper's §6.6 scalability discussion (parallel roots, approximate
distances) assumes the expensive per-graph state is *reusable*; before
this module the public API was one-shot — every ``wiener_steiner()`` call
rebuilt the CSR arrays, re-ran every root BFS, and threw all of it away.
:class:`ConnectorService` is the layer that amortizes:

* **one graph index** — the CSR arrays are the only graph a service
  holds: a :class:`~repro.graphs.graph.Graph` is packed once at
  construction (or a prebuilt :class:`~repro.graphs.csr.CSRGraph`
  adopted), deltas replay onto the arrays alone, and every query shares
  them through one :class:`~repro.core.fastpath.CSRWienerSteinerEngine`.
  Results are built on the connector's induced subgraph, and the
  baseline methods run on :attr:`ConnectorService.graph`, a dict view
  materialized from the arrays once per epoch;
* **per-root BFS caches with LRU bounds** — Algorithm 1's line-1 BFS data
  (distances and canonical parents, two ``O(|V|)`` arrays; the Lemma-4
  per-arc ``max`` is re-gathered from the distances per root batch) is
  keyed by root and survives across queries, so workloads whose queries
  share vertices never recompute a root.  The LRU bound keeps a
  long-lived service's memory proportional to the hot root set, not to
  the query history;
* **candidate / score / result caches** — a ``(root, λ, terminals)``
  candidate, an exact (or deterministic sampled) Wiener score, and a
  whole ``(query, options)`` result are each pure functions of their key,
  so repeated and overlapping queries are answered from cache with
  *bit-identical* connectors;
* **array-shipping replicas** — :meth:`ConnectorService.worker_payload`
  carries the two CSR int arrays (plus the label list), never a dict
  ``Graph``; :func:`service_from_payload` rebuilds a replica from them.
  The persistent shard ring of :mod:`repro.core.sharded` is the one way
  to run sweeps in parallel, and its wire names vertices by index
  (:meth:`ConnectorService.labels_at` / :meth:`ConnectorService.indices_of`).

Identity contract
-----------------

``ConnectorService.solve`` returns the *same connector, bit for bit*, as
the one-shot :func:`repro.core.wiener_steiner.wiener_steiner` under equal
options — cold or warm caches, after LRU eviction, in-process or on a
shard replica.  Every cache key captures the full input of the value it
stores, and the λ×root sweep below is the same canonical loop the
one-shot path always ran (``wiener_steiner()`` is now literally a
throwaway service).  The property-test suite asserts this on random
corpora.

Quickstart
----------
>>> from repro.core.service import ConnectorService
>>> from repro.datasets import karate_club
>>> service = ConnectorService(karate_club())
>>> results = service.solve_many([[12, 25], [12, 26, 30]])
>>> [sorted(r.query) for r in results]
[[12, 25], [12, 26, 30]]
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.fastpath import CSRWienerSteinerEngine
from repro.core.lru import LRUCache
from repro.core.options import SolveOptions
from repro.core.result import ConnectorResult
from repro.core.versioned import GraphDelta, VersionedIndex
from repro.core.wiener_steiner import _lambda_grid
from repro.errors import (
    DeltaError,
    DisconnectedGraphError,
    GraphError,
    InvalidQueryError,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, Node

__all__ = [
    "ConnectorService",
    "ServiceStats",
    "SweepOutcome",
    "cache_hit_rate",
    "service_from_payload",
]

#: The cache layers whose hit/miss counters back ``hit_rate()`` helpers.
HIT_RATE_LAYERS = ("result", "candidate", "score")


def cache_hit_rate(snapshots, layer: str) -> float:
    """Aggregate hit rate of one cache layer, ``0.0`` before any lookup.

    ``snapshots`` is any iterable of :class:`ServiceStats`-shaped
    objects (one for a single service, the per-shard tuple for a sharded
    one).  Shared by :meth:`ServiceStats.hit_rate` and
    :meth:`~repro.core.sharded.ShardedStats.hit_rate` so the layer names,
    the error message, and the zero-lookup guard cannot drift apart.
    """
    if layer not in HIT_RATE_LAYERS:
        raise ValueError(
            f"unknown cache layer {layer!r}; choose from {HIT_RATE_LAYERS}"
        )
    hits = misses = 0
    for snapshot in snapshots:
        hits += getattr(snapshot, f"{layer}_hits")
        misses += getattr(snapshot, f"{layer}_misses")
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class ServiceStats:
    """Cache observability snapshot (see :meth:`ConnectorService.stats`).

    Hit/miss counters cover the whole service lifetime; the ``*_cache_size``
    fields report *current* occupancy, which is what LRU-bound tests and
    shard introspection need.  ``uptime_seconds`` is how long this replica
    has existed — for a remote shard that is the *daemon's* lifetime
    (which may predate any router connecting), the baseline health
    dashboards and failover decisions compare against.
    """

    queries_served: int
    result_hits: int
    result_misses: int
    candidate_hits: int
    candidate_misses: int
    score_hits: int
    score_misses: int
    cached_roots: int
    result_cache_size: int = 0
    candidate_cache_size: int = 0
    score_cache_size: int = 0
    uptime_seconds: float = 0.0
    #: Graph version this replica serves: 0 at construction, +1 per
    #: applied delta.  The fields below are lifetime totals across every
    #: :meth:`ConnectorService.apply_delta` — how many cache entries the
    #: scoped invalidation evicted vs proved safe to keep.  All three
    #: default for wire compatibility with pre-mutation stats payloads.
    epoch: int = 0
    entries_invalidated: int = 0
    entries_retained: int = 0
    #: Every (root, λ) pair the λ×root sweeps of this replica's lifetime
    #: visited.  Defaults for wire compatibility with older payloads.
    pairs_scored: int = 0
    #: Always 0, and not a field: ``perfbench/layers.py`` is its only reader.
    pairs_pruned = 0

    def hit_rate(self, layer: str = "result") -> float:
        """Cache hit rate of one layer, ``0.0`` before any lookup.

        ``layer`` is ``"result"`` (default), ``"candidate"`` or
        ``"score"`` — the three LRU layers with hit/miss counters.  The
        zero-lookup guard means a cold service reports ``0.0`` instead of
        dividing by zero, so benchmarks and dashboards can print the
        ratio unconditionally.
        """
        return cache_hit_rate((self,), layer)


@dataclass(frozen=True)
class SweepOutcome:
    """The outcome of one λ×root sweep, in label space.

    The unit a shard replica answers with: everything a router needs to
    build a :class:`~repro.core.result.ConnectorResult`, and nothing it
    does not (no host graph, no subgraph).  On the shard wire it travels
    as plain JSON in index space, ``nodes`` and ``root`` as vertex
    indices (see :mod:`repro.serving.protocol`).
    """

    nodes: frozenset
    root: object
    lam: float | None
    candidates: int
    key: float
    runtime_seconds: float

    def to_payload(self, indices_of) -> dict:
        """The sweep reply's fields, vertices as indices (``indices_of``)."""
        (root,) = indices_of([self.root])
        return {
            "nodes": sorted(indices_of(self.nodes)),
            "root": root,
            "lambda": self.lam,
            "candidates": self.candidates,
            "key": self.key,
            "runtime_seconds": self.runtime_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict, labels_at) -> "SweepOutcome":
        """Inverse of :meth:`to_payload`; raises ``KeyError``, ``TypeError``
        or ``ValueError`` on a missing, mistyped or out-of-range field."""
        (root,) = labels_at([payload["root"]])
        outcome = cls(
            nodes=frozenset(labels_at(payload["nodes"])),
            root=root,
            lam=payload["lambda"],
            candidates=payload["candidates"],
            key=payload["key"],
            runtime_seconds=payload["runtime_seconds"],
        )
        lam = 0.0 if outcome.lam is None else outcome.lam
        if type(outcome.candidates) is not int or not all(
            type(value) in (int, float)
            for value in (lam, outcome.key, outcome.runtime_seconds)
        ):
            raise ValueError("a sweep reply field has the wrong JSON type")
        return outcome


class ConnectorService:
    """Serve many Min-Wiener-Connector queries from one persistent index.

    Parameters
    ----------
    graph:
        The host graph, packed into CSR arrays once at construction; the
        service keeps no reference to it, so mutating it afterwards
        changes nothing the service serves (:meth:`apply_delta` is the
        mutation path).  ``None`` when ``csr`` is given.
    options:
        Default :class:`~repro.core.options.SolveOptions` for every solve;
        individual calls may override them.
    csr:
        A prebuilt :class:`~repro.graphs.csr.CSRGraph` to adopt instead
        of a ``graph`` (shard replicas and stream-built instances).
        Passing both raises ``ValueError``.
    max_cached_roots / max_cached_candidates / max_cached_scores /
    max_cached_results:
        LRU bounds of the four cache layers (``None`` = unbounded).  The
        defaults keep a busy service's footprint modest; a throwaway
        one-shot service never fills them.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        options: SolveOptions | None = None,
        *,
        csr: CSRGraph | None = None,
        max_cached_roots: int | None = 512,
        max_cached_candidates: int | None = 4096,
        max_cached_scores: int | None = 4096,
        max_cached_results: int | None = 1024,
        epoch: int = 0,
    ) -> None:
        if graph is not None and csr is not None:
            raise ValueError(
                "pass a graph or a CSRGraph, not both: the service would "
                "sweep one and validate against the other"
            )
        if graph is None and csr is None:
            raise GraphError("ConnectorService needs a graph or a CSRGraph")
        self.options = options if options is not None else SolveOptions()
        self._versioned = VersionedIndex(
            csr if csr is not None else CSRGraph.from_graph(graph), epoch=epoch
        )
        # This epoch's dict view (see the graph property), built on first use.
        self._graph: Graph | None = None
        # The sweep engine, built on first use (see _sweep_engine).
        self._engine: CSRWienerSteinerEngine | None = None
        self._max_cached_roots = max_cached_roots
        self._candidates = LRUCache(max_cached_candidates)
        self._scores = LRUCache(max_cached_scores)
        self._results = LRUCache(max_cached_results)
        self._queries_served = 0
        self._entries_invalidated = 0
        self._entries_retained = 0
        self._pairs_scored = 0
        self._created = time.monotonic()

    # ------------------------------------------------------------------
    # Shape / validation helpers
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._versioned.csr.num_nodes

    @property
    def graph(self) -> Graph:
        """This epoch's host graph as a dict :class:`Graph` — read-only.

        Materialized from the CSR arrays (nodes in index order) on first
        access and rebuilt after each :meth:`apply_delta`, so a bare-CSR
        service has one too.  The baseline methods run on it; the ws-q
        sweep never reads it.  Do not mutate it: the service would not
        see the change, but later baseline solves of this epoch would.
        """
        if self._graph is None:
            self._graph = self._versioned.csr.to_graph()
        return self._graph

    def _missing(self, vertices) -> list[str]:
        """Reprs of the given vertices the graph does not hold, sorted."""
        index_of = self._versioned.csr.index_of
        return sorted(repr(v) for v in vertices if v not in index_of)

    def labels_at(self, indices) -> list:
        """The labels at ``indices``, a list of plain ints in ``[0, n)``.

        The shard wire's decoder: anything else raises ``ValueError``, as
        a Python list would index ``-1`` or ``True`` to a wrong vertex.
        """
        node_of = self._versioned.csr.node_of
        n = len(node_of)
        if not isinstance(indices, list) or not all(
            type(i) is int and 0 <= i < n for i in indices
        ):
            raise ValueError(
                f"vertex indices must be a list of ints in [0, {n}), "
                f"got {indices!r:.80}"
            )
        return [node_of[i] for i in indices]

    def indices_of(self, labels) -> list[int]:
        """The indices of ``labels``, all in the graph: the wire's encoder."""
        index_of = self._versioned.csr.index_of
        return [index_of[v] for v in labels]

    def _validate(self, query_set: frozenset) -> None:
        if not query_set:
            raise InvalidQueryError("query set must be non-empty")
        missing = self._missing(query_set)
        if missing:
            raise InvalidQueryError(f"query vertices not in graph: {missing}")

    def index_digest(self) -> str:
        """A process- and host-stable hex digest of this epoch's index.

        The handshake token of the remote shard transport: a
        :class:`~repro.core.sharded.ShardedConnectorService` router sends
        this digest to every shard-host daemon at connect time and the
        daemon refuses mismatches — two processes that do not serve the
        *same* index must never share a key ring, or the bit-identity
        contract breaks silently.  It hashes the labels in index order and
        the CSR arrays (:func:`~repro.core.versioned.index_digest_of`), so
        a reordered copy of the graph, which can answer differently, is
        refused too.  Cached by the version index until the next delta.
        """
        return self._versioned.index_digest()

    def _sweep_engine(self) -> CSRWienerSteinerEngine:
        if self._engine is None:
            self._engine = CSRWienerSteinerEngine(
                self._versioned.csr, max_cached_roots=self._max_cached_roots
            )
        return self._engine

    @property
    def _engines(self) -> dict:
        """``{"csr": engine}`` once the engine exists, else ``{}``.

        The mapping shape the benchmark's cache-byte probe
        (``perfbench/layers.py``) walks.
        """
        return {} if self._engine is None else {"csr": self._engine}

    def _merge(self, options: SolveOptions | None) -> SolveOptions:
        if options is None:
            return self.options
        if not isinstance(options, SolveOptions):
            raise TypeError(
                f"options must be a SolveOptions, got {type(options).__name__}"
            )
        return options

    # ------------------------------------------------------------------
    # The λ×root sweep (Algorithm 1) with service-level caches
    # ------------------------------------------------------------------
    def _solve_ws(self, query_set: frozenset, options: SolveOptions) -> SweepOutcome:
        """Run one WienerSteiner sweep; returns a label-space outcome.

        This is the canonical λ-major loop of the historical one-shot
        ``wiener_steiner``: same grid, same root order, same per-query
        candidate dedup, same strict-improvement selection.  The caches
        only short-circuit recomputation of pure functions, so warm and
        cold services return identical outcomes.

        **λ work sharing:** each root's candidates are built for the whole
        grid in one engine batch at the root's first encounter (one
        per-arc gather per root, then one weight row per λ), honoring the
        candidate LRU per ``(root, λ)`` entry.
        """
        started = time.perf_counter()
        self._validate(query_set)

        if len(query_set) == 1:
            only = next(iter(query_set))
            return SweepOutcome(
                nodes=frozenset([only]), root=only, lam=None, candidates=1,
                key=0.0, runtime_seconds=time.perf_counter() - started,
            )

        root_list = _root_list(options, query_set)
        missing = self._missing(root_list)
        if missing:
            raise InvalidQueryError(f"root vertices not in graph: {missing}")

        engine = self._sweep_engine()

        # Line 1: one BFS per candidate root (cached by the engine, shared
        # across every query that mentions the root).
        for root in root_list:
            unreachable = engine.unreachable_queries(root, query_set)
            if unreachable:
                raise DisconnectedGraphError(
                    f"query vertices {sorted(map(repr, unreachable))} "
                    f"unreachable from root {root!r}"
                )

        grid = (
            list(options.lambda_values)
            if options.lambda_values is not None
            else _lambda_grid(self.num_nodes, options.beta)
        )

        best_key: float = math.inf
        best_nodes: frozenset | None = None
        best_root = None
        best_lambda: float | None = None
        scored: set[frozenset] = set()
        batches: dict = {}

        for lam_i, lam in enumerate(grid):
            for root in root_list:
                per_lam = batches.get(root)
                if per_lam is None:
                    per_lam = self._candidates_for_root(
                        engine, root, grid, query_set, options.adjust
                    )
                    batches[root] = per_lam
                candidate = per_lam[lam_i]
                if candidate in scored:
                    continue
                key = self._score_candidate(engine, candidate, root, options)
                scored.add(candidate)
                if key < best_key:
                    best_key = key
                    best_nodes = candidate
                    best_root = root
                    best_lambda = lam

        self._pairs_scored += len(grid) * len(root_list)
        return SweepOutcome(
            nodes=best_nodes,
            root=best_root,
            lam=best_lambda,
            candidates=len(scored),
            key=best_key,
            runtime_seconds=time.perf_counter() - started,
        )

    def _candidates_for_root(
        self, engine, root, grid: list, query_set, adjust: bool
    ) -> list:
        """All of one root's grid candidates, batch-built through the LRU.

        Grid positions already cached are honored entry by entry; only
        the missing λ values go to the engine's batch constructor (which
        produces the same frozensets an isolated per-λ call would), so a
        warm service never rebuilds what it has while a cold one pays a
        single shared pass per root.
        """
        per_lam: list = [None] * len(grid)
        missing: list[int] = []
        for i, lam in enumerate(grid):
            cached = self._candidates.get((root, lam, query_set, adjust))
            if cached is not None:
                per_lam[i] = cached
            else:
                missing.append(i)
        if missing:
            built = engine.candidates_for_root(
                root, [grid[i] for i in missing], query_set, adjust
            )
            for i, candidate in zip(missing, built):
                per_lam[i] = candidate
                self._candidates.put(
                    (root, grid[i], query_set, adjust), candidate
                )
        return per_lam

    def _score_candidate(
        self, engine, nodes: frozenset, root, options: SolveOptions
    ) -> float:
        """Score per the selection policy, caching root-independent kinds.

        The one place the policy is decided (line 15 / Remark 1): ``"a"``
        always uses the proxy ``A(H, r)``; ``"wiener"`` always scores
        exactly; ``"auto"`` scores exactly up to ``exact_threshold``
        vertices and by the proxy beyond; ``"sampled"`` replaces that proxy
        tail with the Remark-1 sampled Wiener estimator.  Exact and sampled
        scores depend only on the candidate set (the sampled estimator is
        deterministically seeded), so they are cached across roots, λ
        values, *and* queries; the proxy is root-dependent and cheap, so it
        is computed directly.
        """
        selection = options.selection
        use_exact = selection == "wiener" or (
            selection in ("auto", "sampled")
            and len(nodes) <= options.exact_threshold
        )
        if use_exact:
            score_key = ("exact", nodes)
        elif selection == "sampled":
            score_key = (
                "sampled", nodes, options.sample_sources, options.sample_seed
            )
        else:
            return engine.score_proxy(nodes, root)
        cached = self._scores.get(score_key)
        if cached is not None:
            return cached
        if use_exact:
            value = engine.score_exact(nodes)
        else:
            value = engine.score_sampled(
                nodes, options.sample_sources, options.sample_seed
            )
        self._scores.put(score_key, value)
        return value

    # ------------------------------------------------------------------
    # Public solving API
    # ------------------------------------------------------------------
    def solve(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> ConnectorResult:
        """Solve one query; repeated ``(query, options)`` pairs hit cache.

        Non-``ws-q`` methods (``options.method``) are dispatched through
        the uniform :data:`repro.baselines.METHODS` registry on
        :attr:`graph` and cached the same way.

        Cache hits return the *same* :class:`ConnectorResult` object
        (standard memoization semantics, and what makes repeats
        bit-identical for free) — treat ``result.metadata`` as read-only,
        since mutating it would alter every later response for the query.
        """
        opts = self._merge(options)
        query_set = frozenset(query)
        result_key = (query_set, opts)
        cached = self._results.get(result_key)
        if cached is not None:
            self._queries_served += 1
            return cached
        if opts.method == "ws-q":
            solved = self._solve_ws(query_set, opts)
            result = self._to_result(query_set, solved)
        else:
            from repro.baselines import METHODS

            try:
                method = METHODS[opts.method]
            except KeyError:
                raise ValueError(
                    f"unknown method {opts.method!r}; "
                    f"choose from {sorted(METHODS)}"
                ) from None
            result = method.solve(self.graph, query_set, opts)
        self._results.put(result_key, result)
        self._queries_served += 1
        return result

    def sweep(
        self, query: Iterable[Node], options: SolveOptions | None = None
    ) -> SweepOutcome:
        """Run one λ×root sweep and return its outcome.

        This is the *shard-side worker API*: a shard replica serves it,
        and the router turns the outcome into a :class:`ConnectorResult`.
        Outcomes are cached in the result LRU under a ``("sweep", query,
        options)`` key — disjoint from :meth:`solve` keys — so warm
        re-asks of a shard are answered without recomputation,
        bit-identically.
        """
        opts = self._merge(options)
        query_set = frozenset(query)
        cache_key = ("sweep", query_set, opts)
        cached = self._results.get(cache_key)
        if cached is not None:
            self._queries_served += 1
            return cached
        outcome = self._solve_ws(query_set, opts)
        self._results.put(cache_key, outcome)
        self._queries_served += 1
        return outcome

    def solve_many(
        self,
        queries: Iterable[Iterable[Node]],
        options: SolveOptions | None = None,
    ) -> list[ConnectorResult]:
        """Solve a batch of queries; returns results in input order.

        The batch flows through :meth:`solve`, so the engine's root BFS
        cache deduplicates shared roots across queries and repeated
        queries are free.  To spread a batch over processes, serve it
        through :class:`~repro.core.sharded.ShardedConnectorService`.
        """
        opts = self._merge(options)
        return [self.solve(frozenset(query), opts) for query in queries]

    # ------------------------------------------------------------------
    # Replica plumbing (array shipping)
    # ------------------------------------------------------------------
    def worker_payload(
        self,
        options: SolveOptions | None = None,
        *,
        cache_limits: dict | None = None,
    ) -> dict:
        """The seed of a worker-side replica of this service.

        That is the two CSR int arrays plus the label list — orders of
        magnitude smaller than a dict-of-sets ``Graph``.
        ``cache_limits`` forwards ``max_cached_*`` constructor bounds to
        the replica, so a sharded deployment can pin every shard's memory
        footprint.

        Feed the payload to :func:`service_from_payload` in the worker.
        """
        csr = self._versioned.csr
        return {
            "options": self._merge(options),
            "limits": dict(cache_limits) if cache_limits else {},
            # The graph version the payload captures: a replica built from
            # it starts at this epoch, so a respawn after deltas reports
            # the right version in the mutate/handshake protocol.
            "epoch": self.epoch,
            "indptr": csr.indptr,
            "indices": csr.indices,
            "node_of": csr.node_of,
        }

    def _to_result(
        self, query_set: frozenset, solved: SweepOutcome, extra: dict | None = None
    ) -> ConnectorResult:
        metadata = {
            "root": solved.root,
            "lambda": solved.lam,
            "candidates": solved.candidates,
            "runtime_seconds": solved.runtime_seconds,
        }
        if extra:
            metadata.update(extra)
        return ConnectorResult(
            host=self._induced_host(solved.nodes),
            nodes=solved.nodes,
            query=query_set,
            method="ws-q",
            metadata=metadata,
        )

    def _induced_host(self, nodes: frozenset) -> Graph:
        """The dict host of a ws-q result: ``G[S]``, built from the arrays.

        ``ConnectorResult`` uses its host only through
        ``host.subgraph(result.nodes)`` (Wiener index and density of the
        connector), and the induced subgraph of an already-induced host is
        itself — so materializing just ``G[S]`` from the CSR arrays gives
        bit-identical derived metrics without ever building the full dict
        graph.  Connectors are small (tens of vertices), so this stays
        cheap even on a 10^6-node instance.

        Built row by row, in index order: the graph
        ``csr.induced(...).to_graph()`` would give, at under half its cost
        for tens of vertices.  A router builds one per routed reply.
        """
        csr = self._versioned.csr
        node_of, indptr, indices = csr.node_of, csr.indptr, csr.indices
        members = sorted(csr.index_of[v] for v in nodes)
        inside = set(members)
        host = Graph(nodes=[node_of[i] for i in members])
        for i in members:
            for j in indices[indptr[i]:indptr[i + 1]].tolist():
                if i < j and j in inside:
                    host.add_edge(node_of[i], node_of[j])
        return host

    # ------------------------------------------------------------------
    # Mutation: versioned epochs + scoped invalidation
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The graph version this service serves (0 until the first delta)."""
        return self._versioned.epoch

    def deltas_since(self, epoch: int):
        """Catch-up deltas from ``epoch`` to now (``None`` = unrecoverable).

        The negotiation primitive of the reconnect handshake: a replica
        that was down across some epochs reports its last known epoch and
        replays this suffix instead of resyncing a full graph payload.
        """
        return self._versioned.deltas_since(epoch)

    def align_epoch(self, epoch: int) -> None:
        """Adopt a peer's epoch numbering for this (digest-verified) graph.

        Shard hosts call this when a router's ``hello`` digest matches
        but its epoch count does not (the daemon was restarted with the
        already-mutated dataset and began counting from 0 again).  Pure
        renumbering — graph and caches untouched.
        """
        self._versioned.align(epoch)

    def apply_delta(self, delta: GraphDelta) -> int:
        """Mutate the graph to the next epoch; returns the new epoch number.

        All-or-nothing: an inapplicable delta (including any reweight op:
        the host graph is unweighted) raises
        :class:`~repro.errors.DeltaError` with the arrays, the caches, and
        the epoch untouched.

        On success the caches are **scope-invalidated**, not dropped: a
        reachability-invariance pass over the delta decides, per cached
        entry, whether the touched edges can reach the entry's answer.

        * **root-BFS entries** survive when every delta edge provably
          preserves that root's distances and canonical parents — see
          :meth:`~repro.core.fastpath.CSRWienerSteinerEngine.apply_delta`
          for the exact rules;
        * **score entries** survive unless a delta edge has *both*
          endpoints inside the scored candidate set (exact and sampled
          scores are pure functions of the induced subgraph ``G[S]``,
          which only such an edge can change);
        * **candidate and result entries** are always evicted: every edge
          of the host graph participates in the Lemma-4 reweighted
          instance ``G_{r,λ}``, so any edge change can reach them.

        ``entries_retained`` / ``entries_invalidated`` in :meth:`stats`
        accumulate the outcome, and the epoch bump invalidates the
        handshake digest — remote peers must renegotiate before their
        next sweep is accepted.
        """
        if not isinstance(delta, GraphDelta):
            raise DeltaError(
                f"apply_delta takes a GraphDelta, got {type(delta).__name__}"
            )
        # The version index validates the whole delta before it builds the
        # new arrays, so a refused delta never reaches the retention pass
        # below, which fixes cached entries up in place.
        epoch = self._versioned.apply(delta)
        self._graph = None
        touched = delta.touched_edges()

        retained = invalidated = 0
        if self._engine is not None:
            retained, invalidated = self._engine.apply_delta(
                delta, self._versioned.csr
            )
        for key in self._scores.keys():
            nodes = key[1]
            if any(u in nodes and v in nodes for u, v in touched):
                self._scores.pop(key)
                invalidated += 1
            else:
                retained += 1
        invalidated += self._candidates.clear()
        invalidated += self._results.clear()
        self._entries_retained += retained
        self._entries_invalidated += invalidated
        return epoch

    # ------------------------------------------------------------------
    # Observability / extras
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A snapshot of the cache layers (serving observability)."""
        cached_roots = 0 if self._engine is None else self._engine.cached_roots
        return ServiceStats(
            queries_served=self._queries_served,
            result_hits=self._results.hits,
            result_misses=self._results.misses,
            candidate_hits=self._candidates.hits,
            candidate_misses=self._candidates.misses,
            score_hits=self._scores.hits,
            score_misses=self._scores.misses,
            cached_roots=cached_roots,
            result_cache_size=len(self._results),
            candidate_cache_size=len(self._candidates),
            score_cache_size=len(self._scores),
            uptime_seconds=time.monotonic() - self._created,
            epoch=self._versioned.epoch,
            entries_invalidated=self._entries_invalidated,
            entries_retained=self._entries_retained,
            pairs_scored=self._pairs_scored,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release nothing — an in-process service holds no processes.

        Exists so every serving layer shares one lifecycle surface:
        callers (the CLI, benchmarks, the gateway server) can write
        ``with service:`` / ``service.close()`` without caring whether the
        service is this in-process one or the sharded one whose
        :meth:`~repro.core.sharded.ShardedConnectorService.close` reaps
        real shard processes.
        """

    def __enter__(self) -> "ConnectorService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"{type(self).__name__}(|V|={self.num_nodes}, "
            f"served={self._queries_served})"
        )


def _root_list(options: SolveOptions, query_set: frozenset) -> list:
    """The canonical root-candidate list of one sweep: ``options.roots``
    deduplicated in order, else the query set itself (Lemma 5) in repr
    order."""
    roots = (
        list(dict.fromkeys(options.roots))
        if options.roots is not None
        else sorted(query_set, key=repr)
    )
    if not roots:
        raise InvalidQueryError("root candidate list must be non-empty")
    return roots


def service_from_payload(payload: dict) -> ConnectorService:
    """Rebuild a worker-side :class:`ConnectorService` from a payload.

    The inverse of :meth:`ConnectorService.worker_payload`: a service
    over the router's int arrays, the same kind of service the router
    holds.  Used by the persistent shard processes of
    :mod:`repro.core.sharded`.
    """
    csr = CSRGraph(payload["indptr"], payload["indices"], payload["node_of"])
    return ConnectorService(
        csr=csr,
        options=payload["options"],
        epoch=payload.get("epoch", 0),
        **(payload.get("limits") or {}),
    )
