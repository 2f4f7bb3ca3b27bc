"""The serving tower's benchmark scenarios: one harness, one gate shape.

Each scenario measures one claim of the serving tower against the
baseline it replaced, on perfbench's seeded inputs:

* ``serving`` — ``ConnectorService.solve_many`` vs one-shot
  ``wiener_steiner`` calls on a Zipf-skewed request batch;
* ``sharded`` — a 4-shard ring vs one service, both under the same
  per-process cache budget, on a windowed Zipf stream;
* ``gateway`` — ``AsyncGateway`` vs naive per-request solving on a
  thread pool, on Poisson arrivals;
* ``failover`` — a 3-shard replication-2 ring with one replica killed
  mid-stream, against the same ring left alone;
* ``mutation`` — scoped cache invalidation vs a cold rebuild after a
  small graph delta;
* ``lambda-sharing`` — the λ-shared sweep vs the per-pair sweep that
  builds one candidate per ``(root, λ)``;
* ``scale`` — a stream-built 10^6-node BA tower behind a TCP gateway,
  replaying a synthesized trace inside an SLO envelope.

Every scenario checks that its answers are bit-identical to its
reference — perfbench's answer key: vertex set, root, λ and candidate
count — and returns its gates as :class:`~repro.loadgen.slo.SLOCheck`
values: ``max_*`` checks are ceilings, ``min_*`` checks floors, and an
identity gate counts mismatches against a bound of 0.  Each scenario has
a fixed full size and a fixed smoke size.  A full run writes
``BENCH_<scenario>.json`` at the repo root, only when every gate passes;
``--smoke`` runs the small sizes CI uses and writes nothing.  The exit
status is 1 when any gate fails.

Usage::

    python benchmarks/bench_scenarios.py all --smoke      # every CI gate
    python benchmarks/bench_scenarios.py serving sharded  # full runs, write records
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import pathlib
import platform
import random
import statistics
import sys
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

# Run as a script, sys.path[0] is benchmarks/: the harness also needs the
# package under src/ and perfbench/ at the repo root.
ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.driver import answer_key
from perfbench.inputs import ba_csr, er_graph, query_pool
from perfbench.metrics import percentile

from repro.core.gateway import AsyncGateway
from repro.core.options import SolveOptions
from repro.core.retry import BackoffPolicy
from repro.core.service import ConnectorService, _lambda_grid, _root_list
from repro.core.sharded import ShardedConnectorService
from repro.core.versioned import GraphDelta
from repro.core.wiener_steiner import wiener_steiner
from repro.loadgen.replay import replay_trace
from repro.loadgen.slo import SLO, SLOCheck, SLOReport
from repro.loadgen.trace import synthesize
from repro.serving.protocol import canonical_sort
from repro.serving.server import GatewayServer

SEED = 20150531
ZIPF = 1.1


def log(*parts) -> None:
    print(*parts, flush=True)


# -- identity and gates ---------------------------------------------------

def result_key(result) -> tuple:
    """perfbench's answer key of a ``ConnectorResult``."""
    return answer_key(canonical_sort(result.nodes), result.metadata)


def keys(results) -> list[tuple]:
    return [result_key(result) for result in results]


def identity(name: str, expected: list, observed: list) -> SLOCheck:
    """How many answer keys differ from the reference's (a missing answer
    counts too); the gate allows none."""
    count = sum(a != b for a, b in zip(expected, observed))
    count += abs(len(expected) - len(observed))
    return SLOCheck(name, 0, count, count == 0)


def floor(name: str, bound: float, observed: float, strict: bool = False) -> SLOCheck:
    ok = observed > bound if strict else observed >= bound
    return SLOCheck(name, bound, observed, ok)


def ceiling(name: str, bound: float, observed: float) -> SLOCheck:
    return SLOCheck(name, bound, observed, observed <= bound)


def exactly(name: str, expected: float, low: float, high: float | None = None) -> list:
    """``expected`` as a floor on ``low`` and a ceiling on ``high``."""
    return [
        floor(f"min_{name}", expected, low),
        ceiling(f"max_{name}", expected, low if high is None else high),
    ]


def speedup_gate(name: str, bound: float, speedup: float) -> SLOCheck:
    """Strictly faster than the baseline, and by at least ``bound``."""
    return SLOCheck(name, bound, speedup, speedup > 1.0 and speedup >= bound)


# -- shared inputs --------------------------------------------------------

def timed(function, *args, **kwargs):
    started = time.perf_counter()
    value = function(*args, **kwargs)
    return value, time.perf_counter() - started


def ms_per_query(seconds: float, count: int) -> float:
    return round(seconds / count * 1e3, 2)


def er_instance(size: dict):
    graph = er_graph(size["nodes"], size["edges"], SEED)
    fields = {
        "model": "erdos_renyi + connectify",
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "query_size": size["query_size"],
        "seed": SEED,
    }
    return graph, fields


def make_workload(graph, num_requests: int, unique_queries: int, query_size: int, seed: int):
    """A Zipf-skewed request stream over a pool of distinct query sets.

    Every distinct query appears at least once (so the amount of real
    solving work is pinned), the remaining requests follow the rank
    popularity ``1/rank^s``, and the stream order is shuffled.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    pool = [rng.sample(nodes, query_size) for _ in range(unique_queries)]
    weights = [1.0 / (rank + 1) ** ZIPF for rank in range(len(pool))]
    requests = list(pool)
    while len(requests) < num_requests:
        requests.append(pool[rng.choices(range(len(pool)), weights)[0]])
    rng.shuffle(requests)
    return requests[:num_requests]


def zipf_stream(graph, size: dict) -> tuple[list, dict]:
    requests = make_workload(
        graph, size["requests"], size["unique"], size["query_size"], SEED
    )
    fields = {
        "requests": len(requests),
        "distinct_queries": len({frozenset(q) for q in requests}),
        "distribution": f"zipf({ZIPF}) over the query pool, each distinct query at least once",
    }
    return requests, fields


def _connected_after_removal(graph, u, v) -> bool:
    """Whether dropping the edge ``{u, v}`` keeps the graph connected."""
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in graph.neighbors(x):
            if (x == u and y == v) or (x == v and y == u):
                continue
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return v in seen


def make_delta(graph, rng: random.Random, ops: int) -> GraphDelta:
    """A random applicable delta of ``ops`` edges, connectivity-preserving.

    Half deletes (bridgeless existing edges only, so every query stays
    solvable), half triadic-closure inserts (an absent edge between two
    neighbors of a shared node): new links in social and PPI graphs
    overwhelmingly close triangles rather than join distant pairs.
    """
    nodes = sorted(graph.nodes())
    edges = sorted(graph.edges(), key=repr)
    inserts: list[tuple] = []
    deletes: list[tuple] = []
    taken: set[frozenset] = set()
    scratch = graph.copy()
    attempts = 0
    while len(inserts) + len(deletes) < ops and attempts < 200 * ops:
        attempts += 1
        if rng.random() < 0.5:
            u, v = edges[rng.randrange(len(edges))]
            if frozenset((u, v)) in taken:
                continue
            if not _connected_after_removal(scratch, u, v):
                continue
            deletes.append((u, v))
            scratch.remove_edge(u, v)
        else:
            pivot = nodes[rng.randrange(len(nodes))]
            wings = sorted(scratch.neighbors(pivot))
            if len(wings) < 2:
                continue
            u, v = rng.sample(wings, 2)
            if scratch.has_edge(u, v) or frozenset((u, v)) in taken:
                continue
            inserts.append((u, v))
            scratch.add_edge(u, v)
        taken.add(frozenset((u, v)))
    return GraphDelta(inserts=tuple(inserts), deletes=tuple(deletes))


def cache_limits(budget_queries: int, query_size: int, num_nodes: int) -> dict:
    """Per-process LRU bounds holding ``budget_queries`` full working sets.

    One query's sweep touches ``query_size`` roots and up to
    ``query_size × |λ-grid|`` candidates and scores; the result layer
    holds the finished answer.  Scaling all four layers together models a
    fixed memory budget per process, the quantity sharding multiplies.
    """
    grid = len(_lambda_grid(num_nodes, 1.0))
    return {
        "max_cached_results": budget_queries,
        "max_cached_roots": budget_queries * query_size,
        "max_cached_candidates": budget_queries * query_size * grid,
        "max_cached_scores": budget_queries * query_size * grid,
    }


def serve_windows(service, requests: list, window: int, after_window=None):
    """Drain the stream one ``solve_many`` window at a time, like a server
    draining its request queue; returns (results, seconds per window)."""
    results: list = []
    seconds: list[float] = []
    for begin in range(0, len(requests), window):
        served, elapsed = timed(service.solve_many, requests[begin:begin + window])
        results.extend(served)
        seconds.append(elapsed)
        if after_window is not None:
            after_window()
    return results, seconds


# -- serving --------------------------------------------------------------

def serving(size: dict):
    """Every distinct query still runs the full sweep; the service wins only
    by building the index once and deduplicating repeats in its caches."""
    graph, instance = er_instance(size)
    requests, workload = zipf_stream(graph, size)
    log(f"instance: {graph}, {len(requests)} requests")
    one_shot, one_shot_s = timed(lambda: [wiener_steiner(graph, q) for q in requests])
    log(f"one-shot loop : {ms_per_query(one_shot_s, len(requests)):8.1f} ms/query")
    service = ConnectorService(graph)
    served, serving_s = timed(service.solve_many, requests)
    log(f"solve_many    : {ms_per_query(serving_s, len(requests)):8.1f} ms/query")
    speedup = one_shot_s / serving_s
    stats = service.stats()
    results = {
        "one_shot_ms_per_query": ms_per_query(one_shot_s, len(requests)),
        "serving_ms_per_query": ms_per_query(serving_s, len(requests)),
        "speedup": round(speedup, 2),
        "service_stats": {
            name: getattr(stats, name)
            for name in (
                "queries_served", "result_hits", "result_misses",
                "candidate_hits", "candidate_misses", "score_hits",
                "score_misses", "cached_roots",
            )
        },
    }
    checks = [
        identity("max_mismatches", keys(one_shot), keys(served)),
        speedup_gate("min_speedup", size["min_speedup"], speedup),
    ]
    return {"instance": instance, "workload": workload, "results": results}, checks


# -- sharded --------------------------------------------------------------

def sharded(size: dict):
    """Both deployments get the same per-process cache budget.  One service
    must fit the whole hot set into it, so re-asks keep missing; the ring
    splits the key space, so each shard holds only its share and re-asks
    stay warm.  The win is cache capacity, and it holds on one core."""
    graph, instance = er_instance(size)
    requests, workload = zipf_stream(graph, size)
    workload.update(window=size["window"], cache_budget_queries_per_process=size["cache_queries"])
    limits = cache_limits(size["cache_queries"], size["query_size"], graph.num_nodes)
    log(f"instance: {graph}, {len(requests)} requests, {size['shards']} shards")
    with ConnectorService(graph, **limits) as single:
        baseline, single_windows = serve_windows(single, requests, size["window"])
        single_sweeps = single.stats().result_misses
    single_s = sum(single_windows)
    log(f"single service: {ms_per_query(single_s, len(requests)):8.1f} ms/query")
    with ShardedConnectorService(graph, n_shards=size["shards"], **limits) as ring:
        served, ring_windows = serve_windows(ring, requests, size["window"])
        stats = ring.stats()
    ring_s = sum(ring_windows)
    log(f"sharded       : {ms_per_query(ring_s, len(requests)):8.1f} ms/query")
    speedup = single_s / ring_s
    results = {
        "shards": size["shards"],
        "single_service_ms_per_query": ms_per_query(single_s, len(requests)),
        "sharded_ms_per_query": ms_per_query(ring_s, len(requests)),
        "single_service_cold_sweeps": single_sweeps,
        "sharded_cold_sweeps": sum(shard.result_misses for shard in stats.shards),
        "speedup": round(speedup, 2),
        "router_stats": {
            "requests_routed": stats.requests_routed,
            "inflight_deduped": stats.inflight_deduped,
            "per_shard_queries_served": [s.queries_served for s in stats.shards],
        },
    }
    checks = [
        identity("max_mismatches", keys(baseline), keys(served)),
        speedup_gate("min_speedup", size["min_speedup"], speedup),
    ]
    return {"instance": instance, "workload": workload, "results": results}, checks


# -- gateway --------------------------------------------------------------

def make_arrivals(num_requests: int, mean_gap_ms: float, seed: int) -> list[float]:
    """Poisson-process arrival offsets (seconds from stream start)."""
    rng = random.Random(seed)
    clock = 0.0
    offsets = []
    for _ in range(num_requests):
        clock += rng.expovariate(1.0 / (mean_gap_ms / 1000.0))
        offsets.append(clock)
    return offsets


async def drain_stream(arrivals, requests, submit):
    """Replay the arrival schedule; returns (results, latencies, makespan).

    ``submit(query)`` is an awaitable per-request solve.  Each request
    sleeps until its arrival offset, then measures arrival to result,
    queueing delay included.
    """
    started = time.perf_counter()

    async def one(offset, query):
        await asyncio.sleep(max(0.0, offset - (time.perf_counter() - started)))
        arrived = time.perf_counter()
        result = await submit(query)
        return result, time.perf_counter() - arrived

    pairs = await asyncio.gather(
        *(one(offset, query) for offset, query in zip(arrivals, requests))
    )
    makespan = time.perf_counter() - started
    return [p[0] for p in pairs], [p[1] for p in pairs], makespan


def latency_fields(latencies: list[float]) -> dict:
    return {
        "p50": round(percentile(latencies, 0.50) * 1e3, 2),
        "p95": round(percentile(latencies, 0.95) * 1e3, 2),
        "mean": round(statistics.fmean(latencies) * 1e3, 2),
    }


def gateway(size: dict):
    """Requests arrive one at a time, concurrently, faster than one-shot
    solving can keep up with, so throughput measures serving capacity.
    The naive deployment runs each arrival's own ``wiener_steiner`` on a
    thread pool; the gateway micro-batches arrivals, coalesces identical
    ones and keeps one warm service."""
    graph, instance = er_instance(size)
    requests, workload = zipf_stream(graph, size)
    arrivals = make_arrivals(len(requests), size["mean_gap_ms"], SEED)
    workload.update(arrivals="poisson", mean_gap_ms=size["mean_gap_ms"])
    log(f"instance: {graph}, {len(requests)} Poisson arrivals")

    async def naive():
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=size["naive_workers"]) as pool:
            return await drain_stream(
                arrivals, requests,
                lambda query: loop.run_in_executor(pool, wiener_steiner, graph, query),
            )

    async def batched():
        with ConnectorService(graph) as service:
            async with AsyncGateway(
                service, max_batch=size["max_batch"], max_wait_ms=size["max_wait_ms"]
            ) as front:
                outcome = await drain_stream(arrivals, requests, front.asolve)
                return outcome, front.stats(), service.stats()

    naive_results, naive_latencies, naive_span = asyncio.run(naive())
    naive_rps = len(requests) / naive_span
    log(f"naive per-request: {naive_rps:6.2f} req/s")
    (served, latencies, span), stats, service_stats = asyncio.run(batched())
    gateway_rps = len(requests) / span
    log(f"gateway          : {gateway_rps:6.2f} req/s")
    speedup = gateway_rps / naive_rps
    results = {
        "naive_workers": size["naive_workers"],
        "gateway": {
            "max_batch": size["max_batch"],
            "max_wait_ms": size["max_wait_ms"],
            "windows_dispatched": stats.windows_dispatched,
            "mean_window_size": round(stats.mean_window_size, 2),
            "coalesced": stats.coalesced,
            "shed": stats.shed,
        },
        "service_cache_hit_rates": {
            layer: round(service_stats.hit_rate(layer), 3)
            for layer in ("result", "candidate", "score")
        },
        "naive_throughput_rps": round(naive_rps, 3),
        "gateway_throughput_rps": round(gateway_rps, 3),
        "naive_latency_ms": latency_fields(naive_latencies),
        "gateway_latency_ms": latency_fields(latencies),
        "throughput_speedup": round(speedup, 2),
    }
    checks = [
        identity("max_mismatches", keys(naive_results), keys(served)),
        speedup_gate("min_throughput_speedup", size["min_speedup"], speedup),
    ]
    return {"instance": instance, "workload": workload, "results": results}, checks


# -- failover -------------------------------------------------------------

def failover(size: dict):
    """The gate is behaviour, not speed: with one of three replicas killed
    while a window is in flight, every request is still answered,
    bit-identically to one service, and the ring heals."""
    graph, instance = er_instance(size)
    requests, workload = zipf_stream(graph, size)
    workload["window"] = size["window"]
    limits = cache_limits(size["cache_queries"], size["query_size"], graph.num_nodes)
    # Revival pacing fit for a benchmark run; production keeps the default.
    backoff = BackoffPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
    ring = dict(
        n_shards=size["shards"], replication=size["replication"],
        backoff=backoff, heartbeat_interval=None, **limits,
    )
    log(f"instance: {graph}, {len(requests)} requests, {size['shards']} shards "
        f"x replication {size['replication']}")
    with ConnectorService(graph, **limits) as single:
        baseline, _ = serve_windows(single, requests, size["window"])
    with ShardedConnectorService(graph, **ring) as steady_ring:
        steady, steady_windows = serve_windows(steady_ring, requests, size["window"])
    log(f"steady state : {ms_per_query(sum(steady_windows), len(requests)):8.1f} ms/query")

    # The chaos run: kill one replica while the second window is in flight.
    with ShardedConnectorService(graph, **ring) as chaos_ring:
        victim = chaos_ring._shards[0]
        first_window_done = threading.Event()

        def killer():
            first_window_done.wait(30.0)
            time.sleep(0.02)  # land inside the next window, not between
            victim.process.terminate()

        threading.Thread(target=killer, daemon=True).start()
        chaos, chaos_windows = serve_windows(
            chaos_ring, requests, size["window"], first_window_done.set
        )
        # Let the backoff elapse and the slot respawn before reading the
        # recovery counters: "healed" is part of the contract under test.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            stats = chaos_ring.stats()
            if not stats.dead_shards:
                break
            time.sleep(0.05)
    log(f"with failover: {ms_per_query(sum(chaos_windows), len(requests)):8.1f} ms/query")
    results = {
        "ring": {
            "shards": size["shards"],
            "replication": size["replication"],
            "backoff": {"base_delay": backoff.base_delay, "max_delay": backoff.max_delay},
        },
        "availability": len(chaos) / len(requests),
        "steady_ms_per_query": ms_per_query(sum(steady_windows), len(requests)),
        "failover_ms_per_query": ms_per_query(sum(chaos_windows), len(requests)),
        "steady_window_seconds": [round(w, 4) for w in steady_windows],
        "failover_window_seconds": [round(w, 4) for w in chaos_windows],
        "failover_worst_window_ms": round(max(chaos_windows) * 1e3, 2),
        "recovery": {
            "shards_failed": stats.shards_failed,
            "failovers": stats.failovers,
            "reconnects": stats.reconnects,
            "dead_shards": len(stats.dead_shards),
        },
    }
    checks = [
        identity("max_mismatches_steady", keys(baseline), keys(steady)),
        identity("max_mismatches_failover", keys(baseline), keys(chaos)),
        floor("min_availability", 1.0, results["availability"]),
        *exactly("shards_failed", 1, stats.shards_failed),
        ceiling("max_dead_shards", 0, len(stats.dead_shards)),
        floor("min_reconnects", 1, stats.reconnects),
    ]
    return {"instance": instance, "workload": workload, "results": results}, checks


# -- mutation -------------------------------------------------------------

def serve_each(service, requests) -> tuple[list, float]:
    return timed(lambda: [service.solve(request) for request in requests])


def mutation(size: dict):
    """Apply a small delta to a warm service and keep serving, against
    tearing it down and rebuilding it cold on the mutated graph.  Both
    paths are timed from the mutation to the next window fully served.
    Candidates and results are version-bound by design (every edge is in
    the Lemma-4 reweighted instance), so retention is measured over the
    warm layers: scores and root BFS entries."""
    rng = random.Random(SEED)
    graph, instance = er_instance(size)
    requests, workload = zipf_stream(graph, size)
    delta = make_delta(graph, rng, size["delta_ops"])
    mutated = graph.copy()
    delta.apply_to_graph(mutated)
    log(f"instance: {graph}, {len(requests)} requests, delta {delta!r}")

    scoped = ConnectorService(graph)
    _, warm_s = serve_each(scoped, requests)
    before = scoped.stats()
    epoch, apply_s = timed(scoped.apply_delta, delta)
    after_delta = scoped.stats()
    scoped_results, scoped_window_s = serve_each(scoped, requests)
    scoped_s = apply_s + scoped_window_s
    after_window = scoped.stats()

    rebuild, construct_s = timed(ConnectorService, mutated)
    rebuild_results, rebuild_window_s = serve_each(rebuild, requests)
    rebuild_s = construct_s + rebuild_window_s
    log(f"scoped mutate: {ms_per_query(scoped_s, len(requests)):8.1f} ms/query")
    log(f"full rebuild : {ms_per_query(rebuild_s, len(requests)):8.1f} ms/query")

    def retained(kept: int, had: int) -> float:
        return kept / had if had else 0.0

    warm_retained = retained(
        after_delta.score_cache_size + after_delta.cached_roots,
        before.score_cache_size + before.cached_roots,
    )
    rehit = after_window.score_hits - after_delta.score_hits
    spot = requests[:2]
    results = {
        "delta": {
            "inserts": len(delta.inserts),
            "deletes": len(delta.deletes),
            "fraction_of_edges": round(delta.num_ops / graph.num_edges, 5),
            "digest": delta.digest(),
        },
        "epoch_after": epoch,
        "warm_ms_per_query": ms_per_query(warm_s, len(requests)),
        "scoped_ms_per_query": ms_per_query(scoped_s, len(requests)),
        "rebuild_ms_per_query": ms_per_query(rebuild_s, len(requests)),
        "apply_delta_ms": round(apply_s * 1e3, 2),
        "rebuild_over_scoped": round(rebuild_s / scoped_s, 3),
        "retention": {
            "entries_retained": after_delta.entries_retained,
            "entries_invalidated": after_delta.entries_invalidated,
            "warm_layer_retained_fraction": round(warm_retained, 4),
            "score_retained_fraction": round(
                retained(after_delta.score_cache_size, before.score_cache_size), 4),
            "root_retained_fraction": round(
                retained(after_delta.cached_roots, before.cached_roots), 4),
            "retained_score_entries_rehit": rehit,
        },
    }
    checks = [
        *exactly("epoch", 1, min(epoch, after_delta.epoch), max(epoch, after_delta.epoch)),
        identity("max_mismatches_rebuild", keys(rebuild_results), keys(scoped_results)),
        identity("max_mismatches_one_shot", keys(wiener_steiner(mutated, q) for q in spot),
                 keys(map(scoped.solve, spot))),
        floor("min_warm_retained", 0.5, warm_retained, strict=True),
        floor("min_scores_rehit", 1, rehit),
        floor("min_evicted", 1, after_delta.entries_invalidated),
    ]
    if size["min_speedup"] is not None:
        checks.append(speedup_gate("min_speedup", size["min_speedup"], rebuild_s / scoped_s))
    return {"instance": instance, "workload": workload, "results": results}, checks


# -- lambda-sharing -------------------------------------------------------

def unshared_sweep(service, options: SolveOptions, query, memo: dict) -> tuple:
    """The per-pair sweep λ work sharing replaced: one candidate per
    ``(root, λ)``, each a one-λ engine batch paying its own per-root
    gather.  Same grid, root order, dedup, strict-improvement selection
    and result memo as the service; returns the answer key."""
    query_set = frozenset(query)
    memo_key = (query_set, options)
    if memo_key in memo:
        return memo[memo_key]
    engine = service._sweep_engine()
    roots = _root_list(options, query_set)
    for root in roots:
        engine.unreachable_queries(root, query_set)
    grid = _lambda_grid(service.num_nodes, options.beta)
    best_key = math.inf
    best = None
    scored: set = set()
    for lam in grid:
        for root in roots:
            candidate = engine.candidates_for_root(root, [lam], query_set, options.adjust)[0]
            if candidate in scored:
                continue
            key = service._score_candidate(engine, candidate, root, options)
            scored.add(candidate)
            if key < best_key:
                best_key = key
                best = (candidate, root, lam)
    nodes, root, lam = best
    memo[memo_key] = answer_key(
        canonical_sort(nodes), {"root": root, "lambda": lam, "candidates": len(scored)}
    )
    return memo[memo_key]


def lambda_sharing(size: dict):
    """The workload mixes the Zipf stream with root-ablation requests
    (explicit root lists extending the Lemma-5 default with random
    vertices, as in the robustness ablations), which widen the sweep
    beyond the query set.  Each path is timed cold, best of ``repeats``."""
    rng = random.Random(SEED)
    graph, instance = er_instance(size)
    stream, workload = zipf_stream(graph, size)
    requests = [(query, None) for query in stream]
    nodes = sorted(graph.nodes())
    distinct = list({frozenset(q): q for q in stream}.values())
    for query in distinct[: size["ablation"]]:
        roots = tuple(dict.fromkeys(list(query) + rng.sample(nodes, size["extra_roots"])))
        requests.append((query, roots))
    workload.update(ablation_requests=size["ablation"], extra_roots_per_ablation=size["extra_roots"])
    options = SolveOptions()
    log(f"instance: {graph}, {len(requests)} requests")

    def shaped(roots):
        return options if roots is None else options.replace(roots=roots)

    def serve(service):
        return [result_key(service.solve(query, shaped(roots))) for query, roots in requests]

    def serve_unshared():
        service, memo = ConnectorService(graph, options), {}
        return [unshared_sweep(service, shaped(roots), query, memo) for query, roots in requests]

    unshared_s = math.inf
    for _ in range(size["repeats"]):
        unshared, seconds = timed(serve_unshared)
        unshared_s = min(unshared_s, seconds)
    service = ConnectorService(graph, options)
    shared, shared_s = timed(serve, service)
    for _ in range(size["repeats"] - 1):
        shared_s = min(shared_s, timed(serve, ConnectorService(graph, options))[1])
    pairs_scored = service.stats().pairs_scored
    log(f"unshared sweep: {ms_per_query(unshared_s, len(requests)):8.1f} ms/query")
    log(f"λ-shared      : {ms_per_query(shared_s, len(requests)):8.1f} ms/query")
    warm = serve(service)

    # Across a mutation epoch: the mutated service vs a fresh one on the
    # mutated graph, and one spot check vs one-shot wiener_steiner.
    delta = make_delta(graph, rng, size["delta_ops"])
    mutated = graph.copy()
    delta.apply_to_graph(mutated)
    epoch = service.apply_delta(delta)
    fresh = ConnectorService(mutated, options)
    post = requests[:3] + requests[-2:]
    spot = requests[0][0]

    # The exact (λ, root) pair count: a repeated (query, options) is a
    # result-cache hit and sweeps nothing.
    grid = len(_lambda_grid(graph.num_nodes, options.beta))
    swept = {(frozenset(query), shaped(roots)) for query, roots in requests}
    expected_pairs = sum(grid * len(_root_list(opts, query)) for query, opts in swept)

    results = {
        "repeats": size["repeats"],
        "unshared_ms_per_query": ms_per_query(unshared_s, len(requests)),
        "shared_ms_per_query": ms_per_query(shared_s, len(requests)),
        "speedup_shared_over_unshared": round(unshared_s / shared_s, 3),
        "pairs_scored": pairs_scored,
        "epoch_after": epoch,
    }
    checks = [
        identity("max_mismatches_paths", unshared, shared),
        identity("max_mismatches_warm", shared, warm),
        identity("max_mismatches_epoch", keys(fresh.solve(q, shaped(r)) for q, r in post),
                 keys(service.solve(q, shaped(r)) for q, r in post)),
        identity("max_mismatches_one_shot", keys([wiener_steiner(mutated, spot)]),
                 keys([service.solve(spot)])),
        *exactly("epoch", 1, epoch),
        *exactly("pairs_scored", expected_pairs, pairs_scored),
    ]
    if size["min_speedup"] is not None:
        checks.append(speedup_gate("min_speedup", size["min_speedup"], unshared_s / shared_s))
    return {"instance": instance, "workload": workload, "results": results}, checks


# -- scale ----------------------------------------------------------------

async def drive_tower(service, trace, size: dict):
    """Serve the tower over TCP, replay the trace, return (report, stats)."""
    front = AsyncGateway(service, max_batch=size["max_batch"], max_wait_ms=size["max_wait_ms"])
    try:
        async with GatewayServer(front, port=0) as server:
            report = await replay_trace(trace, server.host, server.port, keep_results=True)
        stats = front.stats()
    finally:
        await front.aclose()
    return report, stats


def scale(size: dict):
    """The production stack in process at the scale target: a BA graph
    streamed straight into CSR arrays (no dict graph), a graph-less ring
    behind a gateway and a TCP socket, and a synthesized trace (Zipf
    pool, Poisson arrivals with a burst envelope) replayed open-loop.
    Replayed answers are spot-checked against cold one-shot solves on a
    fresh service over the same arrays."""
    csr, build_s = timed(ba_csr, size["nodes"], size["attachment"], SEED)
    log(f"instance: BA(n={size['nodes']:,}, m={size['attachment']}) in {build_s:.1f}s")
    pool = query_pool(size["nodes"], size["pool_size"], size["query_size"], random.Random(SEED))
    trace = synthesize(
        pool, size["requests"], mean_gap_ms=size["mean_gap_ms"], zipf=ZIPF,
        burst_amplitude=size["burst_amplitude"], burst_period_s=size["burst_period_s"],
        seed=SEED, meta={"instance": f"ba-{size['nodes']}-{size['attachment']}"},
    )
    slo = SLO(max_p99_ms=size["max_p99_s"] * 1000.0, max_shed_rate=0.05, max_error_rate=0.0)
    service, spinup_s = timed(ShardedConnectorService, None, csr=csr, n_shards=size["shards"])
    with service:
        log(f"tower: {size['shards']} shards; replaying {len(trace)} requests")
        report, stats = asyncio.run(drive_tower(service, trace, size))
    summary = report.summary()
    log(f"replay: p50/p99 {summary['p50_ms']:.0f}/{summary['p99_ms']:.0f} ms, "
        f"{summary['errors']} errors, {summary['shed']} shed")

    # The first occurrence of the first few distinct queries, each solved
    # again on a fresh service so nothing warm is shared with the tower.
    firsts: dict = {}
    for index, record in enumerate(trace.records):
        firsts.setdefault(frozenset(record.query), index)
    picked = list(firsts.values())[: size["spot_checks"]]
    expected, replayed = [], []
    for index in picked:
        reference = ConnectorService(None, csr=csr).solve(frozenset(trace.records[index].query))
        expected.append((result_key(reference), reference.wiener_index))
        payload = report.results[index]
        replayed.append(payload and (
            answer_key(payload["nodes"], payload["metadata"]), payload["wiener_index"]
        ))
    instance = {
        "model": "barabasi_albert (edge stream -> CSR, no dict graph)",
        "num_nodes": size["nodes"],
        "num_edges": int(csr.num_edges),
        "attachment": size["attachment"],
        "seed": SEED,
    }
    workload = {
        "requests": len(trace),
        "distinct_queries": len(pool),
        "query_size": size["query_size"],
        "mean_gap_ms": size["mean_gap_ms"],
        "zipf": ZIPF,
        "burst_amplitude": size["burst_amplitude"],
        "burst_period_s": size["burst_period_s"],
    }
    results = {
        "build_seconds": round(build_s, 2),
        "tower": {
            "shards": size["shards"],
            "spinup_seconds": round(spinup_s, 2),
            "max_batch": size["max_batch"],
            "max_wait_ms": size["max_wait_ms"],
            "windows_dispatched": stats.windows_dispatched,
            "mean_window_size": round(stats.mean_window_size, 2),
        },
        "replay": summary,
        "spot_checked": len(picked),
    }
    checks = [
        identity("max_mismatches", expected, replayed),
        *slo.evaluate(report).checks,
    ]
    return {"instance": instance, "workload": workload, "results": results}, checks


# -- the table and the runner ---------------------------------------------

class Scenario(NamedTuple):
    run: Callable[[dict], tuple[dict, list[SLOCheck]]]
    full: dict
    smoke: dict  # what the CI-sized run changes


# A ``min_speedup`` of 1.0 asks for strictly faster than the baseline;
# ``None`` gates behaviour only, not speed.
SCENARIOS = {
    "serving": Scenario(
        serving,
        dict(nodes=10_000, edges=50_000, query_size=10, requests=32, unique=8,
             min_speedup=3.0),
        dict(nodes=600, edges=1_800, query_size=6, requests=12, unique=4, min_speedup=1.0),
    ),
    "sharded": Scenario(
        sharded,
        dict(nodes=10_000, edges=50_000, query_size=10, requests=64, unique=16, window=8,
             shards=4, cache_queries=4, min_speedup=2.0),
        # The sweeps must still dwarf the shard spawn cost, so this smoke
        # instance is larger than the serving one.
        dict(nodes=2_500, edges=10_000, query_size=8, requests=32, unique=6, cache_queries=2,
             min_speedup=1.0),
    ),
    "gateway": Scenario(
        gateway,
        # The mean gap is well below one one-shot solve, so the naive
        # deployment is saturated and throughput measures capacity.
        dict(nodes=10_000, edges=50_000, query_size=10, requests=48, unique=8,
             mean_gap_ms=20.0, max_batch=16, max_wait_ms=5.0, naive_workers=4,
             min_speedup=2.0),
        dict(nodes=600, edges=1_800, query_size=6, requests=16, unique=4, mean_gap_ms=5.0,
             min_speedup=1.0),
    ),
    "failover": Scenario(
        failover,
        dict(nodes=5_000, edges=20_000, query_size=8, requests=48, unique=12, window=8,
             shards=3, replication=2, cache_queries=4),
        dict(nodes=2_000, edges=8_000, query_size=6, requests=24, unique=8),
    ),
    "mutation": Scenario(
        mutation,
        dict(nodes=10_000, edges=50_000, query_size=4, requests=32, unique=16, delta_ops=8,
             min_speedup=1.0),
        dict(nodes=1_500, edges=6_000, requests=16, unique=8, delta_ops=5, min_speedup=None),
    ),
    "lambda-sharing": Scenario(
        lambda_sharing,
        dict(nodes=10_000, edges=50_000, query_size=4, requests=16, unique=8, ablation=8,
             extra_roots=8, repeats=2, delta_ops=6, min_speedup=1.0),
        dict(nodes=1_500, edges=6_000, requests=8, unique=4, ablation=4, repeats=1,
             min_speedup=None),
    ),
    "scale": Scenario(
        scale,
        # A cold 10^6-node sweep takes minutes, and queueing behind it is
        # part of the client's latency.  Both p99 ceilings sit near 2x
        # (full) and 10x (smoke, for slower CI runners) the measured p99.
        dict(nodes=1_000_000, attachment=2, shards=2, requests=150, pool_size=3,
             query_size=5, mean_gap_ms=50.0, burst_amplitude=0.5, burst_period_s=5.0,
             max_batch=16, max_wait_ms=5.0, spot_checks=2, max_p99_s=300.0),
        dict(nodes=4_000, requests=40, pool_size=4, mean_gap_ms=5.0, burst_period_s=1.0,
             max_p99_s=3.0),
    ),
}


def run(name: str, smoke: bool) -> bool:
    """Run one scenario, print its gates; a full run that passes writes
    its record.  Returns whether every gate passed."""
    scenario = SCENARIOS[name]
    size = {**scenario.full, **scenario.smoke} if smoke else scenario.full
    log(f"== {name} ({'smoke' if smoke else 'full'})")
    fields, checks = scenario.run(size)
    report = SLOReport(tuple(checks))
    log(report.describe())
    if not report.ok:
        names = ", ".join(check.name for check in report.violations)
        print(f"FAIL: {name}: {names}", file=sys.stderr, flush=True)
        return False
    if not smoke:
        record = {
            "scenario": name,
            **fields,
            "gates": report.to_payload(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        path = ROOT / f"BENCH_{name.replace('-', '_')}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        log(f"wrote {path}")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "scenarios", nargs="+", metavar="SCENARIO", choices=[*SCENARIOS, "all"],
        help=f"one or more of {', '.join(SCENARIOS)}, or all",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="the small CI sizes: check every gate, write no record",
    )
    args = parser.parse_args(argv)
    names = list(SCENARIOS) if "all" in args.scenarios else list(dict.fromkeys(args.scenarios))
    passed = [run(name, args.smoke) for name in names]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
