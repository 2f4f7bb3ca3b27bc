"""Sharded serving benchmark: ``ShardedConnectorService`` vs one service.

Models the scale-out step after batched serving (``bench_serving.py``) —
and measures the thing sharding is actually *for* (ROADMAP: "partition
the result/candidate caches and the root BFS state across several service
processes").  The 10k-node / 50k-edge reference graph receives a
**64-request** Zipf-skewed stream over a pool of distinct query sets,
arriving in fixed-size serving windows (one ``solve_many`` per window,
caches persisting across windows, exactly like a server draining a
request queue).

Both deployments get the **same per-process cache budget** — enough
resident state for ``--cache-queries`` hot queries per process, applied
to all four LRU layers (results, root BFS, candidates, scores).  That is
the memory model that makes sharding worth its processes:

* the **single service** must fit the whole hot set into one process's
  budget; the reference workload's 16 distinct queries blow through a
  4-query budget, so re-asks keep missing and re-sweeping;
* the **sharded service** consistent-hashes the key space over N shard
  processes, so each shard only needs to hold its own share — the
  aggregate budget covers the hot set and re-asks stay warm.

The resulting speedup is a *cache-capacity* win, measured as wall clock:
it holds even on a single core (each avoided miss is an avoided sweep),
and on multi-core machines shard parallelism compounds it, since the
misses that do happen run concurrently.

The gate checks two things end-to-end:

* the 64 connectors returned by the sharded router are **bit-identical**
  (vertex sets and sweep traces) to the single ``ConnectorService`` — the
  serving benchmark pins that baseline, in turn, to one-shot
  ``wiener_steiner``;
* sharded serving is faster — ``>= 2x`` on the reference instance (the
  acceptance target, recorded in ``BENCH_sharded.json``), strictly
  faster on the reduced ``--smoke`` instance CI runs.

Usage::

    python benchmarks/bench_sharded.py            # reference instance, writes BENCH_sharded.json
    python benchmarks/bench_sharded.py --smoke    # small CI gate, no file written
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

if __package__ in (None, ""):
    _HERE = pathlib.Path(__file__).resolve().parent
    _SRC = _HERE.parent / "src"
    for path in (_SRC, _HERE):
        if path.is_dir() and str(path) not in sys.path:
            sys.path.insert(0, str(path))

from bench_util import build_instance
from bench_serving import make_workload

from repro.core.service import ConnectorService
from repro.core.sharded import ShardedConnectorService
from repro.core.wiener_steiner import _lambda_grid


def identical(a, b) -> bool:
    """Bit-identity of two results: same vertex set and same sweep trace."""
    return (
        a.nodes == b.nodes
        and a.metadata.get("root") == b.metadata.get("root")
        and a.metadata.get("lambda") == b.metadata.get("lambda")
        and a.metadata.get("candidates") == b.metadata.get("candidates")
    )


def cache_limits(budget_queries: int, query_size: int, num_nodes: int) -> dict:
    """Per-process LRU bounds holding ``budget_queries`` full working sets.

    One query's sweep touches ``query_size`` roots and up to
    ``query_size × |λ-grid|`` candidates/scores; the result layer holds the
    finished answer.  Scaling all four layers together models a fixed
    memory budget per process — the quantity sharding multiplies.
    """
    grid = len(_lambda_grid(num_nodes, 1.0))
    return {
        "max_cached_results": budget_queries,
        "max_cached_roots": budget_queries * query_size,
        "max_cached_candidates": budget_queries * query_size * grid,
        "max_cached_scores": budget_queries * query_size * grid,
    }


def serve_windows(service, requests, window: int):
    """Drain the stream through ``solve_many`` windows; returns results + seconds."""
    results = []
    started = time.perf_counter()
    for begin in range(0, len(requests), window):
        results.extend(service.solve_many(requests[begin:begin + window]))
    return results, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--query-size", type=int, default=10)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--unique", type=int, default=16,
                        help="distinct query sets in the request pool")
    parser.add_argument("--window", type=int, default=8,
                        help="requests per serving window (one solve_many each)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--cache-queries", type=int, default=4,
                        help="per-process cache budget, in resident query "
                             "working sets (same for both deployments)")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless sharded serving beats the "
        "single service with identical connectors (CI regression gate)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_sharded.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Shrink to CI scale unless the caller pinned sizes explicitly.  The
        # sweeps must still dwarf the shard spawn cost, so this instance is
        # larger than the serving smoke's.
        if args.nodes == parser.get_default("nodes"):
            args.nodes = 2_500
        if args.edges == parser.get_default("edges"):
            args.edges = 10_000
        if args.query_size == parser.get_default("query_size"):
            args.query_size = 8
        if args.requests == parser.get_default("requests"):
            args.requests = 32
        if args.unique == parser.get_default("unique"):
            args.unique = 6
        if args.cache_queries == parser.get_default("cache_queries"):
            args.cache_queries = 2

    graph, _ = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    requests = make_workload(
        graph, args.requests, args.unique, args.query_size, args.seed
    )
    distinct = len({frozenset(q) for q in requests})
    limits = cache_limits(args.cache_queries, args.query_size, graph.num_nodes)
    print(
        f"instance: {graph}, {len(requests)} requests over {distinct} "
        f"distinct queries of size {args.query_size}, windows of "
        f"{args.window}, {args.shards} shards, "
        f"{args.cache_queries}-query budget/process, seed={args.seed}",
        flush=True,
    )

    with ConnectorService(graph, **limits) as single:
        baseline, single_seconds = serve_windows(single, requests, args.window)
        single_sweeps = single.stats().result_misses
    print(f"single service : {single_seconds:8.3f}s "
          f"({single_seconds / len(requests) * 1e3:7.1f} ms/query, "
          f"{single_sweeps} cold sweeps)", flush=True)

    with ShardedConnectorService(graph, n_shards=args.shards, **limits) as sharded:
        served, sharded_seconds = serve_windows(sharded, requests, args.window)
        stats = sharded.stats()
    sharded_sweeps = sum(shard.result_misses for shard in stats.shards)
    print(f"sharded x{args.shards:<5d} : {sharded_seconds:8.3f}s "
          f"({sharded_seconds / len(requests) * 1e3:7.1f} ms/query, "
          f"{sharded_sweeps} cold sweeps)", flush=True)

    all_identical = all(identical(a, b) for a, b in zip(baseline, served))
    speedup = single_seconds / sharded_seconds if sharded_seconds > 0 else float("inf")
    per_shard_served = [shard.queries_served for shard in stats.shards]
    print(f"identical connectors: {all_identical}")
    print(f"speedup (single / sharded): {speedup:.2f}x")
    print(f"router: routed={stats.requests_routed} "
          f"deduped={stats.inflight_deduped} per-shard={per_shard_served}")

    if not all_identical:
        print("FAIL: sharded serving returned different connectors", file=sys.stderr)
        return 1
    if args.smoke:
        if sharded_seconds >= single_seconds:
            print(
                f"FAIL: sharded serving ({sharded_seconds:.3f}s) is not faster "
                f"than the single service ({single_seconds:.3f}s)",
                file=sys.stderr,
            )
            return 1
        print("smoke OK")
        return 0
    if speedup < 2.0:
        print(
            f"FAIL: reference-instance speedup {speedup:.2f}x is below the "
            "2x acceptance target",
            file=sys.stderr,
        )
        return 1

    record = {
        "benchmark": "ShardedConnectorService vs single ConnectorService, windowed Zipf stream",
        "instance": {
            "model": "erdos_renyi + connectify",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "query_size": args.query_size,
            "seed": args.seed,
        },
        "workload": {
            "requests": len(requests),
            "distinct_queries": distinct,
            "window": args.window,
            "distribution": "zipf(1.1) over the query pool, each distinct query at least once",
            "cache_budget_queries_per_process": args.cache_queries,
        },
        "shards": args.shards,
        "single_service_seconds": round(single_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "single_service_ms_per_query": round(single_seconds / len(requests) * 1e3, 2),
        "sharded_ms_per_query": round(sharded_seconds / len(requests) * 1e3, 2),
        "single_service_cold_sweeps": single_sweeps,
        "sharded_cold_sweeps": sharded_sweeps,
        "speedup": round(speedup, 2),
        "identical_connectors": all_identical,
        "router_stats": {
            "requests_routed": stats.requests_routed,
            "inflight_deduped": stats.inflight_deduped,
            "per_shard_queries_served": per_shard_served,
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
