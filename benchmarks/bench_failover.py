"""Failover benchmark: availability and latency of the replicated ring.

Measures what PR 6's self-healing surface is *for*: a
:class:`~repro.core.sharded.ShardedConnectorService` with
``replication=2`` serving a windowed request stream while one of its
three replicas is killed mid-stream.  Three deployments over the same
instance and workload:

* **single service** — the ground truth: every connector the sharded
  deployments return must be bit-identical to it (which pins them, via
  ``bench_serving.py``'s gate, to one-shot ``wiener_steiner``);
* **steady state** — the replicated ring with nobody dying: the latency
  baseline the failover run is compared against;
* **failover** — the same ring, but one replica's process is killed
  while a window is in flight.  The stream must complete with **zero
  failed requests** (availability 1.0): the dead replica's in-flight
  sweeps re-dispatch to survivors, later windows serve degraded, and the
  ring heals (reconnect-with-backoff respawns the slot) before the gate
  checks the counters.

The record (``BENCH_failover.json``) keeps the honest numbers a
dashboard needs: per-window latency for steady vs failover runs, the
latency of the window the kill landed in, and the recovery counters
(``shards_failed`` / ``failovers`` / ``reconnects``) from
:meth:`~repro.core.sharded.ShardedConnectorService.stats`.

The gate (``--smoke`` in CI) checks behavior, not speed: all connectors
bit-identical, availability 1.0, exactly one shard failure recorded, and
the ring healed by the end.

Usage::

    python benchmarks/bench_failover.py           # reference instance, writes BENCH_failover.json
    python benchmarks/bench_failover.py --smoke   # small CI gate, no file written
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import threading
import time

if __package__ in (None, ""):
    _HERE = pathlib.Path(__file__).resolve().parent
    _SRC = _HERE.parent / "src"
    for path in (_SRC, _HERE):
        if path.is_dir() and str(path) not in sys.path:
            sys.path.insert(0, str(path))

from bench_util import build_instance
from bench_serving import make_workload
from bench_sharded import cache_limits, identical

from repro.core.retry import BackoffPolicy
from repro.core.service import ConnectorService
from repro.core.sharded import ShardedConnectorService


def serve_windows_timed(service, requests, window: int):
    """Serve the stream window by window; returns (results, window_seconds)."""
    results = []
    latencies = []
    for begin in range(0, len(requests), window):
        started = time.perf_counter()
        results.extend(service.solve_many(requests[begin:begin + window]))
        latencies.append(time.perf_counter() - started)
    return results, latencies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=5_000)
    parser.add_argument("--edges", type=int, default=20_000)
    parser.add_argument("--query-size", type=int, default=8)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--unique", type=int, default=12,
                        help="distinct query sets in the request pool")
    parser.add_argument("--window", type=int, default=8,
                        help="requests per serving window (one solve_many each)")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--cache-queries", type=int, default=4,
                        help="per-process cache budget, in resident query "
                             "working sets")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless the failover run completes "
        "bit-identically with availability 1.0 and a healed ring "
        "(CI regression gate)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_failover.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        if args.nodes == parser.get_default("nodes"):
            args.nodes = 2_000
        if args.edges == parser.get_default("edges"):
            args.edges = 8_000
        if args.query_size == parser.get_default("query_size"):
            args.query_size = 6
        if args.requests == parser.get_default("requests"):
            args.requests = 24
        if args.unique == parser.get_default("unique"):
            args.unique = 8

    graph, _ = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    requests = make_workload(
        graph, args.requests, args.unique, args.query_size, args.seed
    )
    limits = cache_limits(args.cache_queries, args.query_size, graph.num_nodes)
    # Revival pacing fit for a benchmark run; production keeps the default.
    backoff = BackoffPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
    ring = dict(
        n_shards=args.shards,
        replication=args.replication,
        backoff=backoff,
        heartbeat_interval=None,
        **limits,
    )
    print(
        f"instance: {graph}, {len(requests)} requests in windows of "
        f"{args.window}, {args.shards} shards x replication "
        f"{args.replication}, seed={args.seed}",
        flush=True,
    )

    with ConnectorService(graph, **limits) as single:
        baseline, _ = serve_windows_timed(single, requests, args.window)

    with ShardedConnectorService(graph, **ring) as steady_ring:
        steady_results, steady_windows = serve_windows_timed(
            steady_ring, requests, args.window
        )
    steady_seconds = sum(steady_windows)
    print(f"steady state   : {steady_seconds:8.3f}s "
          f"({steady_seconds / len(requests) * 1e3:7.1f} ms/query)",
          flush=True)

    # The chaos run: kill one replica while the second window is in flight.
    with ShardedConnectorService(graph, **ring) as chaos_ring:
        victim = chaos_ring._shards[0]
        first_window_done = threading.Event()

        def killer():
            first_window_done.wait(30.0)
            time.sleep(0.02)  # land inside the next window, not between
            victim.process.terminate()

        threading.Thread(target=killer, daemon=True).start()
        chaos_results = []
        chaos_windows = []
        for begin in range(0, len(requests), args.window):
            started = time.perf_counter()
            chaos_results.extend(
                chaos_ring.solve_many(requests[begin:begin + args.window])
            )
            chaos_windows.append(time.perf_counter() - started)
            first_window_done.set()
        # Let the backoff elapse and the slot respawn before reading the
        # recovery counters: "healed" is part of the contract under test.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            stats = chaos_ring.stats()
            if not stats.dead_shards:
                break
            time.sleep(0.05)
    chaos_seconds = sum(chaos_windows)
    print(f"with failover  : {chaos_seconds:8.3f}s "
          f"({chaos_seconds / len(requests) * 1e3:7.1f} ms/query)",
          flush=True)

    steady_identical = all(identical(a, b) for a, b in zip(baseline, steady_results))
    chaos_identical = all(identical(a, b) for a, b in zip(baseline, chaos_results))
    availability = len(chaos_results) / len(requests)
    healed = not stats.dead_shards and stats.reconnects >= 1
    slowest_chaos = max(chaos_windows)
    mean_steady = steady_seconds / len(steady_windows)
    print(f"identical connectors: steady={steady_identical} "
          f"failover={chaos_identical}")
    print(f"availability: {availability:.0%} "
          f"({len(chaos_results)}/{len(requests)} answered)")
    print(f"recovery: shards_failed={stats.shards_failed} "
          f"failovers={stats.failovers} reconnects={stats.reconnects} "
          f"dead={list(stats.dead_shards)}")
    print(f"window latency: steady mean {mean_steady * 1e3:.1f} ms, "
          f"failover worst {slowest_chaos * 1e3:.1f} ms")

    failures = []
    if not (steady_identical and chaos_identical):
        failures.append("connectors are not bit-identical to the single service")
    if availability < 1.0:
        failures.append(f"availability {availability:.0%} < 100%")
    if stats.shards_failed != 1:
        failures.append(f"expected exactly 1 shard failure, saw {stats.shards_failed}")
    if not healed:
        failures.append(
            f"ring did not heal (dead={list(stats.dead_shards)}, "
            f"reconnects={stats.reconnects})"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.smoke:
        print("smoke OK")
        return 0

    record = {
        "benchmark": "replicated ring availability/latency: one replica killed mid-stream",
        "instance": {
            "model": "erdos_renyi + connectify",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "query_size": args.query_size,
            "seed": args.seed,
        },
        "workload": {
            "requests": len(requests),
            "distinct_queries": len({frozenset(q) for q in requests}),
            "window": args.window,
            "distribution": "zipf(1.1) over the query pool, each distinct query at least once",
        },
        "ring": {
            "shards": args.shards,
            "replication": args.replication,
            "backoff": {"base_delay": backoff.base_delay, "max_delay": backoff.max_delay},
        },
        "availability": availability,
        "identical_connectors": chaos_identical,
        "steady_seconds": round(steady_seconds, 4),
        "failover_seconds": round(chaos_seconds, 4),
        "steady_ms_per_query": round(steady_seconds / len(requests) * 1e3, 2),
        "failover_ms_per_query": round(chaos_seconds / len(requests) * 1e3, 2),
        "steady_window_seconds": [round(w, 4) for w in steady_windows],
        "failover_window_seconds": [round(w, 4) for w in chaos_windows],
        "failover_worst_window_ms": round(slowest_chaos * 1e3, 2),
        "recovery": {
            "shards_failed": stats.shards_failed,
            "failovers": stats.failovers,
            "reconnects": stats.reconnects,
            "healed": healed,
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
