"""Remote shard transport benchmark: socket shard hosts vs pipe shards.

The multi-host question is not "is sharding faster" (``bench_sharded.py``
pins that) but "what does moving the scatter/gather from pipes to
sockets *cost*" — the price of being able to put shard replicas on other
machines at all.  Same reference workload as the sharded benchmark: the
10k-node / 50k-edge graph under a 64-request Zipf-skewed stream over 16
distinct queries, arriving in fixed-size serving windows, with a pinned
per-process cache budget.  Two deployments:

* **pipe baseline** — ``ShardedConnectorService(n_shards=2)``, the PR-3
  shape: two local worker processes over duplex pipes;
* **remote** — two real ``shard-host`` daemon *processes* on localhost
  (spawned with the same graph seed and the same cache budget, digest
  handshake and all), fronted by
  ``ShardedConnectorService(shards=["127.0.0.1:p1", "127.0.0.1:p2"])``.

Ring placement depends only on the slot count, so both deployments serve
exactly the same keys on the same shard indices; the measured difference
is purely the transport — JSON-lines framing, pickled sweep payloads,
and TCP hops instead of pipe writes.

The gate checks two things end-to-end:

* the 64 connectors from the remote router are **bit-identical** (vertex
  sets and sweep traces) to the pipe-backed router's — which the sharded
  benchmark in turn pins to one-shot ``wiener_steiner``;
* the socket transport stays **within 1.5x** of pipe latency on the
  reference instance (recorded in ``BENCH_remote.json``) — the wire
  overhead must stay a toll, not a tax, or multi-host scale-out is
  fiction.  The reduced ``--smoke`` instance CI runs allows 2.0x:
  sweeps there are small enough that constant per-request wire costs
  weigh heavier, and CI timing noise rides on top.

Usage::

    python benchmarks/bench_remote.py            # reference instance, writes BENCH_remote.json
    python benchmarks/bench_remote.py --smoke    # small CI gate, no file written
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import re
import subprocess
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
from bench_sharded import cache_limits, identical, serve_windows

from repro.core.sharded import ShardedConnectorService
from repro.serving.remote import shutdown_shard_host

#: The daemon body: rebuild the deterministic instance, serve sweeps.
#: A real separate process — the honest price of the socket transport —
#: seeded exactly like the router (same build_instance arguments) so the
#: digest handshake passes.
_HOST_SCRIPT = """\
import json, sys
sys.path[:0] = {paths!r}
from bench_util import build_instance
from repro.core.service import ConnectorService
from repro.serving.remote import ShardHostServer

spec = json.loads({spec!r})
graph, _ = build_instance(
    spec["nodes"], spec["edges"], spec["query_size"], spec["seed"]
)
service = ConnectorService(graph, **spec["limits"])
server = ShardHostServer(service, port=0).start()
print(f"listening on 127.0.0.1:{{server.port}}", flush=True)
server.wait_shutdown()
server.close()
"""


def spawn_shard_host(args, limits: dict) -> tuple[subprocess.Popen, int]:
    spec = json.dumps({
        "nodes": args.nodes, "edges": args.edges,
        "query_size": args.query_size, "seed": args.seed, "limits": limits,
    })
    here = pathlib.Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    process = subprocess.Popen(
        [sys.executable, "-c", _HOST_SCRIPT.format(paths=paths, spec=spec)],
        stdout=subprocess.PIPE,
        text=True,
    )
    for line in process.stdout:
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if match:
            return process, int(match.group(1))
    raise RuntimeError("shard host never announced its port")


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
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--cache-queries", type=int, default=4,
                        help="per-process cache budget, in resident query "
                             "working sets (same for both deployments)")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument("--max-ratio", type=float, default=None,
                        help="fail above this remote/pipe latency ratio "
                             "(default: 1.5 reference, 2.0 smoke)")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless the socket transport matches "
        "the pipe transport bit-identically within the latency ratio "
        "(CI regression gate)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_remote.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Shrink to CI scale unless the caller pinned sizes explicitly —
        # the same instance the sharded smoke gate trusts.
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
    max_ratio = args.max_ratio if args.max_ratio is not None else (
        2.0 if args.smoke else 1.5
    )

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

    with ShardedConnectorService(
        graph, n_shards=args.shards, **limits
    ) as pipe_router:
        baseline, pipe_seconds = serve_windows(pipe_router, requests, args.window)
    print(f"pipe shards x{args.shards}   : {pipe_seconds:8.3f}s "
          f"({pipe_seconds / len(requests) * 1e3:7.1f} ms/query)", flush=True)

    daemons = [spawn_shard_host(args, limits) for _ in range(args.shards)]
    addresses = [f"127.0.0.1:{port}" for _, port in daemons]
    try:
        with ShardedConnectorService(graph, shards=addresses) as remote_router:
            served, remote_seconds = serve_windows(
                remote_router, requests, args.window
            )
            stats = remote_router.stats()
    finally:
        for (process, port) in daemons:
            shutdown_shard_host("127.0.0.1", port)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
    print(f"socket shard hosts : {remote_seconds:8.3f}s "
          f"({remote_seconds / len(requests) * 1e3:7.1f} ms/query)", flush=True)

    all_identical = all(identical(a, b) for a, b in zip(baseline, served))
    ratio = remote_seconds / pipe_seconds if pipe_seconds > 0 else float("inf")
    print(f"identical connectors: {all_identical}")
    print(f"latency ratio (socket / pipe): {ratio:.2f}x (gate: {max_ratio}x)")
    print(f"router over sockets: routed={stats.requests_routed} "
          f"deduped={stats.inflight_deduped} "
          f"per-shard={[s.queries_served for s in stats.shards]}")

    if not all_identical:
        print(
            "FAIL: the socket transport returned different connectors",
            file=sys.stderr,
        )
        return 1
    if ratio > max_ratio:
        print(
            f"FAIL: socket transport is {ratio:.2f}x pipe latency, above "
            f"the {max_ratio}x bound",
            file=sys.stderr,
        )
        return 1
    if args.smoke:
        print("smoke OK")
        return 0

    record = {
        "benchmark": "remote shard hosts (sockets) vs pipe shards, windowed Zipf stream",
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
        "transports": {"baseline": "pipe", "measured": "socket"},
        "pipe_seconds": round(pipe_seconds, 4),
        "remote_seconds": round(remote_seconds, 4),
        "pipe_ms_per_query": round(pipe_seconds / len(requests) * 1e3, 2),
        "remote_ms_per_query": round(remote_seconds / len(requests) * 1e3, 2),
        "latency_ratio": round(ratio, 3),
        "max_ratio_gate": max_ratio,
        "identical_connectors": all_identical,
        "router_stats": {
            "requests_routed": stats.requests_routed,
            "inflight_deduped": stats.inflight_deduped,
            "per_shard_queries_served": [
                s.queries_served for s in stats.shards
            ],
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
