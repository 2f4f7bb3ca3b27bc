"""Serving benchmark: ``ConnectorService.solve_many`` vs one-shot calls.

Models the batched-serving workload the ConnectorService redesign targets:
a fixed reference graph (10k nodes / 50k edges, ``bench_util``'s
reference instance) receives a batch of 32 query requests drawn from a Zipf-skewed
popularity distribution over a pool of distinct query sets — the standard
serving assumption that a few hot queries (trending entities, shared
dashboards) dominate traffic while the tail stays diverse.  Every distinct
query still runs the full Algorithm-1 sweep; the service's amortization
comes from building the CSR index once and from its root/candidate/result
caches deduplicating the repeated work, never from approximating.

The gate checks two things end-to-end:

* the 32 connectors returned by ``solve_many`` are **bit-identical** to 32
  independent ``wiener_steiner`` calls;
* batched serving is faster — ``>= 3x`` on the reference instance (the
  acceptance target, recorded in ``BENCH_serving.json``), strictly faster
  on the reduced ``--smoke`` instance CI runs.

Usage::

    python benchmarks/bench_serving.py            # reference instance, writes BENCH_serving.json
    python benchmarks/bench_serving.py --smoke    # small CI gate, no file written
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
import time

if __package__ in (None, ""):
    _HERE = pathlib.Path(__file__).resolve().parent
    _SRC = _HERE.parent / "src"
    for path in (_SRC, _HERE):
        if path.is_dir() and str(path) not in sys.path:
            sys.path.insert(0, str(path))

from bench_util import build_instance

from repro.core.service import ConnectorService
from repro.core.wiener_steiner import wiener_steiner


def make_workload(
    graph,
    num_requests: int,
    unique_queries: int,
    query_size: int,
    seed: int,
    zipf_exponent: float = 1.1,
):
    """A Zipf-skewed request stream over a pool of distinct query sets.

    Every distinct query appears at least once (so the amount of real
    solving work is pinned), the remaining requests follow the rank
    popularity ``1/rank^s``, and the stream order is shuffled.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    pool = [rng.sample(nodes, query_size) for _ in range(unique_queries)]
    weights = [1.0 / (rank + 1) ** zipf_exponent for rank in range(len(pool))]
    requests = list(pool)
    while len(requests) < num_requests:
        requests.append(pool[rng.choices(range(len(pool)), weights)[0]])
    rng.shuffle(requests)
    return requests[:num_requests]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--query-size", type=int, default=10)
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--unique", type=int, default=8,
                        help="distinct query sets in the request pool")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless serving beats the one-shot "
        "loop with identical connectors (CI regression gate)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Shrink to CI scale unless the caller pinned sizes explicitly.
        if args.nodes == parser.get_default("nodes"):
            args.nodes = 600
        if args.edges == parser.get_default("edges"):
            args.edges = 1_800
        if args.query_size == parser.get_default("query_size"):
            args.query_size = 6
        if args.requests == parser.get_default("requests"):
            args.requests = 12
        if args.unique == parser.get_default("unique"):
            args.unique = 4

    graph, _ = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    requests = make_workload(
        graph, args.requests, args.unique, args.query_size, args.seed
    )
    distinct = len({frozenset(q) for q in requests})
    print(
        f"instance: {graph}, {len(requests)} requests over {distinct} "
        f"distinct queries of size {args.query_size}, seed={args.seed}",
        flush=True,
    )

    started = time.perf_counter()
    one_shot = [wiener_steiner(graph, query) for query in requests]
    one_shot_seconds = time.perf_counter() - started
    print(f"one-shot loop : {one_shot_seconds:8.3f}s "
          f"({one_shot_seconds / len(requests) * 1e3:7.1f} ms/query)", flush=True)

    service = ConnectorService(graph)
    started = time.perf_counter()
    served = service.solve_many(requests)
    serving_seconds = time.perf_counter() - started
    print(f"solve_many    : {serving_seconds:8.3f}s "
          f"({serving_seconds / len(requests) * 1e3:7.1f} ms/query)", flush=True)

    identical = all(
        a.nodes == b.nodes for a, b in zip(one_shot, served)
    )
    speedup = one_shot_seconds / serving_seconds if serving_seconds > 0 else float("inf")
    stats = service.stats()
    print(f"identical connectors: {identical}")
    print(f"speedup (one-shot / serving): {speedup:.2f}x")
    print(f"cache stats: {stats}")

    if not identical:
        print("FAIL: serving returned different connectors", file=sys.stderr)
        return 1
    if args.smoke:
        if serving_seconds >= one_shot_seconds:
            print(
                f"FAIL: batched serving ({serving_seconds:.3f}s) is not faster "
                f"than {len(requests)} independent calls ({one_shot_seconds:.3f}s)",
                file=sys.stderr,
            )
            return 1
        print("smoke OK")
        return 0
    if speedup < 3.0:
        print(
            f"FAIL: reference-instance speedup {speedup:.2f}x is below the "
            "3x acceptance target",
            file=sys.stderr,
        )
        return 1

    record = {
        "benchmark": "ConnectorService batched serving vs one-shot wiener_steiner",
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
            "distribution": "zipf(1.1) over the query pool, each distinct query at least once",
        },
        "one_shot_seconds": round(one_shot_seconds, 4),
        "serving_seconds": round(serving_seconds, 4),
        "one_shot_ms_per_query": round(one_shot_seconds / len(requests) * 1e3, 2),
        "serving_ms_per_query": round(serving_seconds / len(requests) * 1e3, 2),
        "speedup": round(speedup, 2),
        "identical_connectors": identical,
        "service_stats": {
            "queries_served": stats.queries_served,
            "result_hits": stats.result_hits,
            "result_misses": stats.result_misses,
            "candidate_hits": stats.candidate_hits,
            "candidate_misses": stats.candidate_misses,
            "score_hits": stats.score_hits,
            "score_misses": stats.score_misses,
            "cached_roots": stats.cached_roots,
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
