"""Mutation benchmark: scoped invalidation vs rebuild-from-scratch.

Measures what PR 7's versioned-graph subsystem is *for*: applying a
small :class:`~repro.core.versioned.GraphDelta` to a warm
:class:`~repro.core.service.ConnectorService` and continuing to serve,
against the only alternative the tower had before — tearing the service
down and rebuilding it cold on the mutated graph.  One instance (the
10k-node / 50k-edge reference), one Zipf workload, one delta touching
well under 1% of the edges, two ways forward:

* **scoped** — ``apply_delta`` on the warm service: the delta-scoped
  invalidation pass evicts the version-bound layers (candidates and
  results are functions of the whole reweighted graph, so every delta
  clears them) and keeps what is provably still valid — score entries
  (pure functions of the induced subgraph ``G[S]``, untouched unless the
  delta lands inside ``S``) and the root-BFS trees the delta's edges
  cannot reach.  The next window is served warm at the new epoch.
* **rebuild** — a fresh service over the mutated graph serving the same
  window cold: what "just restart it" costs.

Both paths must return **bit-identical** connectors (and spot-checks
against one-shot ``wiener_steiner`` on the mutated graph pin them to the
ground truth).  The retention numbers are reported per layer, honestly:
candidates and results are always version-bound, so the headline
retention metric is over the *warm* layers — the score and root-BFS
entries that make a warm service fast — of which a small delta must
retain a majority.

The gate (``--smoke`` in CI) checks behavior, not speed: epoch advanced,
both paths bit-identical, a majority of the warm-layer entries retained,
and retained score entries actually re-hit after the delta.  The full
run additionally requires the scoped path to beat the rebuild on
ms/query and writes ``BENCH_mutation.json``.

Usage::

    python benchmarks/bench_mutation.py           # reference instance, writes BENCH_mutation.json
    python benchmarks/bench_mutation.py --smoke   # small CI gate, no file written
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
from bench_serving import make_workload
from bench_sharded import identical

from repro.core.service import ConnectorService
from repro.core.versioned import GraphDelta
from repro.core.wiener_steiner import wiener_steiner


def connected_after_removal(graph, u, v) -> bool:
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
    neighbors of a shared node) — the edge-stream traffic the motivating
    social/PPI workloads actually see: new links overwhelmingly close
    triangles rather than joining random distant pairs.
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
            if not connected_after_removal(scratch, u, v):
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


def serve_stream(service, requests):
    """Serve every request; returns (results, seconds)."""
    results = []
    started = time.perf_counter()
    for request in requests:
        results.append(service.solve(request))
    return results, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--query-size", type=int, default=4)
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--unique", type=int, default=16,
                        help="distinct query sets in the request pool")
    parser.add_argument("--delta-ops", type=int, default=8,
                        help="edge mutations in the applied delta (one "
                             "incremental update batch)")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless both paths are bit-identical, "
        "the epoch advances, and a majority of the warm-layer entries "
        "survive the delta (CI regression gate)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_mutation.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        if args.nodes == parser.get_default("nodes"):
            args.nodes = 1_500
        if args.edges == parser.get_default("edges"):
            args.edges = 6_000
        if args.requests == parser.get_default("requests"):
            args.requests = 16
        if args.unique == parser.get_default("unique"):
            args.unique = 8
        if args.delta_ops == parser.get_default("delta_ops"):
            args.delta_ops = 5

    rng = random.Random(args.seed)
    graph, _ = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    requests = make_workload(
        graph, args.requests, args.unique, args.query_size, args.seed
    )
    delta = make_delta(graph, rng, args.delta_ops)
    delta_fraction = delta.num_ops / graph.num_edges
    mutated = graph.copy()
    delta.apply_to_graph(mutated)
    print(
        f"instance: {graph}, {len(requests)} requests "
        f"({args.unique} distinct), delta {delta!r} "
        f"({delta_fraction:.2%} of edges), seed={args.seed}",
        flush=True,
    )

    # --- scoped path: warm up, mutate in place, keep serving ----------
    # Both paths are timed from the mutation event to the next window
    # fully served: apply_delta (validation, incremental CSR refresh,
    # invalidation scan) counts against scoped exactly as construction
    # counts against the rebuild.
    scoped = ConnectorService(graph)
    warm_results, warm_seconds = serve_stream(scoped, requests)
    before = scoped.stats()
    mutate_started = time.perf_counter()
    epoch = scoped.apply_delta(delta)
    apply_seconds = time.perf_counter() - mutate_started
    after_delta = scoped.stats()
    scoped_results, scoped_window_seconds = serve_stream(scoped, requests)
    scoped_seconds = apply_seconds + scoped_window_seconds
    after_window = scoped.stats()

    # --- rebuild path: fresh service over the mutated graph, cold -----
    rebuild_started = time.perf_counter()
    rebuild = ConnectorService(mutated)
    construct_seconds = time.perf_counter() - rebuild_started
    rebuild_results, rebuild_window_seconds = serve_stream(rebuild, requests)
    rebuild_seconds = construct_seconds + rebuild_window_seconds

    # --- retention accounting (per layer, no silent aggregation) ------
    warm_before = before.score_cache_size + before.cached_roots
    warm_after = after_delta.score_cache_size + after_delta.cached_roots
    warm_retained = warm_after / warm_before if warm_before else 0.0
    score_retained = (
        after_delta.score_cache_size / before.score_cache_size
        if before.score_cache_size else 0.0
    )
    root_retained = (
        after_delta.cached_roots / before.cached_roots
        if before.cached_roots else 0.0
    )
    rehit_scores = after_window.score_hits - after_delta.score_hits

    both_identical = all(
        identical(a, b) for a, b in zip(scoped_results, rebuild_results)
    )
    spot_queries = requests[:2]
    spot_identical = all(
        identical(scoped.solve(query), wiener_steiner(mutated, query))
        for query in spot_queries
    )

    warm_ms = warm_seconds / len(requests) * 1e3
    scoped_ms = scoped_seconds / len(requests) * 1e3
    rebuild_ms = rebuild_seconds / len(requests) * 1e3
    print(f"warm-up window : {warm_seconds:8.3f}s ({warm_ms:7.1f} ms/query)")
    print(f"scoped mutate  : {scoped_seconds:8.3f}s ({scoped_ms:7.1f} ms/query) "
          f"at epoch {epoch} (apply_delta {apply_seconds * 1e3:.1f} ms)")
    print(f"full rebuild   : {rebuild_seconds:8.3f}s ({rebuild_ms:7.1f} ms/query)")
    print(f"retention: warm layers {warm_retained:.0%} "
          f"(scores {score_retained:.0%}, roots {root_retained:.0%}); "
          f"evicted {after_delta.entries_invalidated} entries, "
          f"kept {after_delta.entries_retained}; "
          f"{rehit_scores} retained score entries re-hit", flush=True)
    print(f"identical: scoped-vs-rebuild={both_identical} "
          f"spot-vs-one-shot={spot_identical}")

    failures = []
    if epoch != 1 or after_delta.epoch != 1:
        failures.append(f"epoch did not advance to 1 (saw {after_delta.epoch})")
    if not both_identical:
        failures.append("scoped and rebuilt services disagree post-delta")
    if not spot_identical:
        failures.append("post-delta answers differ from one-shot wiener_steiner")
    if warm_retained <= 0.5:
        failures.append(
            f"scoped invalidation kept only {warm_retained:.0%} of the "
            "warm-layer entries (score + root-BFS); majority required"
        )
    if rehit_scores <= 0:
        failures.append("no retained score entry was re-hit after the delta")
    if after_delta.entries_invalidated <= 0:
        failures.append("delta evicted nothing: version-bound layers must clear")
    if not args.smoke and scoped_seconds >= rebuild_seconds:
        failures.append(
            f"scoped serving ({scoped_ms:.1f} ms/query) did not beat the "
            f"rebuild ({rebuild_ms:.1f} ms/query)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.smoke:
        print("smoke OK")
        return 0

    record = {
        "benchmark": "scoped cache invalidation vs service rebuild after a small delta",
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
            "distribution": "zipf(1.1) over the query pool, each distinct query at least once",
        },
        "delta": {
            "inserts": len(delta.inserts),
            "deletes": len(delta.deletes),
            "ops": delta.num_ops,
            "fraction_of_edges": round(delta_fraction, 5),
            "digest": delta.digest(),
        },
        "epoch_after": epoch,
        "identical_connectors": both_identical and spot_identical,
        "warm_ms_per_query": round(warm_ms, 2),
        "scoped_ms_per_query": round(scoped_ms, 2),
        "rebuild_ms_per_query": round(rebuild_ms, 2),
        "apply_delta_ms": round(apply_seconds * 1e3, 2),
        "rebuild_over_scoped": round(rebuild_seconds / scoped_seconds, 3),
        "timing_note": "both paths timed from the mutation event to the "
                       "next window fully served (apply_delta vs service "
                       "reconstruction included)",
        "retention": {
            "entries_retained": after_delta.entries_retained,
            "entries_invalidated": after_delta.entries_invalidated,
            "warm_layer_retained_fraction": round(warm_retained, 4),
            "score_entries_before": before.score_cache_size,
            "score_entries_after": after_delta.score_cache_size,
            "score_retained_fraction": round(score_retained, 4),
            "root_entries_before": before.cached_roots,
            "root_entries_after": after_delta.cached_roots,
            "root_retained_fraction": round(root_retained, 4),
            "retained_score_entries_rehit": rehit_scores,
            "note": "candidate and result entries are version-bound by "
                    "design (every edge participates in the Lemma-4 "
                    "reweighted instance) and are always evicted",
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
