"""λ work sharing vs the historical per-pair sweep.

Measures the λ×root sweep of
:meth:`~repro.core.service.ConnectorService._solve_ws`, which shares work
across the λ grid — one root batch per root: the per-arc
``max(d_r[u], d_r[v])`` gather, the unreachable-arc mask and the terminal
set are computed once for the whole grid, and each λ's weight row is then
written into the engine's one reusable matrix buffer — against the
historical baseline that built one candidate per ``(root, λ)`` pair.  Two
paths over one instance (the 10k-node / 50k-edge reference) and one mixed
workload:

* **unshared** — the historical sweep, emulated pair by pair through the
  engine's single-λ ``candidate()`` entry point, a one-λ root batch, so
  every pair pays its own gather (result-memoized, as the historical
  service was);
* **shared** — the service at defaults.

The workload mixes the standard Zipf request stream with *root-ablation*
queries (explicit ``roots`` lists extending the Lemma-5 default with
distant vertices — the robustness-ablation pattern of the experiment
harness), which widen the sweep beyond the query set.

Everything is gated on **bit-identity**: both paths must return the same
winning ``(nodes, root, λ)`` on every request, warm re-serves must equal
cold ones, and all of it must survive a mutation epoch (``apply_delta`` +
checks against a fresh service and one-shot ``wiener_steiner`` on the
mutated graph).  ``pairs_scored`` must equal the sweep's exact pair
count.  The full run additionally requires the shared path to beat the
unshared baseline on ms/query and writes ``BENCH_pruning.json``.

Usage::

    python benchmarks/bench_pruning.py           # reference instance, writes BENCH_pruning.json
    python benchmarks/bench_pruning.py --smoke   # small CI gate, no file written
"""

from __future__ import annotations

import argparse
import json
import math
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
from bench_mutation import make_delta
from bench_serving import make_workload
from bench_sharded import identical

from repro.core.service import ConnectorService, _lambda_grid, _root_list
from repro.core.options import SolveOptions
from repro.core.wiener_steiner import wiener_steiner


def winner(result_or_tuple):
    """The ``(nodes, root, λ)`` of an answer — all the unshared baseline
    produces, so the cross-path comparison pins exactly that."""
    if isinstance(result_or_tuple, tuple):
        return result_or_tuple
    return (
        result_or_tuple.nodes,
        result_or_tuple.metadata["root"],
        result_or_tuple.metadata["lambda"],
    )


def unshared_sweep(service, options, query, memo):
    """The historical sweep: one candidate construction per (root, λ) pair.

    Same grid, same canonical order, same strict-improvement selection,
    same result memo the old service had — but every pair pays its own
    per-root gather through the engine's single-λ ``candidate()`` entry
    point.  This is the baseline λ work sharing replaced, kept runnable
    here so the comparison stays honest.
    """
    query_set = frozenset(query)
    memo_key = (query_set, options)
    if memo_key in memo:
        return memo[memo_key]
    engine = service._sweep_engine()
    roots = _root_list(options, query_set)
    for root in roots:
        engine.unreachable_queries(root, query_set)
    grid = (
        list(options.lambda_values)
        if options.lambda_values is not None
        else _lambda_grid(service.num_nodes, options.beta)
    )
    best_key = math.inf
    best = None
    scored: dict = {}
    for lam in grid:
        for root in roots:
            candidate = engine.candidate(root, lam, query_set, options.adjust)
            if candidate in scored:
                continue
            key = service._score_candidate(engine, candidate, root, options)
            scored[candidate] = key
            if key < best_key:
                best_key = key
                best = (candidate, root, lam)
    memo[memo_key] = best
    return best


def make_requests(graph, args, rng):
    """The mixed workload: Zipf default queries + root-ablation queries.

    Returns ``[(query, options_override_or_None), ...]``; ablation
    entries carry an explicit roots tuple extending the query with
    ``--extra-roots`` random vertices.
    """
    stream = make_workload(
        graph, args.requests, args.unique, args.query_size, args.seed
    )
    requests = [(query, None) for query in stream]
    nodes = sorted(graph.nodes())
    distinct = []
    seen = set()
    for query in stream:
        if frozenset(query) not in seen:
            seen.add(frozenset(query))
            distinct.append(query)
    for query in distinct[: args.ablation]:
        roots = tuple(
            dict.fromkeys(list(query) + rng.sample(nodes, args.extra_roots))
        )
        requests.append((query, roots))
    return requests


def serve(service, options, requests):
    """Serve the mixed stream through a service; (winners, seconds)."""
    winners = []
    started = time.perf_counter()
    for query, roots in requests:
        opts = options if roots is None else options.replace(roots=roots)
        winners.append(winner(service.solve(query, opts)))
    return winners, time.perf_counter() - started


def serve_unshared(service, options, requests):
    winners = []
    memo: dict = {}
    started = time.perf_counter()
    for query, roots in requests:
        opts = options if roots is None else options.replace(roots=roots)
        winners.append(winner(unshared_sweep(service, opts, query, memo)))
    return winners, time.perf_counter() - started


def expected_pairs(graph, options, requests):
    """The exact (λ, root) pair count ``pairs_scored`` must reach."""
    grid = len(_lambda_grid(graph.num_nodes, options.beta))
    total = 0
    seen = set()
    for query, roots in requests:
        opts = options if roots is None else options.replace(roots=roots)
        key = (frozenset(query), opts)
        if key in seen:  # result-cache hit: no sweep, no pairs
            continue
        seen.add(key)
        total += grid * len(_root_list(opts, frozenset(query)))
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--query-size", type=int, default=4)
    parser.add_argument("--requests", type=int, default=16)
    parser.add_argument("--unique", type=int, default=8,
                        help="distinct query sets in the Zipf stream")
    parser.add_argument("--ablation", type=int, default=8,
                        help="root-ablation requests appended to the stream")
    parser.add_argument("--extra-roots", type=int, default=8,
                        help="random extra roots per ablation request")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of-N timing for each path")
    parser.add_argument("--delta-ops", type=int, default=6,
                        help="edge mutations in the epoch-flip delta")
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced instance; exit 1 unless the shared and unshared "
        "sweeps are bit-identical (cold/warm, across the mutation epoch) "
        "and pairs_scored equals the sweep's pair count (CI regression "
        "gate; no timing gate, no file written)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_pruning.json"),
        help="where to write the JSON record (skipped in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        if args.nodes == parser.get_default("nodes"):
            args.nodes = 1_500
        if args.edges == parser.get_default("edges"):
            args.edges = 6_000
        if args.requests == parser.get_default("requests"):
            args.requests = 8
        if args.unique == parser.get_default("unique"):
            args.unique = 4
        if args.ablation == parser.get_default("ablation"):
            args.ablation = 4
        if args.repeats == parser.get_default("repeats"):
            args.repeats = 1

    rng = random.Random(args.seed)
    graph, _ = build_instance(args.nodes, args.edges, args.query_size, args.seed)
    requests = make_requests(graph, args, rng)
    options = SolveOptions()
    print(
        f"instance: {graph}, {len(requests)} requests "
        f"({args.requests} Zipf + {args.ablation} root-ablation with "
        f"{args.extra_roots} extra roots), seed={args.seed}",
        flush=True,
    )

    # --- the two paths, each cold, best-of-N ----------------------------
    unshared_seconds = math.inf
    for _ in range(args.repeats):
        unshared_winners, seconds = serve_unshared(
            ConnectorService(graph, options), options, requests
        )
        unshared_seconds = min(unshared_seconds, seconds)
    service = ConnectorService(graph, options)
    shared_winners, shared_seconds = serve(service, options, requests)
    for _ in range(args.repeats - 1):
        _, seconds = serve(ConnectorService(graph, options), options, requests)
        shared_seconds = min(shared_seconds, seconds)
    stats = service.stats()

    per_query = len(requests)
    unshared_ms = unshared_seconds / per_query * 1e3
    shared_ms = shared_seconds / per_query * 1e3
    print(f"unshared sweep : {unshared_seconds:8.3f}s ({unshared_ms:7.1f} ms/query)")
    print(f"λ-shared       : {shared_seconds:8.3f}s ({shared_ms:7.1f} ms/query)")
    print(f"pairs scored   : {stats.pairs_scored}", flush=True)

    # --- identity: the two paths agree on every winner ------------------
    winners_agree = unshared_winners == shared_winners

    # --- identity: warm equals cold -------------------------------------
    warm_winners, _ = serve(service, options, requests)
    warm_identical = warm_winners == shared_winners

    # --- identity across a mutation epoch -------------------------------
    delta = make_delta(graph, rng, args.delta_ops)
    mutated = graph.copy()
    delta.apply_to_graph(mutated)
    epoch = service.apply_delta(delta)
    fresh_after = ConnectorService(mutated, options)
    post_requests = requests[:3] + requests[-2:]
    post_identical = True
    for query, roots in post_requests:
        opts = options if roots is None else options.replace(roots=roots)
        if not identical(
            service.solve(query, opts), fresh_after.solve(query, opts)
        ):
            post_identical = False
    spot_query = requests[0][0]
    spot_identical = identical(
        service.solve(spot_query), wiener_steiner(mutated, spot_query)
    )

    # --- the counter covers every visited pair --------------------------
    total_pairs = expected_pairs(graph, options, requests)
    counters_match = stats.pairs_scored == total_pairs

    print(f"identity: paths-agree={winners_agree} warm={warm_identical} "
          f"post-epoch={post_identical} "
          f"spot-vs-one-shot={spot_identical} (epoch {epoch})")

    failures = []
    if not winners_agree:
        failures.append("unshared and shared sweeps disagree")
    if not warm_identical:
        failures.append("warm re-serve differs from the cold sweep")
    if not post_identical:
        failures.append(
            "the mutated service and a fresh one disagree after the epoch flip"
        )
    if not spot_identical:
        failures.append("post-delta answer differs from one-shot wiener_steiner")
    if epoch != 1:
        failures.append(f"epoch did not advance to 1 (saw {epoch})")
    if not counters_match:
        failures.append(
            f"pairs_scored {stats.pairs_scored} != sweep pair count {total_pairs}"
        )
    if not args.smoke and shared_seconds >= unshared_seconds:
        failures.append(
            f"shared sweep ({shared_ms:.1f} ms/query) did not beat "
            f"the unshared baseline ({unshared_ms:.1f} ms/query)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.smoke:
        print("smoke OK")
        return 0

    record = {
        "benchmark": "λ work sharing vs the historical per-pair sweep",
        "instance": {
            "model": "erdos_renyi + connectify",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "query_size": args.query_size,
            "seed": args.seed,
        },
        "workload": {
            "zipf_requests": args.requests,
            "distinct_queries": args.unique,
            "ablation_requests": args.ablation,
            "extra_roots_per_ablation": args.extra_roots,
            "note": "root-ablation requests extend the Lemma-5 default "
                    "roots with random distant vertices",
        },
        "repeats": args.repeats,
        "unshared_ms_per_query": round(unshared_ms, 2),
        "shared_ms_per_query": round(shared_ms, 2),
        "speedup_shared_over_unshared": round(unshared_seconds / shared_seconds, 3),
        "pairs_scored": stats.pairs_scored,
        "pairs_scored_matches_sweep": counters_match,
        "identical_connectors": {
            "paths_agree": winners_agree,
            "warm_equals_cold": warm_identical,
            "across_mutation_epoch": post_identical,
            "spot_vs_one_shot": spot_identical,
        },
        "epoch_after": epoch,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
