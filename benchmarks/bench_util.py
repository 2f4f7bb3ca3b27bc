"""Helpers shared by the benchmark files (kept out of conftest so the
module name never collides with tests/conftest.py when both trees are
collected in one pytest invocation)."""

from __future__ import annotations

import random


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark ``function`` with one warm round (experiment-scale)."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def build_instance(num_nodes: int, num_edges: int, query_size: int, seed: int):
    """The seeded reference instance: a connected Erdős–Rényi graph with
    about ``num_edges`` edges, plus one random query of ``query_size``."""
    from repro.graphs.generators import connectify, erdos_renyi

    rng = random.Random(seed)
    p = 2 * num_edges / (num_nodes * (num_nodes - 1))
    graph = connectify(erdos_renyi(num_nodes, p, rng=rng), rng=rng)
    query = rng.sample(sorted(graph.nodes()), query_size)
    return graph, query
