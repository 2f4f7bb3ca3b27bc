"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same graph, query pool, arrival schedule and delta sequence.
The program under test receives only these generated inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random

from repro.core.versioned import GraphDelta
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import barabasi_albert_edges, connectify, erdos_renyi


def ba_csr(nodes: int, attachment: int, seed: int) -> CSRGraph:
    """A Barabási–Albert graph streamed straight into CSR arrays."""
    edges = barabasi_albert_edges(nodes, attachment, random.Random(seed))
    return CSRGraph.from_edge_stream(nodes, edges)


def er_graph(nodes: int, edges: int, seed: int):
    """The connected Erdős–Rényi reference instance (dict graph)."""
    rng = random.Random(seed)
    p = 2 * edges / (nodes * (nodes - 1))
    return connectify(erdos_renyi(nodes, p, rng=rng), rng=rng)


def distinct_queries(nodes: int, size: int, rng: random.Random):
    """An endless stream of distinct size-``size`` queries over ``0..nodes-1``.

    Both instance families are connected, so every query is solvable.
    """
    seen: set[frozenset] = set()
    while True:
        query = tuple(sorted(rng.sample(range(nodes), size)))
        if frozenset(query) not in seen:
            seen.add(frozenset(query))
            yield query


def query_pool(nodes: int, count: int, size: int, rng: random.Random) -> list[tuple]:
    return list(itertools.islice(distinct_queries(nodes, size, rng), count))


def zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def zipf_window(pool: list, count: int, exponent: float, rng: random.Random) -> list:
    """The Zipf-expected mix of ``count`` requests over ``pool``, in seeded order.

    Draw ``i`` is the pool rank at quantile ``(i + 0.5) / count`` of the
    Zipf distribution, so every window holds the same multiset of
    queries and only their order is random.  With i.i.d. draws the number
    of distinct queries, and with it the cost of the window, would swing
    by a sweep or two between windows and between seeds.
    """
    weights = zipf_weights(len(pool), exponent)
    total = sum(weights)
    cdf = list(itertools.accumulate(weight / total for weight in weights))
    picks = [
        pool[min(bisect.bisect_right(cdf, (i + 0.5) / count), len(pool) - 1)]
        for i in range(count)
    ]
    rng.shuffle(picks)
    return picks


def poisson_schedule(
    rate: float, seconds: float, pool: list, exponent: float, rng: random.Random
) -> list[tuple[float, tuple]]:
    """Open-loop arrivals: ``(offset_seconds, query)`` pairs.

    Exponential gaps at ``rate`` per second, each arrival a Zipf draw
    over ``pool`` ranks.
    """
    weights = zipf_weights(len(pool), exponent)
    schedule: list[tuple[float, tuple]] = []
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= seconds:
            return schedule
        schedule.append((offset, rng.choices(pool, weights)[0]))


def _connected_without(graph, u, v) -> bool:
    """Whether ``v`` stays reachable from ``u`` once edge ``{u, v}`` is gone."""
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in graph.neighbors(x):
            if y == v and x == u:
                continue
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def next_delta(twin, ops: int, rng: random.Random) -> GraphDelta:
    """A connectivity-preserving ``ops``-edge delta, applied to ``twin``.

    Half bridgeless deletes, half triadic-closure inserts (an absent edge
    between two neighbours of one vertex).  ``twin`` is the benchmark's
    own dict graph; it is advanced to the post-delta graph so the next
    call draws against the new version.
    """
    nodes = sorted(twin.nodes())
    inserts: list[tuple] = []
    deletes: list[tuple] = []
    taken: set[frozenset] = set()
    while len(inserts) + len(deletes) < ops:
        if rng.random() < 0.5:
            u = nodes[rng.randrange(len(nodes))]
            wings = sorted(twin.neighbors(u))
            if not wings:
                continue
            v = wings[rng.randrange(len(wings))]
            if frozenset((u, v)) in taken or not _connected_without(twin, u, v):
                continue
            twin.remove_edge(u, v)
            deletes.append((u, v))
        else:
            pivot = nodes[rng.randrange(len(nodes))]
            wings = sorted(twin.neighbors(pivot))
            if len(wings) < 2:
                continue
            u, v = rng.sample(wings, 2)
            if twin.has_edge(u, v) or frozenset((u, v)) in taken:
                continue
            twin.add_edge(u, v)
            inserts.append((u, v))
        taken.add(frozenset((u, v)))
    return GraphDelta(inserts=tuple(inserts), deletes=tuple(deletes))
