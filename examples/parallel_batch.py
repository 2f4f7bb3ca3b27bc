"""Batch query answering: one service, then the shard ring in parallel (§6.6).

The paper notes Algorithm 1 parallelizes with a linear speedup: candidate
roots and whole queries are independent.  This example serves one batch
of queries twice — through one in-process
:class:`~repro.core.service.ConnectorService`, whose CSR index and caches
are shared by the whole batch (repeated queries are answered from cache),
and through a :class:`~repro.core.sharded.ShardedConnectorService`, which
spreads the distinct queries over persistent shard processes — and checks
that both return the same connectors, bit for bit.

Run with::

    python examples/parallel_batch.py
"""

from __future__ import annotations

import random
import time

from repro.core import ConnectorService, ShardedConnectorService
from repro.datasets import load_dataset
from repro.workloads import query_with_distance


def main() -> None:
    graph = load_dataset("oregon")
    print(f"oregon stand-in: {graph.num_nodes} vertices, "
          f"{graph.num_edges} edges\n")

    rng = random.Random(99)
    batch = [query_with_distance(graph, 5, 3.0, rng=rng) for _ in range(6)]
    batch += [batch[0], batch[2]]  # hot queries repeat in real traffic

    print(f"serving {len(batch)} requests ({len(batch) - 2} distinct):")
    service = ConnectorService(graph)
    started = time.perf_counter()
    results = service.solve_many(batch)
    service_seconds = time.perf_counter() - started
    for index, result in enumerate(results):
        print(f"  Q{index}: |Q|=5 -> |V(H)|={result.size:2d} "
              f"W={result.wiener_index:.0f} "
              f"added={sorted(result.added_nodes)[:4]}...")
    stats = service.stats()
    print(f"  one service : {service_seconds:.1f}s "
          f"({stats.result_hits} result-cache hits, "
          f"{stats.cached_roots} cached roots)")

    with ShardedConnectorService(graph, n_shards=2) as ring:
        started = time.perf_counter()
        sharded = ring.solve_many(batch)
        ring_seconds = time.perf_counter() - started
        routed = ring.stats().requests_routed
    identical = all(a.nodes == b.nodes for a, b in zip(results, sharded))
    print(f"  2-shard ring: {ring_seconds:.1f}s "
          f"({routed} sweeps routed, identical connectors: {identical})")


if __name__ == "__main__":
    main()
