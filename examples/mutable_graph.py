"""Versioned mutable graphs: mutate a live service, keep every warm cache.

The serving tower is no longer read-only.  This example walks the
mutation subsystem end to end, twice:

1. **in process** — warm a :class:`~repro.core.service.ConnectorService`
   on the football dataset, apply a :class:`~repro.core.versioned.GraphDelta`
   (one transfer in, one rivalry dropped), and watch the epoch bump, the
   scoped invalidation counters, and the answers change *correctly*:
   bit-identical to a cold solve on the mutated graph;
2. **over the wire** — launch ``repro serve`` as a real daemon, send the
   pure-JSON ``mutate`` op through
   :meth:`~repro.serving.server.AsyncConnectorClient.mutate`, and verify
   the epoch in the daemon's ``stats`` plus warm cache hits that
   survived the delta.

Run with::

    python examples/mutable_graph.py
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import re
import subprocess
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = str(_SRC) + os.pathsep + _ENV.get("PYTHONPATH", "")


def pick_delta(graph):
    """One insert of an absent pair + one delete of a non-bridge edge.

    Both picked from the *high* end of the node ordering, far from the
    example's query over the first few nodes — a delta that stays out of
    a root's BFS neighbourhood is exactly the case scoped invalidation
    exists for, so the retention counters below have something to keep.
    """
    from repro.core.versioned import GraphDelta

    nodes = sorted(graph.nodes(), reverse=True)
    insert = next(
        (v, u)
        for u in nodes
        for v in nodes
        if v < u and not graph.has_edge(u, v)
    )
    delete = next(
        (u, v) for u, v in sorted(graph.edges(), reverse=True)
        if graph.degree(u) > 1 and graph.degree(v) > 1
    )
    return GraphDelta(inserts=(insert,), deletes=(delete,))


def in_process() -> None:
    from repro.core.service import ConnectorService
    from repro.core.wiener_steiner import wiener_steiner
    from repro.datasets import load_dataset

    graph = load_dataset("football")
    query = sorted(graph.nodes())[:4]
    service = ConnectorService(graph)

    result = service.solve(query)
    print(f"epoch {service.epoch}: connector for {query} -> "
          f"{sorted(result.nodes)[:6]}... (|S|={result.size})")
    service.solve(query)  # a warm repeat, straight from the result cache
    before = service.stats()

    delta = pick_delta(graph)
    epoch = service.apply_delta(delta)
    after = service.stats()
    print(f"applied {delta!r}: epoch {before.epoch} -> {epoch}")
    print(f"scoped invalidation: kept {after.entries_retained} cache "
          f"entries, evicted {after.entries_invalidated} "
          f"({after.score_cache_size} score entries still warm)")

    # The identity contract restates per epoch: the warm, mutated service
    # answers exactly like a cold one-shot solve on the mutated graph.
    mutated = graph.copy()
    delta.apply_to_graph(mutated)
    warm = service.solve(query)
    cold = wiener_steiner(mutated, query)
    assert warm.nodes == cold.nodes and warm.metadata["root"] == cold.metadata["root"]
    print(f"epoch {service.epoch}: warm answer == cold solve on the "
          f"mutated graph (|S|={warm.size})\n")


async def over_the_wire(port: int) -> None:
    from repro.serving.server import AsyncConnectorClient

    query = [0, 1, 2, 3]
    async with await AsyncConnectorClient.connect(port=port) as client:
        await client.solve(query)
        await client.solve(query)  # warm the daemon's caches

        # The mutate op is plain JSON, like every op on every wire.
        epoch = await client.mutate({"insert": [[0, 50]], "delete": []})
        print(f"daemon accepted the delta; now serving epoch {epoch}")

        document = await client.solve(query)
        stats = await client.stats()
        service = stats["service"]
        print(f"stats: epoch={service['epoch']}, "
              f"retained={service['entries_retained']}, "
              f"invalidated={service['entries_invalidated']}, "
              f"score hits so far={service['score_hits']}")
        print(f"post-mutate connector for {query}: {document['nodes']} "
              f"(W = {document['wiener_index']:.0f})")
        await client.shutdown_server()


def main() -> None:
    print("— in process " + "—" * 50)
    in_process()

    print("— over the wire " + "—" * 47)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "football", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    try:
        port = None
        for line in server.stdout:
            print(f"[server] {line.rstrip()}")
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise RuntimeError("repro serve never announced its port")
        asyncio.run(over_the_wire(port))
        for line in server.stdout:
            print(f"[server] {line.rstrip()}")
        server.wait(timeout=30)
        print(f"server exited with code {server.returncode}")
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    main()
