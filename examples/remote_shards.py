"""Multi-host sharding walkthrough: a router over two shard-host daemons.

The §6.6 scale-out story across *process boundaries the way it would
cross machine boundaries*: two ``repro shard-host`` daemons — each one
:class:`~repro.core.service.ConnectorService` replica with its own cache
layers, reachable only over TCP — fronted by one
:class:`~repro.core.sharded.ShardedConnectorService` router that
consistent-hashes queries onto them.  On a real cluster the only change
is the host names in ``--shards``.

The walkthrough runs the full story:

1. launch two ``repro shard-host football`` daemons as real subprocesses
   and parse their ports;
2. build a router with ``shards=["127.0.0.1:p1", "127.0.0.1:p2"]`` — the
   connect-time handshake compares graph digests, so a router pointed at
   a shard host serving a *different* graph is refused before any query
   is routed;
3. solve a batch (with duplicates) twice: the second pass is answered
   from the daemons' warm sweep caches, bit-identically;
4. gather per-shard cache statistics over the wire, mix a local shard
   (a child process on a socketpair, speaking the same wire) into the
   same ring, and finally stop both daemons with the remote
   ``shutdown`` op — they exit 0 with nothing orphaned.

Run with::

    python examples/remote_shards.py
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

# Self-bootstrap (same pattern as the benchmarks): make `repro` importable
# here and in the spawned daemons, however this script is invoked.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = str(_SRC) + os.pathsep + _ENV.get("PYTHONPATH", "")

DATASET = "football"


def spawn_shard_host() -> tuple[subprocess.Popen, int]:
    """One `repro shard-host` daemon; returns (process, bound port)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-host", DATASET, "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    for line in process.stdout:
        print(f"[shard-host] {line.rstrip()}")
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if match:
            return process, int(match.group(1))
    raise RuntimeError("repro shard-host never announced its port")


def main() -> None:
    from repro.core.sharded import ShardedConnectorService
    from repro.core.wiener_steiner import wiener_steiner
    from repro.datasets import load_dataset
    from repro.serving.remote import shutdown_shard_host

    daemons = [spawn_shard_host() for _ in range(2)]
    addresses = [f"127.0.0.1:{port}" for _, port in daemons]
    graph = load_dataset(DATASET)
    queries = [[0, 1, 2], [3, 4], [0, 1, 2], [5, 6, 7], [8, 9]]
    try:
        print(f"\nrouter over {addresses} (handshake checks graph digests)")
        with ShardedConnectorService(graph, shards=addresses) as router:
            cold = router.solve_many(queries)
            warm = router.solve_many(queries)
            stats = router.stats()

        for query, result in zip(queries, cold):
            reference = wiener_steiner(graph, query)
            marker = "==" if result.nodes == reference.nodes else "!!"
            print(f"  query {query} -> shard {result.metadata['shard']}, "
                  f"connector of {len(result.nodes)} vertices {marker} "
                  "one-shot solver")
        assert all(a.nodes == b.nodes for a, b in zip(cold, warm))
        print(f"router: {stats.requests_routed} routed, "
              f"{stats.inflight_deduped} deduped in flight, "
              f"{stats.result_hits} answered from shard-host caches "
              f"(hit rate {stats.hit_rate():.0%})")
        for shard_id, shard in enumerate(stats.shards):
            print(f"  shard {shard_id}: {shard.queries_served} served, "
                  f"{shard.cached_roots} roots cached")

        print("\nmixing one local shard into the same ring...")
        with ShardedConnectorService(
            graph, shards=[addresses[0], "local"]
        ) as mixed:
            results = mixed.solve_many(queries)
            slots = [r.metadata["shard"] for r in results]
            print(f"  shard slot per query (slot 1 is local): {slots}")
            assert all(
                a.nodes == b.nodes for a, b in zip(results, cold)
            ), "mixed ring must stay bit-identical"

        print("\nstopping both daemons with the remote shutdown op...")
        for (process, port) in daemons:
            shutdown_shard_host("127.0.0.1", port)
            for line in process.stdout:
                print(f"[shard-host] {line.rstrip()}")
            process.wait(timeout=30)
            print(f"  daemon on :{port} exited with code {process.returncode}")
    finally:
        for process, _ in daemons:
            if process.poll() is None:
                process.kill()


if __name__ == "__main__":
    main()
