"""Importable helpers shared across test modules.

These used to live in ``tests/conftest.py`` and be imported with
``from conftest import ...``, which breaks as soon as pytest's rootdir
contains *another* conftest (the benchmark harness has one): ``conftest``
then resolves to whichever file was loaded first.  A plain module with a
unique name has no such ambiguity — ``pyproject.toml`` puts ``tests/`` on
``pythonpath`` so ``from helpers import ...`` always works.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
from contextlib import contextmanager

from repro.core.service import ConnectorService
from repro.core.versioned import GraphDelta
from repro.graphs.generators import connectify, erdos_renyi
from repro.graphs.graph import Graph, WeightedGraph
from repro.serving.remote import ShardHostServer


def assert_no_orphan_processes(timeout: float = 5.0) -> None:
    """Every worker/shard process must be reaped within ``timeout`` seconds.

    The shared teardown yardstick of the multi-process serving layers: a
    test that closed a sharded service (directly, through a gateway, or
    through the TCP server) asserts nothing survived it.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:  # pragma: no cover - failure path
            raise AssertionError(
                f"orphaned worker processes: {multiprocessing.active_children()}"
            )
        time.sleep(0.01)


def spawn_shard_host(
    dataset: str, timeout: float = 30.0, port: int = 0
) -> tuple[subprocess.Popen, int]:
    """A real ``repro shard-host DATASET`` subprocess; returns (process, port).

    The shared spawn-and-parse-the-listening-line helper of the remote
    transport tests.  On success the caller owns the process
    (kill/communicate it in a ``finally``); the port comes from the
    daemon's parseable ``listening on 127.0.0.1:PORT`` line.  Pass a
    non-zero ``port`` to respawn a daemon at a known address (the
    kill-and-heal chaos tests revive a replica where the router expects
    it).  A daemon
    that exits, stays silent past ``timeout``, or prints an unexpected
    banner is killed here and reported as an AssertionError — a broken
    spawn must fail the test, never hang the suite or leak the child.
    """
    import threading

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-host", dataset,
         "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    # A watchdog rather than select-on-stdout: the daemon's banner and
    # listening lines may arrive in one pipe chunk, and selecting on a
    # *buffered* text stream would then stall on the fd while the wanted
    # line sits unread in the Python-level buffer.  Killing the child on
    # timeout turns the blocking readline into a clean EOF instead.
    timed_out = threading.Event()

    def _expire():
        timed_out.set()
        process.kill()

    watchdog = threading.Timer(timeout, _expire)
    watchdog.start()
    try:
        for line in process.stdout:
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if match:
                return process, int(match.group(1))
        if timed_out.is_set():
            raise AssertionError(
                f"shard host did not print its port within {timeout}s"
            )
        raise AssertionError(
            "shard host exited before printing its port: "
            f"{process.stderr.read()}"
        )
    except BaseException:
        process.kill()
        process.communicate()
        raise
    finally:
        watchdog.cancel()


@contextmanager
def shard_hosts(graph, count: int):
    """``count`` in-process shard-host daemons over replicas of ``graph``.

    Yields their ``"127.0.0.1:PORT"`` specs and closes every daemon on
    exit.
    """
    hosts = [
        ShardHostServer(ConnectorService(graph)).start() for _ in range(count)
    ]
    try:
        yield [f"127.0.0.1:{host.port}" for host in hosts]
    finally:
        for host in hosts:
            host.close()


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """A connected ER graph — helper shared by several test modules."""
    local = random.Random(seed)
    return connectify(erdos_renyi(n, p, rng=local), rng=local)


def random_weighted_graph(n: int, num_edges: int, seed: int) -> WeightedGraph:
    """A random multigraph-free weighted graph with small integer-ish weights."""
    rng = random.Random(seed)
    graph = WeightedGraph()
    for _ in range(num_edges):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v, rng.choice([1.0, 2.0, 2.5, 3.0, 4.0]))
    return graph


def random_query_batch(graph: Graph, rng: random.Random, count: int,
                       lo: int = 2, hi: int = 5) -> list[list]:
    """``count`` random query sets of size ``lo..hi`` over ``graph``."""
    nodes = sorted(graph.nodes())
    return [rng.sample(nodes, rng.randint(lo, hi)) for _ in range(count)]


def _connected_after_removal(graph: Graph, u, v) -> bool:
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


def delta_for(graph: Graph, rng: random.Random, ops: int = 3) -> GraphDelta:
    """A random applicable, connectivity-preserving delta.

    Deletes only bridgeless existing edges and inserts only absent pairs,
    so the mutated graph stays connected and every query remains
    solvable — the fuzz compares answers, not error spellings.
    """
    edges = sorted(graph.edges(), key=repr)
    nodes = sorted(graph.nodes())
    inserts, deletes = [], []
    taken: set[frozenset] = set()
    scratch = graph.copy()
    for _ in range(ops):
        if rng.random() < 0.5:
            candidates = [
                edge for edge in edges
                if frozenset(edge) not in taken
                and _connected_after_removal(scratch, *edge)
            ]
            if candidates:
                u, v = candidates[rng.randrange(len(candidates))]
                deletes.append((u, v))
                scratch.remove_edge(u, v)
                taken.add(frozenset((u, v)))
                continue
        while True:
            u, v = rng.sample(nodes, 2)
            if not scratch.has_edge(u, v) and frozenset((u, v)) not in taken:
                break
        inserts.append((u, v))
        scratch.add_edge(u, v)
        taken.add(frozenset((u, v)))
    return GraphDelta(inserts=tuple(inserts), deletes=tuple(deletes))


def assert_connector_identical(result, reference) -> None:
    """Assert two solves are *bit-identical*, not merely equal-quality.

    The shared yardstick of every serving-layer identity test: the vertex
    sets must match, and so must the sweep trace the solver reports
    (chosen root, chosen λ, number of distinct candidates scored) — a
    cache or routing bug that changes *how* the answer was found fails
    here even when the answer happens to coincide.
    """
    assert result.nodes == reference.nodes
    assert result.query == reference.query
    for key in ("root", "lambda", "candidates"):
        assert result.metadata.get(key) == reference.metadata.get(key), key


def to_networkx(graph: Graph):
    """Convert to a networkx graph for oracle comparisons."""
    import networkx as nx

    oracle = nx.Graph()
    oracle.add_nodes_from(graph.nodes())
    oracle.add_edges_from(graph.edges())
    return oracle
