"""The mutation subsystem: canonical deltas, epochs, and tower-wide identity.

The contract under test is the **identity contract of the versioned
graph**: after any sequence of :class:`~repro.core.versioned.GraphDelta`
applications, every answer the tower returns — cold or warm, one process
or a replicated ring, local or remote shards, before or after a
failover — is bit-identical to a cold one-shot ``wiener_steiner`` solve
on the mutated graph.  Around that tentpole: unit tests for the delta
value type (canonicalization, digests, the pure-JSON wire form), the
graph mutation primitives it replays through, ``index_digest`` stability
properties under mutation, the defensive-copy regression (mutating a
submitted graph must not corrupt cached answers), epoch-mismatch typing,
and one chaos case — a replica killed around a mutate heals back to the
ring's epoch via catch-up deltas.
"""

from __future__ import annotations

import asyncio
import random
import socket
import subprocess
import sys
import time

import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    random_connected_graph,
    random_query_batch,
    shard_hosts,
    spawn_shard_host,
)
from oracle import make_service
from repro.core.gateway import AsyncGateway
from repro.core.options import SolveOptions
from repro.core.retry import BackoffPolicy
from repro.core.service import ConnectorService, service_from_payload
from repro.core.sharded import ShardLinkError, ShardedConnectorService
from repro.core.versioned import (
    GraphDelta,
    VersionedIndex,
    csr_has_edge,
    index_digest_of,
)
from repro.core.wiener_steiner import wiener_steiner
from repro.errors import DeltaError, EdgeNotFoundError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, WeightedGraph
from repro.serving.remote import RemoteShardTransport, ShardHostServer
from repro.serving.server import AsyncConnectorClient, GatewayServer, ServerError

#: Fast revival pacing for the chaos test; real deployments wait seconds.
FAST_BACKOFF = BackoffPolicy(base_delay=0.05, max_delay=0.3, jitter=0.0)


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=120))


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


# ----------------------------------------------------------------------
# GraphDelta: a canonical value type
# ----------------------------------------------------------------------
class TestGraphDelta:
    def test_canonicalizes_endpoint_and_op_order(self):
        delta = GraphDelta(inserts=((5, 2), (1, 0)), deletes=((9, 3),))
        assert delta.inserts == ((0, 1), (2, 5))
        assert delta.deletes == ((3, 9),)

    def test_same_mutation_compares_equal_and_shares_a_digest(self):
        a = GraphDelta(inserts=((5, 2), (1, 0)), reweights=((7, 4, 2),))
        b = GraphDelta(inserts=((0, 1), (2, 5)), reweights=((4, 7, 2.0),))
        assert a == b
        assert a.digest() == b.digest()

    def test_different_ops_on_the_same_edge_have_different_digests(self):
        insert = GraphDelta(inserts=((0, 1),))
        delete = GraphDelta(deletes=((0, 1),))
        reweight = GraphDelta(reweights=((0, 1, 2.0),))
        digests = {insert.digest(), delete.digest(), reweight.digest()}
        assert len(digests) == 3

    def test_one_op_per_edge(self):
        with pytest.raises(DeltaError, match="more than one delta op"):
            GraphDelta(inserts=((0, 1),), deletes=((1, 0),))
        with pytest.raises(DeltaError, match="more than one delta op"):
            GraphDelta(inserts=((0, 1), (1, 0)))

    def test_rejects_self_loops_empty_batches_negative_weights(self):
        with pytest.raises(DeltaError, match="self-loop"):
            GraphDelta(inserts=((3, 3),))
        with pytest.raises(DeltaError, match="at least one op"):
            GraphDelta()
        with pytest.raises(DeltaError, match="negative weight"):
            GraphDelta(reweights=((0, 1, -2.0),))

    def test_shape_helpers(self):
        delta = GraphDelta(
            inserts=((0, 1),), deletes=((2, 3),), reweights=((4, 5, 2.0),)
        )
        assert delta.num_ops == 3
        assert delta.touched_edges() == [(0, 1), (2, 3), (4, 5)]
        assert delta.touched_nodes() == {0, 1, 2, 3, 4, 5}

    def test_payload_round_trip(self):
        delta = GraphDelta(
            inserts=((5, 2),), deletes=((1, 0),), reweights=((7, 4, 2),)
        )
        payload = delta.to_payload()
        assert payload == {
            "insert": [[2, 5]],
            "delete": [[0, 1]],
            "reweight": [[4, 7, 2.0]],
        }
        assert GraphDelta.from_payload(payload) == delta

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"inserts": [[0, 1]]},  # unknown key (the op names are singular)
            {"insert": [[0, 1, 2]]},
            {"insert": [0]},
            {"delete": ["uv"]},
            {"reweight": [[0, 1]]},
        ],
    )
    def test_malformed_payloads_are_rejected(self, payload):
        with pytest.raises(DeltaError):
            GraphDelta.from_payload(payload)


# ----------------------------------------------------------------------
# Graph mutation primitives (the ops a delta replays through)
# ----------------------------------------------------------------------
class TestGraphMutationPrimitives:
    def test_graph_remove_edge(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        graph.remove_edge(1, 0)
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 1
        assert 0 in set(graph.nodes())  # endpoints survive their edges
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(0, 1)

    def test_weighted_remove_edge(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 3.0)
        graph.remove_edge(1, 0)
        assert not graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(0, 1)

    def test_weighted_set_weight_never_creates_edges(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.set_weight(1, 0, 5.0)
        assert graph.weight(0, 1) == 5.0
        with pytest.raises(EdgeNotFoundError):
            graph.set_weight(0, 2, 1.0)
        assert not graph.has_edge(0, 2)

    def test_delta_replay_on_weighted_graph(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 3.0)
        delta = GraphDelta(
            inserts=((0, 2),), deletes=((0, 1),), reweights=((1, 2, 7.0),)
        )
        delta.apply_to_weighted(graph)
        assert graph.weight(0, 2) == 1.0  # inserts lift to uniform weight
        assert graph.weight(1, 2) == 7.0
        assert not graph.has_edge(0, 1)

    def test_reweight_needs_a_weighted_graph(self):
        graph = Graph(edges=[(0, 1)])
        delta = GraphDelta(reweights=((0, 1, 2.0),))
        with pytest.raises(DeltaError, match="weighted"):
            delta.apply_to_graph(graph)
        with pytest.raises(DeltaError, match="weighted"):
            delta.apply_to_csr(CSRGraph.from_graph(graph))


# ----------------------------------------------------------------------
# Replay equivalence and all-or-nothing semantics across backends
# ----------------------------------------------------------------------
class TestDeltaReplayBackends:
    def test_dict_and_csr_replays_agree(self):
        rng = random.Random(101)
        graph = random_connected_graph(40, 0.12, seed=7)
        csr = CSRGraph.from_graph(graph)
        for _ in range(5):
            delta = delta_for(graph, rng)
            csr = delta.apply_to_csr(csr)
            delta.apply_to_graph(graph)
            assert index_digest_of(graph) == index_digest_of(csr=csr)
        # New endpoints were appended in one canonical order on both sides.
        assert list(csr.node_of) == list(graph.nodes())

    def test_new_nodes_get_identical_numbering_on_both_backends(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        csr = CSRGraph.from_graph(graph)
        delta = GraphDelta(inserts=((9, 2), (0, 7)))
        csr = delta.apply_to_csr(csr)
        delta.apply_to_graph(graph)
        assert list(csr.node_of) == list(graph.nodes())

    def test_all_or_nothing_on_every_backend(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        csr = CSRGraph.from_graph(graph)
        bad = GraphDelta(inserts=((0, 2),), deletes=((5, 6),))
        before = index_digest_of(graph)
        with pytest.raises(DeltaError, match="missing edge"):
            bad.apply_to_graph(graph)
        with pytest.raises(DeltaError, match="missing edge"):
            bad.apply_to_csr(csr)
        assert index_digest_of(graph) == before
        assert index_digest_of(csr=csr) == before
        assert not graph.has_edge(0, 2)
        assert not csr_has_edge(csr, 0, 2)

    def test_insert_existing_and_delete_missing_are_rejected(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(DeltaError, match="existing edge"):
            GraphDelta(inserts=((1, 0),)).apply_to_graph(graph)
        with pytest.raises(DeltaError, match="missing edge"):
            GraphDelta(deletes=((0, 2),)).apply_to_graph(graph)


# ----------------------------------------------------------------------
# VersionedIndex: epochs, catch-up history, alignment
# ----------------------------------------------------------------------
class TestVersionedIndex:
    def test_epochs_count_and_digest_tracks_the_graph(self):
        graph = random_connected_graph(25, 0.2, seed=3)
        index = VersionedIndex(graph.copy())
        assert index.epoch == 0
        rng = random.Random(5)
        deltas = [delta_for(index.graph, rng) for _ in range(1)]
        assert index.apply(deltas[0]) == 1
        # The digest is the mutated graph's digest, not the seed's.
        reference = graph.copy()
        deltas[0].apply_to_graph(reference)
        assert index.index_digest() == index_digest_of(reference)
        assert index.index_digest() != index_digest_of(graph)

    def test_graph_and_csr_views_describe_one_epoch(self):
        graph = random_connected_graph(25, 0.2, seed=9)
        index = VersionedIndex(graph.copy())
        assert not index.csr_built
        _ = index.csr  # force the lazy build, then mutate
        rng = random.Random(6)
        index.apply(delta_for(index.graph, rng))
        assert index_digest_of(index.graph) == index_digest_of(csr=index.csr)

    def test_apply_is_all_or_nothing(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        index = VersionedIndex(graph)
        _ = index.csr
        bad = GraphDelta(inserts=((0, 2),), deletes=((7, 8),))
        with pytest.raises(DeltaError):
            index.apply(bad)
        assert index.epoch == 0
        assert not graph.has_edge(0, 2)
        assert not csr_has_edge(index.csr, 0, 2)
        with pytest.raises(DeltaError, match="takes a GraphDelta"):
            index.apply({"insert": [[0, 2]]})

    def test_deltas_since_semantics(self):
        graph = random_connected_graph(25, 0.2, seed=11)
        index = VersionedIndex(graph.copy())
        rng = random.Random(12)
        applied = []
        for _ in range(3):
            delta = delta_for(index.graph, rng)
            index.apply(delta)
            applied.append(delta)
        assert index.deltas_since(3) == ()  # up-to-date peer
        assert index.deltas_since(1) == tuple(applied[1:])  # oldest first
        assert index.deltas_since(0) == tuple(applied)
        assert index.deltas_since(4) is None  # peer is ahead: diverged
        behind = VersionedIndex(graph.copy(), epoch=5)
        assert behind.deltas_since(3) is None  # before the retained window

    def test_align_renumbers_without_touching_content(self):
        graph = random_connected_graph(25, 0.2, seed=13)
        index = VersionedIndex(graph.copy())
        digest = index.index_digest()
        index.align(7)
        assert index.epoch == 7
        assert index.index_digest() == digest
        assert index.deltas_since(7) == ()

    def test_arrays_only_index_mutates_without_a_graph(self):
        graph = random_connected_graph(25, 0.2, seed=17)
        index = VersionedIndex(csr=CSRGraph.from_graph(graph))
        rng = random.Random(18)
        delta = delta_for(graph, rng)
        index.apply(delta)
        delta.apply_to_graph(graph)
        assert index.index_digest() == index_digest_of(graph)
        with pytest.raises(GraphError):
            VersionedIndex()


# ----------------------------------------------------------------------
# index_digest properties under mutation (dict vs CSR, cross-process)
# ----------------------------------------------------------------------
class TestIndexDigestProperties:
    def test_any_single_op_changes_the_digest(self):
        rng = random.Random(23)
        graph = random_connected_graph(30, 0.15, seed=23)
        baseline = index_digest_of(graph)
        edges = sorted(graph.edges(), key=repr)
        nodes = sorted(graph.nodes())
        for _ in range(10):
            probe = graph.copy()
            if rng.random() < 0.5:
                u, v = edges[rng.randrange(len(edges))]
                GraphDelta(deletes=((u, v),)).apply_to_graph(probe)
            else:
                while True:
                    u, v = rng.sample(nodes, 2)
                    if not graph.has_edge(u, v):
                        break
                GraphDelta(inserts=((u, v),)).apply_to_graph(probe)
            assert index_digest_of(probe) != baseline

    def test_digest_agrees_across_backends_under_mutation(self):
        """A graph-holding service and an arrays-only replica of it digest
        identically at every epoch."""
        rng = random.Random(29)
        dict_service = ConnectorService(random_connected_graph(30, 0.15, 29))
        csr_service = service_from_payload(dict_service.worker_payload())
        assert dict_service.index_digest() == csr_service.index_digest()
        for _ in range(3):
            delta = delta_for(dict_service.graph, rng)
            dict_service.apply_delta(delta)
            csr_service.apply_delta(delta)
            assert dict_service.index_digest() == csr_service.index_digest()

    def test_digest_is_stable_across_processes(self):
        graph = random_connected_graph(20, 0.2, seed=31)
        delta = GraphDelta(deletes=(sorted(graph.edges(), key=repr)[0],))
        service = ConnectorService(graph)
        service.apply_delta(delta)
        script = (
            "import random\n"
            "from helpers import random_connected_graph\n"
            "from repro.core.service import ConnectorService\n"
            "from repro.core.versioned import GraphDelta\n"
            "graph = random_connected_graph(20, 0.2, seed=31)\n"
            "delta = GraphDelta(deletes=(sorted(graph.edges(), key=repr)[0],))\n"
            "service = ConnectorService(graph)\n"
            "service.apply_delta(delta)\n"
            "print(service.index_digest(), delta.digest())\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=None,
            env=_hash_randomized_env(),
            check=True,
        )
        remote_index, remote_delta = completed.stdout.split()
        assert remote_index == service.index_digest()
        assert remote_delta == delta.digest()


def _hash_randomized_env():
    import os

    env = dict(os.environ)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, tests])
    env["PYTHONHASHSEED"] = "random"
    return env


# ----------------------------------------------------------------------
# ConnectorService.apply_delta: scoped invalidation + the identity contract
# ----------------------------------------------------------------------
class TestServiceApplyDelta:
    def test_warm_answers_match_cold_solves_after_deltas(self):
        rng = random.Random(41)
        graph = random_connected_graph(40, 0.12, seed=41)
        reference = graph.copy()
        service = ConnectorService(graph)
        queries = random_query_batch(graph, rng, 8)
        for query in queries:
            service.solve(query)  # warm every cache layer
        for round_no in range(3):
            delta = delta_for(reference, rng)
            epoch = service.apply_delta(delta)
            assert epoch == round_no + 1
            delta.apply_to_graph(reference)
            for query in queries:
                assert_connector_identical(
                    service.solve(query), wiener_steiner(reference, query)
                )
        stats = service.stats()
        assert stats.epoch == 3
        assert stats.entries_invalidated > 0
        assert stats.entries_retained > 0

    def test_inapplicable_delta_leaves_the_service_untouched(self):
        graph = random_connected_graph(30, 0.15, seed=43)
        service = ConnectorService(graph)
        query = sorted(graph.nodes())[:3]
        before = service.solve(query)
        digest = service.index_digest()
        with pytest.raises(DeltaError):
            service.apply_delta(GraphDelta(deletes=(("no", "such"),)))
        with pytest.raises(DeltaError, match="takes a GraphDelta"):
            service.apply_delta({"delete": [[0, 1]]})
        assert service.epoch == 0
        assert service.index_digest() == digest
        assert_connector_identical(service.solve(query), before)

    def test_dict_and_csr_services_stay_bit_identical_under_mutation(self):
        """Replay parity across deltas: the dict oracle's scoped
        invalidation and the CSR engine's agree with a cold solve."""
        rng = random.Random(47)
        graph = random_connected_graph(40, 0.12, seed=47)
        dict_service = make_service(graph.copy(), engine="dict")
        csr_service = ConnectorService(graph.copy())
        queries = random_query_batch(graph, rng, 6)
        reference = graph.copy()
        for _ in range(2):
            delta = delta_for(reference, rng)
            dict_service.apply_delta(delta)
            csr_service.apply_delta(delta)
            delta.apply_to_graph(reference)
            for query in queries:
                cold = wiener_steiner(reference, query)
                assert_connector_identical(dict_service.solve(query), cold)
                assert_connector_identical(csr_service.solve(query), cold)

    def test_mutating_a_submitted_graph_does_not_corrupt_answers(self):
        # The defensive-copy regression: the service owns a private copy,
        # so callers mutating their graph afterwards (without going
        # through apply_delta) change nothing the service serves.
        graph = random_connected_graph(30, 0.15, seed=53)
        pristine = graph.copy()
        service = ConnectorService(graph)
        query = sorted(graph.nodes())[:4]
        before = service.solve(query)
        digest = service.index_digest()
        for u, v in list(graph.edges())[:5]:
            graph.remove_edge(u, v)
        graph.add_edge("rogue", sorted(pristine.nodes())[0])
        assert service.index_digest() == digest
        assert_connector_identical(service.solve(query), before)
        assert_connector_identical(
            service.solve(query), wiener_steiner(pristine, query)
        )

    def test_scoped_invalidation_retains_and_reuses_warm_entries(self):
        rng = random.Random(59)
        graph = random_connected_graph(60, 0.08, seed=59)
        service = ConnectorService(graph)
        queries = random_query_batch(graph, rng, 12)
        for query in queries:
            service.solve(query)
        before = service.stats()
        assert before.score_cache_size > 0 and before.cached_roots > 0
        delta = delta_for(graph, rng, ops=1)
        service.apply_delta(delta)
        stats = service.stats()
        # The expensive layers survive a small delta: most score entries
        # (pure functions of G[S], untouched unless the delta lands inside
        # S) and a positive number of root-BFS trees.
        assert stats.entries_retained >= before.score_cache_size // 2
        assert stats.score_cache_size > 0
        assert stats.entries_invalidated > 0  # candidates/results evicted
        # Retained entries are *reused*, not just counted: re-serving the
        # warm workload scores its candidate sets from cache.
        for query in queries:
            service.solve(query)
        assert service.stats().score_hits > before.score_hits


# ----------------------------------------------------------------------
# Tentpole fuzz: epoch identity through the whole serving tower
# ----------------------------------------------------------------------
#: Every valid (slots, replication) point of the required fuzz grid.
RING_SHAPES = [(1, 1), (2, 1), (2, 2), (5, 1), (5, 2)]


def _ring_params():
    params = []
    for transport in ("local", "socket", "mixed"):
        for slots, replication in RING_SHAPES:
            if transport == "mixed" and slots < 2:
                continue  # a one-slot ring cannot mix transports
            params.append((transport, slots, replication))
    return params


class TestShardedEpochIdentity:
    @pytest.mark.parametrize("transport,slots,replication", _ring_params())
    def test_interleaved_solves_and_mutates_stay_bit_identical(
        self, transport, slots, replication
    ):
        rng = random.Random(1000 * slots + 10 * replication)
        graph = random_connected_graph(36, 0.12, seed=slots * 7 + replication)
        reference = graph.copy()

        remote_count = {
            "local": 0, "socket": slots, "mixed": slots // 2
        }[transport]
        with shard_hosts(graph, remote_count) as addresses:
            shards = addresses + ["local"] * (slots - remote_count)
            service = ShardedConnectorService(
                graph,
                shards=shards,
                replication=replication,
                backoff=FAST_BACKOFF,
                heartbeat_interval=None,
            )
            try:
                for round_no in range(3):
                    queries = random_query_batch(graph, rng, 4)
                    for result, query in zip(
                        service.solve_many(queries), queries
                    ):
                        assert_connector_identical(
                            result, wiener_steiner(reference, query)
                        )
                    delta = delta_for(reference, rng, ops=2)
                    epoch = service.apply_delta(delta)
                    assert epoch == round_no + 1
                    delta.apply_to_graph(reference)
                    stats = service.stats()
                    assert stats.epoch == epoch
                    for shard in stats.shards:
                        assert shard.epoch == epoch
                # One last warm pass at the final epoch.
                queries = random_query_batch(graph, rng, 4)
                for result, query in zip(service.solve_many(queries), queries):
                    assert_connector_identical(
                        result, wiener_steiner(reference, query)
                    )
            finally:
                service.close()
        assert_no_orphan_processes()

    def test_pipe_replica_killed_before_mutate_revives_at_the_new_epoch(self):
        graph = random_connected_graph(36, 0.12, seed=61)
        reference = graph.copy()
        rng = random.Random(62)
        service = ShardedConnectorService(
            graph,
            shards=["local", "local"],
            replication=2,
            backoff=FAST_BACKOFF,
            heartbeat_interval=None,
        )
        try:
            service.solve_many(random_query_batch(graph, rng, 4))
            victim = service._shards[0]
            victim.process.terminate()
            victim.process.join(timeout=10)
            delta = delta_for(reference, rng)
            assert service.apply_delta(delta) == 1
            delta.apply_to_graph(reference)
            deadline = time.monotonic() + 30
            while service.stats().dead_shards and time.monotonic() < deadline:
                service.solve_many(random_query_batch(graph, rng, 2))
                time.sleep(0.05)
            stats = service.stats()
            assert not stats.dead_shards  # the slot revived...
            assert stats.reconnects >= 1
            assert stats.epoch == 1  # ...at the mutated epoch
            for shard in stats.shards:
                assert shard.epoch == 1
            queries = random_query_batch(graph, rng, 6)
            for result, query in zip(service.solve_many(queries), queries):
                assert_connector_identical(
                    result, wiener_steiner(reference, query)
                )
        finally:
            service.close()
        assert_no_orphan_processes()


# ----------------------------------------------------------------------
# Epoch mismatch is a typed refusal, never a stale answer
# ----------------------------------------------------------------------
class TestEpochMismatchTyping:
    def test_version_skewed_sweep_raises_shard_link_error(self):
        graph = random_connected_graph(24, 0.18, seed=67)
        service = ConnectorService(graph)
        with ShardHostServer(service) as host:
            transport = RemoteShardTransport(
                0, "127.0.0.1", host.port,
                digest=service.index_digest(), epoch=0,
            )
            try:
                query = tuple(sorted(graph.nodes())[:3])
                transport.submit(1, query, SolveOptions(), epoch=3)
                deadline = time.monotonic() + 10
                with pytest.raises(ShardLinkError, match="epoch"):
                    while time.monotonic() < deadline:
                        if transport.drain():
                            raise AssertionError(
                                "stale sweep was answered instead of refused"
                            )
                        time.sleep(0.01)
            finally:
                transport.stop()

    def test_catchup_heals_a_behind_daemon_and_refuses_a_diverged_one(self):
        graph = random_connected_graph(24, 0.18, seed=71)
        rng = random.Random(72)
        router = ConnectorService(graph.copy())
        for _ in range(2):
            router.apply_delta(delta_for(router.graph, rng))
        # A daemon that is simply *behind* (epoch 0, seed graph) heals:
        # the connect-time handshake replays the two missed deltas.
        stale_service = ConnectorService(graph.copy())
        with ShardHostServer(stale_service) as stale_host:
            transport = RemoteShardTransport(
                0, "127.0.0.1", stale_host.port,
                digest=router.index_digest,
                epoch=lambda: router.epoch,
                catchup=router.deltas_since,
            )
            try:
                assert stale_service.epoch == router.epoch == 2
                assert stale_service.index_digest() == router.index_digest()
            finally:
                transport.stop()
        # A daemon over a *different* graph is refused, not "caught up".
        other = random_connected_graph(24, 0.18, seed=99)
        with ShardHostServer(ConnectorService(other)) as diverged_host:
            from repro.core.sharded import ShardConnectError

            with pytest.raises(ShardConnectError):
                RemoteShardTransport(
                    0, "127.0.0.1", diverged_host.port,
                    digest=router.index_digest,
                    epoch=lambda: router.epoch,
                    catchup=router.deltas_since,
                )


# ----------------------------------------------------------------------
# Gateway + TCP server: amutate drains windows, mutate op is pure JSON
# ----------------------------------------------------------------------
class TestGatewayMutation:
    def test_amutate_and_post_mutate_solves_are_identical(self):
        graph = random_connected_graph(30, 0.15, seed=73)
        reference = graph.copy()
        rng = random.Random(74)
        queries = random_query_batch(graph, rng, 5)
        delta = delta_for(graph, rng)

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service, max_batch=8, max_wait_ms=2.0)
            try:
                before = await asyncio.gather(
                    *(gateway.asolve(query) for query in queries)
                )
                epoch = await gateway.amutate(delta)
                after = await asyncio.gather(
                    *(gateway.asolve(query) for query in queries)
                )
                return before, epoch, after
            finally:
                await gateway.aclose()

        before, epoch, after = run(scenario())
        assert epoch == 1
        for result, query in zip(before, queries):
            assert_connector_identical(result, wiener_steiner(reference, query))
        delta.apply_to_graph(reference)
        for result, query in zip(after, queries):
            assert_connector_identical(result, wiener_steiner(reference, query))

    def test_mutate_op_over_tcp_is_pure_json_and_validated(self):
        graph = random_connected_graph(30, 0.15, seed=79)
        reference = graph.copy()
        rng = random.Random(80)
        query = sorted(graph.nodes())[:4]
        delta = delta_for(graph, rng)

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service, max_batch=8, max_wait_ms=2.0)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    client = await AsyncConnectorClient.connect(
                        port=server.port
                    )
                    async with client:
                        with pytest.raises(ServerError) as bad:
                            await client.mutate({"bogus-key": []})
                        epoch = await client.mutate(delta.to_payload())
                        document = await client.solve(query)
                        stats = await client.stats()
                return bad.value, epoch, document, stats
            finally:
                await gateway.aclose()

        bad, epoch, document, stats = run(scenario())
        assert "bogus-key" in str(bad)
        assert epoch == 1
        assert stats["service"]["epoch"] == 1
        delta.apply_to_graph(reference)
        cold = wiener_steiner(reference, query)
        assert document["nodes"] == sorted(cold.nodes)
        assert document["metadata"]["root"] == cold.metadata["root"]
        assert document["metadata"]["lambda"] == cold.metadata["lambda"]


# ----------------------------------------------------------------------
# Chaos: a replica killed around a mutate heals via catch-up deltas
# ----------------------------------------------------------------------
class TestMutationChaos:
    def test_killed_remote_replica_heals_to_the_ring_epoch_via_catchup(self):
        from repro.datasets import load_dataset

        graph = load_dataset("football")
        reference = graph.copy()
        rng = random.Random(83)
        process, port = spawn_shard_host("football")
        service = None
        respawned = None
        try:
            service = ShardedConnectorService(
                graph,
                shards=[f"127.0.0.1:{port}", "local"],
                replication=2,
                backoff=FAST_BACKOFF,
                heartbeat_interval=None,
            )
            service.solve_many(random_query_batch(graph, rng, 3))
            # Kill the remote replica, then mutate while it is down: the
            # scatter marks the slot dead and the ring advances without it.
            process.terminate()
            process.communicate(timeout=10)
            delta = delta_for(reference, rng)
            assert service.apply_delta(delta) == 1
            delta.apply_to_graph(reference)
            queries = random_query_batch(graph, rng, 3)
            for result, query in zip(service.solve_many(queries), queries):
                assert_connector_identical(
                    result, wiener_steiner(reference, query)
                )
            # Revive a cold daemon at the same address: it wakes at epoch
            # 0 with the seed graph, and reconnect must bridge the gap by
            # replaying the catch-up suffix, not accept a stale replica.
            respawned, _ = spawn_shard_host("football", port=port)
            deadline = time.monotonic() + 60
            while service.stats().dead_shards and time.monotonic() < deadline:
                service.solve_many(random_query_batch(graph, rng, 2))
                time.sleep(0.1)
            stats = service.stats()
            assert not stats.dead_shards
            assert stats.reconnects >= 1
            assert stats.epoch == 1
            for shard in stats.shards:
                assert shard.epoch == 1  # the healed daemon adopted epoch 1
            queries = random_query_batch(graph, rng, 6)
            for result, query in zip(service.solve_many(queries), queries):
                assert_connector_identical(
                    result, wiener_steiner(reference, query)
                )
        finally:
            if service is not None:
                service.close()
            for child in (process, respawned):
                if child is not None and child.poll() is None:
                    child.kill()
                    child.communicate()
        assert_no_orphan_processes()
