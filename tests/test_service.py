"""Property tests for the ConnectorService serving layer.

The contract under test is the identity contract of
:mod:`repro.core.service`: ``ConnectorService.solve`` / ``solve_many`` —
in-process or on the shard ring, cold or warm caches, before and after
LRU eviction, on the CSR engine or with the dict oracle of
``tests/oracle.py`` swapped in — must return connectors *identical* to
the one-shot ``wiener_steiner`` on random corpora, while the
:class:`SolveOptions` / :class:`Method` layer must dispatch every method
uniformly.
"""

import math
import random

import numpy as np
import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    delta_for,
    random_connected_graph,
    random_query_batch,
)
from oracle import ENGINES, make_service, oracle_solve
from repro.baselines import METHODS, steiner_connector
from repro.core.lru import LRUCache
from repro.core.options import FunctionMethod, Method, SolveOptions
from repro.core.service import (
    ConnectorService,
    _lambda_grid,
    _root_list,
    service_from_payload,
)
from repro.core.sharded import ShardedConnectorService
from repro.core.wiener_steiner import wiener_steiner
from repro.datasets import load_dataset
from repro.errors import DisconnectedGraphError, GraphError, InvalidQueryError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph


class TestSolveOptions:
    def test_defaults(self):
        options = SolveOptions()
        assert options.method == "ws-q"
        assert options.selection == "auto"
        assert not hasattr(options, "backend")  # one engine, no choice
        assert not hasattr(options, "prune")  # the sweep has no pruning

    def test_normalizes_iterables_and_stays_hashable(self):
        options = SolveOptions(roots=[1, 2], lambda_values=[0.5, 2.0])
        assert options.roots == (1, 2)
        assert options.lambda_values == (0.5, 2.0)
        assert hash(options) == hash(SolveOptions(roots=(1, 2),
                                                  lambda_values=(0.5, 2.0)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": -1.0},
            {"selection": "nope"},
            {"selection": ""},
            {"method": ""},
            {"lambda_values": ()},
            {"exact_threshold": -1},
            {"sample_sources": 0},
            {"beta": math.nan},
            {"lambda_values": (0.0,)},
            {"lambda_values": (1.0, -1.0)},
            {"lambda_values": (math.nan,)},
            {"lambda_values": (math.inf,)},
            {"adjust": 1},
            {"beta": True},
            {"lambda_values": (True,)},
            {"sample_seed": False},
            {"beta": "1"},
            {"exact_threshold": "600"},
            {"sample_sources": 2.5},
        ],
    )
    def test_validates_eagerly(self, kwargs):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)

    def test_numpy_int_digests_like_int(self):
        """Equal options must digest equal: the ring and the gateway's
        coalescer key on the digest, the caches on equality."""
        options = SolveOptions(exact_threshold=np.int64(600))
        assert options == SolveOptions()
        assert options.stable_digest() == SolveOptions().stable_digest()

    def test_replace_revalidates(self):
        options = SolveOptions()
        assert options.replace(beta=0.5).beta == 0.5
        with pytest.raises(ValueError):
            options.replace(selection="bogus")


class TestServiceIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_one_shot_on_random_corpus(self, engine):
        rng = random.Random(101)
        for seed in range(4):
            g = random_connected_graph(rng.randint(28, 64), 0.09, seed)
            service = make_service(g, engine=engine)
            for query in random_query_batch(g, rng, 3):
                assert_connector_identical(
                    service.solve(query), wiener_steiner(g, query)
                )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_cache_is_identical_and_hits(self, engine):
        g = random_connected_graph(40, 0.09, 7)
        rng = random.Random(7)
        service = make_service(g, engine=engine)
        query = rng.sample(sorted(g.nodes()), 4)
        cold = service.solve(query)
        warm = service.solve(query)
        assert warm is cold  # served straight from the result cache
        assert service.stats().result_hits == 1
        assert_connector_identical(warm, wiener_steiner(g, query))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_identical_after_lru_eviction(self, engine):
        """Tiny LRU bounds force constant eviction; answers must not change."""
        g = random_connected_graph(36, 0.1, 13)
        rng = random.Random(13)
        service = make_service(
            g,
            engine=engine,
            max_cached_roots=1,
            max_cached_candidates=2,
            max_cached_scores=2,
            max_cached_results=1,
        )
        queries = random_query_batch(g, rng, 3)
        for _ in range(2):  # interleave so every cache layer churns
            for query in queries:
                assert_connector_identical(
                    service.solve(query), wiener_steiner(g, query)
                )

    def test_overlapping_queries_reuse_roots(self):
        g = random_connected_graph(48, 0.09, 5)
        hot = sorted(g.nodes())[:6]
        service = ConnectorService(g)
        service.solve(hot[:4])
        before = service.stats()
        service.solve(hot[1:5])  # three shared roots
        after = service.stats()
        assert after.cached_roots <= 6
        assert after.candidate_misses > before.candidate_misses

    def test_solve_many_preserves_order_and_dedups(self):
        g = random_connected_graph(40, 0.09, 3)
        rng = random.Random(3)
        q1, q2 = random_query_batch(g, rng, 2)
        results = ConnectorService(g).solve_many([q1, q2, q1, q1])
        assert [sorted(r.query) for r in results] == [
            sorted(set(q1)), sorted(set(q2)), sorted(set(q1)), sorted(set(q1))
        ]
        assert results[2] is results[0]
        assert_connector_identical(results[0], wiener_steiner(g, q1))
        assert_connector_identical(results[1], wiener_steiner(g, q2))

    def test_single_vertex_query(self, triangle):
        result = ConnectorService(triangle).solve([1])
        assert result.nodes == frozenset([1])

    def test_empty_query_raises(self, triangle):
        with pytest.raises(InvalidQueryError):
            ConnectorService(triangle).solve([])

    def test_unknown_vertex_raises(self, triangle):
        with pytest.raises(InvalidQueryError):
            ConnectorService(triangle).solve([0, 99])

    def test_empty_roots_raises(self, triangle):
        with pytest.raises(InvalidQueryError):
            ConnectorService(triangle).solve([0, 1], SolveOptions(roots=()))

    def test_unknown_root_raises(self, triangle):
        """An unknown root is a query error on a graph-backed service and
        on a bare-CSR replica alike, not a KeyError from the engine."""
        options = SolveOptions(roots=(0, 999))
        service = ConnectorService(triangle)
        with pytest.raises(InvalidQueryError, match="999"):
            service.solve([0, 1], options)
        replica = service_from_payload(service.worker_payload())
        with pytest.raises(InvalidQueryError, match="999"):
            replica.sweep([0, 1], options)

    def test_needs_graph_or_csr(self):
        with pytest.raises(GraphError):
            ConnectorService()

    def test_graph_and_csr_together_are_refused(self):
        """Given both, a service would sweep one graph and validate against
        the other: a path and a star once answered [0, 4] with a vertex
        the path does not have."""
        path = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
        star = CSRGraph.from_graph(Graph([(9, leaf) for leaf in range(5)]))
        with pytest.raises(ValueError, match="not both"):
            ConnectorService(path, csr=star)
        with pytest.raises(ValueError, match="not both"):
            ShardedConnectorService(path, csr=star, n_shards=1)
        assert_no_orphan_processes()

    def test_backends_identical_through_service(self):
        g = random_connected_graph(52, 0.08, 17)
        rng = random.Random(17)
        csr_service = ConnectorService(g)
        dict_service = make_service(g, engine="dict")
        for query in random_query_batch(g, rng, 3):
            a = csr_service.solve(query)
            b = dict_service.solve(query)
            assert a.nodes == b.nodes
            assert a.metadata["root"] == b.metadata["root"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_extended_roots_identical_to_oracle(self, engine, seed=29):
        """Roots beyond Lemma 5's query set widen the sweep.  One service
        serves every request, so later ones run on warm root and
        candidate caches; each answer must equal a cold oracle's."""
        rng = random.Random(seed)
        g = random_connected_graph(60, 0.07, seed)
        nodes = sorted(g.nodes())
        service = make_service(g, engine=engine)
        for _ in range(8):
            query = rng.sample(nodes, rng.randint(2, 4))
            roots = tuple(dict.fromkeys(query + rng.sample(nodes, 6)))
            for selection in ("a", "auto"):
                # A small exact_threshold sends larger candidates through
                # the proxy under "auto" instead of scoring them exactly.
                opts = SolveOptions(
                    roots=roots, selection=selection, exact_threshold=8
                )
                assert_connector_identical(
                    service.solve(query, opts),
                    make_service(g, opts, "dict").solve(query),
                )


class TestLRUPolicy:
    def test_evicts_the_least_recently_used_entry(self):
        """A hit refreshes recency, so a full cache evicts the entry
        touched longest ago, never the one just put."""
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]


class TestShardWorkerAPI:
    """The picklable shard-side surface: worker_payload -> service_from_payload
    -> sweep, the exact loop a persistent shard process runs."""

    def test_payload_round_trip_sweep_identical(self):
        g = random_connected_graph(40, 0.1, 83)
        rng = random.Random(83)
        query = rng.sample(sorted(g.nodes()), 4)
        parent = ConnectorService(g)
        replica = service_from_payload(parent.worker_payload())
        outcome = replica.sweep(query)
        reference = wiener_steiner(g, query)
        assert outcome.nodes == reference.nodes
        assert outcome.root == reference.metadata["root"]
        assert outcome.lam == reference.metadata["lambda"]
        assert outcome.candidates == reference.metadata["candidates"]

    def test_sweep_warm_reask_hits_result_cache(self):
        g = random_connected_graph(36, 0.1, 89)
        service = ConnectorService(g)
        query = sorted(g.nodes())[:4]
        cold = service.sweep(query)
        warm = service.sweep(query)
        assert warm is cold
        stats = service.stats()
        assert stats.result_hits == 1
        assert stats.queries_served == 2

    def test_sweep_and_solve_keys_do_not_collide(self):
        g = random_connected_graph(36, 0.1, 97)
        service = ConnectorService(g)
        query = sorted(g.nodes())[:3]
        outcome = service.sweep(query)
        result = service.solve(query)
        assert result.nodes == outcome.nodes
        # both cached, under distinct keys
        assert service.stats().result_cache_size == 2

    def test_payload_forwards_cache_limits(self):
        g = random_connected_graph(36, 0.1, 101)
        payload = ConnectorService(g).worker_payload(
            cache_limits={"max_cached_results": 1, "max_cached_roots": 1}
        )
        replica = service_from_payload(payload)
        for query in ([0, 1], [2, 3], [4, 5]):
            nodes = [sorted(g.nodes())[i] for i in query]
            replica.sweep(nodes)
        stats = replica.stats()
        assert stats.result_cache_size == 1
        assert stats.cached_roots <= 1


class TestParallelServing:
    """Parallel serving has one mechanism: the persistent shard ring."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_solve_many_parallel_matches_one_shot(self, engine):
        g = random_connected_graph(40, 0.1, 23)
        rng = random.Random(23)
        queries = random_query_batch(g, rng, 3, lo=2, hi=4)
        queries.append(queries[0])  # a duplicate the batch must dedupe
        reference = make_service(g, engine=engine)
        with ShardedConnectorService(g, n_shards=2) as ring:
            results = ring.solve_many(queries)
            assert ring.stats().inflight_deduped == 1
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert_connector_identical(result, reference.solve(query))
        assert results[-1] is results[0]
        assert results[0].metadata["sharded"] is True
        assert results[0].metadata["shards"] == 2
        assert_no_orphan_processes()

    def test_parallel_batch_larger_than_result_cache(self):
        """A result cache smaller than the batch must not lose results
        mid-call (the router holds the outcomes until the batch is
        assembled)."""
        g = random_connected_graph(36, 0.1, 67)
        rng = random.Random(67)
        queries = random_query_batch(g, rng, 4, lo=2, hi=3)
        with ShardedConnectorService(
            g, n_shards=2, max_cached_results=1
        ) as ring:
            results = ring.solve_many(queries)
        for query, result in zip(queries, results):
            assert result.nodes == wiener_steiner(g, query).nodes

    def test_parallel_cold_batch_reports_no_phantom_hits(self):
        g = random_connected_graph(36, 0.1, 73)
        rng = random.Random(73)
        queries = random_query_batch(g, rng, 3, lo=2, hi=3)
        distinct = len({frozenset(query) for query in queries})
        with ShardedConnectorService(g, n_shards=2) as ring:
            ring.solve_many(queries)
            stats = ring.stats()
        assert stats.result_hits == 0
        assert stats.hit_rate() == 0.0
        assert stats.queries_served == distinct

    def test_worker_fault_tears_pool_down_cleanly(self):
        """A fault inside a shard's sweep fails the call, leaves the ring
        serving, and closing the ring leaves no processes behind.  The
        fault is injected naturally: a query spanning components passes
        the router-side membership check and explodes only in the shard."""
        g = Graph([(0, 1), (1, 2), (2, 3), (10, 11), (11, 12)])
        with ShardedConnectorService(g, n_shards=2) as ring:
            with pytest.raises(DisconnectedGraphError):
                ring.solve_many([[0, 11], [0, 3], [1, 3]])
            # the ring itself must survive the failed batch
            [result] = ring.solve_many([[0, 3]])
            assert result.nodes == wiener_steiner(g, [0, 3]).nodes
        assert_no_orphan_processes()

    def test_parallel_skips_already_cached(self):
        g = random_connected_graph(36, 0.1, 29)
        rng = random.Random(29)
        query = rng.sample(sorted(g.nodes()), 4)
        with ShardedConnectorService(g, n_shards=2) as ring:
            first = ring.solve(query)
            before = ring.stats()
            again = ring.solve(query)
            after = ring.stats()
        assert_connector_identical(again, first)
        assert after.result_hits == before.result_hits + 1
        # answered from the shard's result cache: no new sweep pairs
        assert after.pairs_scored == before.pairs_scored


class TestSampledSelection:
    def test_backend_parity_when_sampling(self):
        """``exact_threshold=0`` forces the sampled estimator for every
        candidate; the engine and the oracle must still agree bit for bit."""
        options = SolveOptions(
            selection="sampled", exact_threshold=0, sample_sources=3
        )
        rng = random.Random(31)
        for seed in range(3):
            g = random_connected_graph(rng.randint(28, 56), 0.1, seed)
            query = rng.sample(sorted(g.nodes()), 4)
            a = wiener_steiner(g, query, selection="sampled")
            b = oracle_solve(g, query, selection="sampled")
            assert a.nodes == b.nodes
            a2 = ConnectorService(g, options).solve(query)
            b2 = make_service(g, options, engine="dict").solve(query)
            assert a2.nodes == b2.nodes

    def test_sampled_covering_sources_equals_exact(self):
        g = random_connected_graph(30, 0.12, 37)
        rng = random.Random(37)
        query = rng.sample(sorted(g.nodes()), 4)
        sampled = ConnectorService(
            g,
            SolveOptions(selection="sampled", exact_threshold=0,
                         sample_sources=10_000),
        ).solve(query)
        exact = wiener_steiner(g, query, selection="wiener")
        assert sampled.nodes == exact.nodes

    def test_wiener_index_sampled_csr_matches_dict(self, monkeypatch):
        import repro.graphs.wiener as wiener_mod

        g = random_connected_graph(150, 0.05, 41)
        csr_value = wiener_mod.wiener_index_sampled(
            g, num_sources=12, rng=random.Random(5)
        )
        monkeypatch.setattr(wiener_mod, "CSR_DISPATCH_THRESHOLD", 10**9)
        dict_value = wiener_mod.wiener_index_sampled(
            g, num_sources=12, rng=random.Random(5)
        )
        assert csr_value == dict_value


class TestMethodProtocol:
    def test_registry_satisfies_protocol(self):
        for tag, method in METHODS.items():
            assert isinstance(method, Method)
            assert method.name == tag

    def test_solve_equals_legacy_call(self):
        g = random_connected_graph(30, 0.12, 43)
        rng = random.Random(43)
        query = rng.sample(sorted(g.nodes()), 3)
        for tag, method in METHODS.items():
            assert method.solve(g, query).nodes == method(g, query).nodes

    def test_function_method_adapter(self):
        method = FunctionMethod("st", steiner_connector)
        g = random_connected_graph(24, 0.15, 47)
        query = sorted(g.nodes())[:3]
        assert method.solve(g, query, SolveOptions()).nodes == \
            steiner_connector(g, query).nodes

    def test_service_dispatches_baselines_uniformly(self):
        g = random_connected_graph(30, 0.12, 53)
        rng = random.Random(53)
        query = rng.sample(sorted(g.nodes()), 3)
        service = ConnectorService(g)
        for tag in METHODS:
            result = service.solve(query, SolveOptions(method=tag))
            assert result.nodes == METHODS[tag].solve(g, query).nodes
        # and the per-(query, options) result cache applies to baselines too
        again = service.solve(query, SolveOptions(method="st"))
        assert again is service.solve(query, SolveOptions(method="st"))

    def test_unknown_method_raises(self, triangle):
        with pytest.raises(ValueError):
            ConnectorService(triangle).solve(
                [0, 1], SolveOptions(method="frobnicate")
            )


#: The baseline methods: the service runs them on its per-epoch dict view.
BASELINES = ("st", "ppr", "cps", "ctp")
#: Two registry datasets and three seeded ER graphs.
PARITY_GRAPHS = ("football", "email", "er-11", "er-12", "er-13")


def _parity_case(name: str) -> tuple[Graph, list]:
    if name.startswith("er-"):
        seed = int(name[3:])
        graph = random_connected_graph(80, 0.06, seed)
    else:
        seed = 7
        graph = load_dataset(name)
    return graph, random_query_batch(graph, random.Random(seed), 3)


class TestBaselineParity:
    """``st``, ``ppr``, ``cps`` and ``ctp`` run on ``ConnectorService.graph``,
    the dict view a service materializes from its CSR arrays once per
    epoch.  Its nodes keep the original order, but neighbour sets can
    iterate differently; every answer must still equal the registry
    method's on the original graph, for graph-built and bare-CSR services
    alike, before and after a delta."""

    @staticmethod
    def _assert_parity(service, graph, queries):
        for method in BASELINES:
            for query in queries:
                served = service.solve(query, SolveOptions(method=method))
                expected = METHODS[method].solve(graph, query)
                assert served.nodes == expected.nodes, (method, query)

    @pytest.mark.parametrize("name", PARITY_GRAPHS)
    def test_graph_service_matches_registry(self, name):
        graph, queries = _parity_case(name)
        self._assert_parity(ConnectorService(graph), graph, queries)

    @pytest.mark.parametrize("name", PARITY_GRAPHS)
    def test_bare_csr_service_matches_registry(self, name):
        graph, queries = _parity_case(name)
        service = ConnectorService(None, csr=CSRGraph.from_graph(graph))
        self._assert_parity(service, graph, queries)

    @pytest.mark.parametrize("name", PARITY_GRAPHS)
    def test_parity_holds_after_a_delta(self, name):
        """After one delta, against the registry on a dict twin replayed
        with ``apply_to_graph``."""
        graph, queries = _parity_case(name)
        built = ConnectorService(graph)
        bare = ConnectorService(None, csr=CSRGraph.from_graph(graph))
        for service in (built, bare):
            service.solve(queries[0], SolveOptions(method="st"))
        before = built.graph
        delta = delta_for(graph, random.Random(len(name)))
        twin = graph.copy()
        delta.apply_to_graph(twin)
        for service in (built, bare):
            service.apply_delta(delta)
            self._assert_parity(service, twin, queries)
        assert built.graph is not before


class TestBatchedServingBeatsOneShot:
    def test_solve_many_faster_and_bit_identical(self):
        """The acceptance contract at test scale: a skewed request batch is
        served faster than independent ``wiener_steiner`` calls and returns
        bit-identical connectors.  (The full 10k/50k reference measurement
        is the ``serving`` scenario of ``benchmarks/bench_scenarios.py``,
        recorded in ``BENCH_serving.json``.)

        The margin asserted here is deliberately loose (just *faster*): the
        service does a deterministic fraction of the one-shot work — 4
        distinct sweeps instead of 12 — so only pathological scheduler
        noise could flip the comparison.
        """
        import time

        g = random_connected_graph(400, 0.008, 71)
        rng = random.Random(71)
        pool = [rng.sample(sorted(g.nodes()), 5) for _ in range(4)]
        requests = pool + [pool[rng.randrange(4)] for _ in range(8)]
        rng.shuffle(requests)

        started = time.perf_counter()
        one_shot = [wiener_steiner(g, query) for query in requests]
        one_shot_seconds = time.perf_counter() - started

        service = ConnectorService(g)
        started = time.perf_counter()
        served = service.solve_many(requests)
        serving_seconds = time.perf_counter() - started

        for a, b in zip(one_shot, served):
            assert a.nodes == b.nodes
        assert service.stats().result_hits == 8
        assert serving_seconds < one_shot_seconds


class TestServiceLifecycleAndStats:
    """The shared lifecycle surface and the hit_rate() observability helper."""

    def test_context_manager_is_a_noop_close(self):
        g = random_connected_graph(20, 0.2, 71)
        with ConnectorService(g) as service:
            result = service.solve([0, 1])
        # close() holds no processes: the service stays fully usable, so
        # `with` is safe sugar for scoped construction at every call site.
        assert_connector_identical(service.solve([0, 1]), result)

    def test_hit_rate_zero_lookup_guard(self):
        g = random_connected_graph(16, 0.25, 73)
        stats = ConnectorService(g).stats()
        for layer in ("result", "candidate", "score"):
            assert stats.hit_rate(layer) == 0.0

    def test_hit_rate_counts_warm_reasks(self):
        g = random_connected_graph(24, 0.18, 77)
        service = ConnectorService(g)
        queries = random_query_batch(g, random.Random(7), 4)
        service.solve_many(queries + queries)
        stats = service.stats()
        assert stats.hit_rate() == stats.result_hits / (
            stats.result_hits + stats.result_misses
        )
        assert stats.hit_rate() >= 0.5  # every re-ask is a warm hit
        assert 0.0 <= stats.hit_rate("candidate") <= 1.0
        assert 0.0 <= stats.hit_rate("score") <= 1.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pairs_scored_counts_every_visited_pair(self, engine):
        """Each cold sweep adds |grid| x |roots| pairs; warm re-solves are
        answered from the result cache and add none."""
        g = random_connected_graph(45, 0.1, 13)
        rng = random.Random(13)
        service = make_service(g, engine=engine)
        queries = random_query_batch(g, rng, 7, lo=2, hi=5)
        expected = 0
        for query in queries:
            service.solve(query)
            grid = _lambda_grid(g.num_nodes, service.options.beta)
            roots = _root_list(service.options, frozenset(query))
            expected += len(grid) * len(roots)
        assert service.stats().pairs_scored == expected
        for query in queries:
            service.solve(query)
        assert service.stats().pairs_scored == expected

    def test_hit_rate_rejects_unknown_layer(self):
        g = random_connected_graph(12, 0.3, 79)
        with pytest.raises(ValueError, match="unknown cache layer"):
            ConnectorService(g).stats().hit_rate("bfs")
