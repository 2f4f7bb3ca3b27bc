"""Property/fuzz tests for the sharded serving layer.

The contract under test is the identity contract of
:mod:`repro.core.sharded`: for shard counts 1, 2 and 5, cold or warm,
under tiny LRU bounds, and across mid-stream :meth:`resize` calls, every
connector :class:`ShardedConnectorService` returns must be *bit-identical*
(same vertex set, same sweep trace) to the one-shot ``wiener_steiner`` and
to a single in-process :class:`ConnectorService` — the external identity
check that makes a distributed cache trustworthy.  Alongside it: the
consistent-hash ring's stability/movement properties and the
:class:`SolveOptions` stable-key layer the router hashes on.
"""

import dataclasses
import json
import random
import socket

import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    random_connected_graph,
    random_query_batch,
)
from repro.baselines import METHODS
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService
from repro.core.sharded import (
    ShardedConnectorService,
    _HashRing,
    _wire_options,
    request_digest,
)
from repro.core.wiener_steiner import wiener_steiner
from repro.errors import DisconnectedGraphError, InvalidQueryError
from repro.graphs.graph import Graph
from repro.serving.protocol import options_from_payload

SHARD_COUNTS = (1, 2, 5)


class TestHashRing:
    def test_lookup_is_deterministic_across_instances(self):
        ring_a = _HashRing(range(4))
        ring_b = _HashRing(range(4))
        options = SolveOptions()
        for seed in range(50):
            digest = request_digest(frozenset([seed, seed + 1]), options)
            assert ring_a.lookup(digest) == ring_b.lookup(digest)

    def test_every_shard_owns_keys(self):
        ring = _HashRing(range(5))
        options = SolveOptions()
        owners = {
            ring.lookup(request_digest(frozenset([i, i + 1, i + 2]), options))
            for i in range(200)
        }
        assert owners == set(range(5))

    def test_growing_moves_about_one_nth_of_the_keys(self):
        """The consistent-hashing property resize() relies on: adding one
        shard to four reassigns roughly 1/5 of the key space, not all of it."""
        small, grown = _HashRing(range(4)), _HashRing(range(5))
        options = SolveOptions()
        digests = [
            request_digest(frozenset([i, i * 7 + 1]), options)
            for i in range(400)
        ]
        moved = sum(
            1 for d in digests if small.lookup(d) != grown.lookup(d)
        )
        assert moved > 0  # the new shard takes ownership of something
        assert moved < len(digests) / 2  # ...but nowhere near a full reshuffle
        # and every key that moved, moved *to* the new shard
        for d in digests:
            if small.lookup(d) != grown.lookup(d):
                assert grown.lookup(d) == 4

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            _HashRing([])


class TestShardedIdentity:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_fuzz_matches_one_shot_and_single_service(self, n_shards):
        """The headline fuzz: random corpora × random batches × shard counts,
        checked against both references."""
        rng = random.Random(1000 + n_shards)
        for seed in range(3):
            g = random_connected_graph(rng.randint(26, 56), 0.1, seed + 77)
            batch = random_query_batch(g, rng, 4, lo=2, hi=5)
            batch.append(batch[0])  # an in-flight duplicate
            single = ConnectorService(g)
            with ShardedConnectorService(g, n_shards=n_shards) as sharded:
                results = sharded.solve_many(batch)
                references = single.solve_many(batch)
                assert len(results) == len(batch)
                for query, result, reference in zip(batch, results, references):
                    assert_connector_identical(result, reference)
                    assert_connector_identical(result, wiener_steiner(g, query))
                    assert result.metadata["sharded"] is True
                    assert result.metadata["shards"] == n_shards
                    assert 0 <= result.metadata["shard"] < n_shards
        assert_no_orphan_processes()

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_warm_reask_is_identical_and_hits_shard_caches(self, n_shards):
        g = random_connected_graph(40, 0.09, 11)
        rng = random.Random(11)
        batch = random_query_batch(g, rng, 3)
        with ShardedConnectorService(g, n_shards=n_shards) as sharded:
            cold = sharded.solve_many(batch)
            warm = sharded.solve_many(batch)
            for a, b in zip(cold, warm):
                assert_connector_identical(a, b)
            stats = sharded.stats()
            # every warm request was answered from a shard's sweep cache
            assert stats.result_hits == len(batch)

    def test_identical_under_tiny_lru_bounds(self):
        """Tiny per-shard LRU bounds force constant eviction on every cache
        layer; answers must never change."""
        g = random_connected_graph(36, 0.1, 13)
        rng = random.Random(13)
        batch = random_query_batch(g, rng, 3)
        with ShardedConnectorService(
            g,
            n_shards=2,
            max_cached_roots=1,
            max_cached_candidates=2,
            max_cached_scores=2,
            max_cached_results=1,
        ) as sharded:
            for _ in range(2):  # interleave so every layer churns
                for query in batch:
                    assert_connector_identical(
                        sharded.solve(query), wiener_steiner(g, query)
                    )
            stats = sharded.stats()
            for shard_stats in stats.shards:
                assert shard_stats.result_cache_size <= 1
                assert shard_stats.candidate_cache_size <= 2
                assert shard_stats.score_cache_size <= 2
                assert shard_stats.cached_roots <= 1

    @pytest.mark.parametrize("path", [(2, 5), (5, 2), (2, 1), (1, 5)])
    def test_identical_across_midstream_resize(self, path):
        """Rebalancing between batches must be invisible in the answers:
        warm keys that stayed, warm keys that moved (now cold on their new
        shard), and brand-new keys all solve bit-identically."""
        start, end = path
        g = random_connected_graph(44, 0.09, 17)
        rng = random.Random(17)
        old_batch = random_query_batch(g, rng, 3)
        new_batch = random_query_batch(g, rng, 2)
        with ShardedConnectorService(g, n_shards=start) as sharded:
            before = sharded.solve_many(old_batch)
            sharded.resize(end)
            assert sharded.n_shards == end
            after = sharded.solve_many(old_batch + new_batch)
            for result, reference in zip(after, before):
                assert_connector_identical(result, reference)
            for query, result in zip(new_batch, after[len(old_batch):]):
                assert_connector_identical(result, wiener_steiner(g, query))
        assert_no_orphan_processes()

    def test_resize_noop_and_validation(self):
        g = random_connected_graph(24, 0.15, 19)
        with ShardedConnectorService(g, n_shards=2) as sharded:
            sharded.resize(2)
            assert sharded.n_shards == 2
            with pytest.raises(ValueError):
                sharded.resize(0)

    def test_resize_to_current_count_is_a_true_noop(self):
        """Same-count resize must not rebuild the ring or touch the
        transports — a supervisor reasserting its topology on a timer
        should never cost ring churn (or anything else)."""
        g = random_connected_graph(24, 0.15, 71)
        with ShardedConnectorService(g, n_shards=2) as sharded:
            ring_before = sharded._ring
            transports_before = dict(sharded._shards)
            processes_before = {
                shard_id: transport.process.pid
                for shard_id, transport in sharded._shards.items()
            }
            sharded.resize(2)
            assert sharded._ring is ring_before
            assert sharded._shards == transports_before
            assert {
                shard_id: transport.process.pid
                for shard_id, transport in sharded._shards.items()
            } == processes_before

    def test_closed_service_raises_one_message_everywhere(self):
        """resize and shard_of on a closed service must raise exactly the
        RuntimeError the solve paths raise — a supervisor matching on the
        message sees one failure mode, not three."""
        g = random_connected_graph(20, 0.2, 73)
        sharded = ShardedConnectorService(g, n_shards=2)
        sharded.close()
        messages = set()
        for call in (
            lambda: sharded.solve([0, 1]),
            lambda: sharded.solve_many([[0, 1]]),
            lambda: sharded.stats(),
            lambda: sharded.resize(3),
            lambda: sharded.shard_of([0, 1]),
        ):
            with pytest.raises(RuntimeError) as excinfo:
                call()
            messages.add(str(excinfo.value))
        assert messages == {"service is closed"}
        assert_no_orphan_processes()


class TestRouter:
    def test_order_preserved_and_inflight_deduped(self):
        g = random_connected_graph(40, 0.09, 23)
        rng = random.Random(23)
        q1, q2, q3 = random_query_batch(g, rng, 3)
        batch = [q1, q2, q1, q3, q1]
        with ShardedConnectorService(g, n_shards=2) as sharded:
            results = sharded.solve_many(batch)
            assert [sorted(r.query) for r in results] == [
                sorted(set(q)) for q in batch
            ]
            # duplicates were sent once and share one result object
            assert results[2] is results[0]
            assert results[4] is results[0]
            stats = sharded.stats()
            assert stats.requests_routed == 3
            assert stats.inflight_deduped == 2
            assert stats.queries_served == 3

    def test_large_batches_interleave_drain_with_scatter(self):
        """Regression: the router must never have more than
        ``MAX_INFLIGHT_PER_SHARD`` requests outstanding per shard — a
        scatter-everything-then-gather router deadlocks once a batch's
        requests and replies outgrow the OS socket buffers (reproduced at
        ~700+ in-flight requests).  This drives the mid-scatter drain path
        hard — far more distinct keys than the cap, cold then warm — and
        checks order and identity still hold."""
        n = 150
        g = Graph([(i, i + 1) for i in range(n - 1)])
        queries = [[i, i + 1] for i in range(n - 1)]
        with ShardedConnectorService(g, n_shards=2) as sharded:
            assert len(queries) > 4 * sharded.MAX_INFLIGHT_PER_SHARD
            cold = sharded.solve_many(queries)
            warm = sharded.solve_many(queries * 3)
        for query, result in zip(queries, cold):
            assert result.nodes == frozenset(query)  # adjacent pairs solve to themselves
        assert [r.nodes for r in warm] == [r.nodes for r in cold] * 3

    def test_routing_is_deterministic_and_option_sensitive(self):
        g = random_connected_graph(30, 0.12, 29)
        query = sorted(g.nodes())[:4]
        with ShardedConnectorService(g, n_shards=5) as a, \
                ShardedConnectorService(g, n_shards=5) as b:
            assert a.shard_of(query) == b.shard_of(query)
            assert a.shard_of(query) == a.shard_of(query)
            # the options value is part of the key
            digests = {
                request_digest(frozenset(query), SolveOptions()),
                request_digest(frozenset(query), SolveOptions(beta=0.5)),
                request_digest(frozenset([query[0]]), SolveOptions()),
            }
            assert len(digests) == 3

    def test_shards_seeded_with_bare_arrays_not_graphs(self):
        g = random_connected_graph(40, 0.1, 31)
        with ShardedConnectorService(g, n_shards=2) as sharded:
            assert "graph" not in sharded._payload
            assert {"indptr", "indices", "node_of"} <= set(sharded._payload)
            [result] = sharded.solve_many([sorted(g.nodes())[:3]])
            assert_connector_identical(
                result, wiener_steiner(g, sorted(g.nodes())[:3])
            )

    def test_worker_fault_fails_request_not_shard(self):
        """A query spanning components passes membership validation but
        blows up inside the shard's sweep; the error must propagate to the
        caller while the shard survives for the next batch."""
        g = Graph([(0, 1), (1, 2), (2, 3), (10, 11), (11, 12)])
        with ShardedConnectorService(g, n_shards=2) as sharded:
            with pytest.raises(DisconnectedGraphError):
                sharded.solve_many([[0, 3], [0, 11]])
            # every link is drained and every shard still serves
            [result] = sharded.solve_many([[0, 3]])
            assert_connector_identical(result, wiener_steiner(g, [0, 3]))

    def test_dead_shard_closes_the_service_with_a_clear_error(self):
        """A shard process dying (OOM kill, crash) poisons any half-served
        batch, so the router must fail with one clear error and close the
        whole service — never limp on with stale replies in the links."""
        g = random_connected_graph(30, 0.12, 61)
        rng = random.Random(61)
        sharded = ShardedConnectorService(g, n_shards=2)
        try:
            sharded.solve_many(random_query_batch(g, rng, 2))
            victim = sharded._shards[0].process
            victim.terminate()
            victim.join(5.0)
            with pytest.raises(RuntimeError, match="died|closed"):
                for _ in range(20):  # whichever shard a key routes to
                    sharded.solve_many(random_query_batch(g, rng, 3))
            with pytest.raises(RuntimeError, match="closed"):
                sharded.solve([sorted(g.nodes())[0], sorted(g.nodes())[1]])
        finally:
            sharded.close()
        assert_no_orphan_processes()

    def test_validation_errors_raised_locally(self):
        g = random_connected_graph(20, 0.2, 37)
        with ShardedConnectorService(g, n_shards=2) as sharded:
            with pytest.raises(InvalidQueryError):
                sharded.solve([])
            with pytest.raises(InvalidQueryError):
                sharded.solve([10**9])
            assert sharded.stats().requests_routed == 0

    def test_single_vertex_query(self):
        g = random_connected_graph(20, 0.2, 41)
        only = sorted(g.nodes())[0]
        with ShardedConnectorService(g, n_shards=2) as sharded:
            assert sharded.solve([only]).nodes == frozenset([only])

    def test_baseline_methods_served_by_router_not_shards(self):
        g = random_connected_graph(30, 0.12, 43)
        rng = random.Random(43)
        query = rng.sample(sorted(g.nodes()), 3)
        with ShardedConnectorService(g, n_shards=2) as sharded:
            for tag in METHODS:
                result = sharded.solve(query, SolveOptions(method=tag))
                assert result.nodes == METHODS[tag].solve(g, query).nodes
            assert sharded.stats().requests_routed == 1  # only the ws-q default


class TestLifecycle:
    def test_close_terminates_shards_and_is_idempotent(self):
        g = random_connected_graph(24, 0.15, 47)
        sharded = ShardedConnectorService(g, n_shards=3)
        sharded.solve_many(random_query_batch(g, random.Random(47), 2))
        sharded.close()
        sharded.close()
        assert_no_orphan_processes()
        with pytest.raises(RuntimeError):
            sharded.solve([0, 1])
        with pytest.raises(RuntimeError):
            sharded.resize(2)
        with pytest.raises(RuntimeError):
            sharded.stats()

    def test_stopped_local_children_return_cleanly(self):
        """Stopping a local slot shuts its socketpair down and the child's
        serve loop returns: exit code 0, never a terminate — even while
        shards forked after it still hold copies of its link.  A clean
        return is what lets a wrapper around the child body run its
        teardown."""
        g = random_connected_graph(24, 0.15, 49)
        sharded = ShardedConnectorService(g, n_shards=3)
        sharded.solve_many(random_query_batch(g, random.Random(49), 4))
        first = sharded._shards[0].process
        sharded.replace_shard(0, "local")  # slots 1 and 2 still run
        assert first.exitcode == 0
        processes = [t.process for t in sharded._shards.values()]
        sharded.close()
        assert [p.exitcode for p in processes] == [0, 0, 0]
        assert_no_orphan_processes()

    def test_local_slots_open_no_listener(self):
        """A local slot is a socketpair: AF_UNIX, so nothing but the router
        can reach the child's sweep op."""
        g = random_connected_graph(24, 0.15, 51)
        with ShardedConnectorService(g, n_shards=2) as sharded:
            for transport in sharded._shards.values():
                assert transport.waitable.family == socket.AF_UNIX
                assert transport.waitable.getsockname() == ""
        assert_no_orphan_processes()

    def test_context_manager_reaps_on_exception(self):
        g = random_connected_graph(24, 0.15, 53)
        with pytest.raises(RuntimeError, match="sentinel"):
            with ShardedConnectorService(g, n_shards=2):
                raise RuntimeError("sentinel")
        assert_no_orphan_processes()

    def test_rejects_bad_shard_counts(self):
        g = random_connected_graph(12, 0.3, 59)
        with pytest.raises(ValueError):
            ShardedConnectorService(g, n_shards=0)


class TestSolveOptionsKeys:
    """The stable-key layer the shard router hashes on (and the plain
    hashing/equality the in-process caches key on) across every field."""

    #: One distinct-from-default value per SolveOptions field.
    VARIANTS = {
        "method": "st",
        "beta": 0.5,
        "roots": (1, 2),
        "selection": "wiener",
        "adjust": False,
        "lambda_values": (1.0, 2.0),
        "exact_threshold": 10,
        "sample_sources": 8,
        "sample_seed": 3,
    }

    def test_variants_cover_every_field(self):
        field_names = {f.name for f in dataclasses.fields(SolveOptions)}
        assert set(self.VARIANTS) == field_names

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_each_field_participates_in_equality_hash_and_digest(self, field):
        base = SolveOptions()
        changed = base.replace(**{field: self.VARIANTS[field]})
        assert changed != base
        assert changed.stable_digest() != base.stable_digest()
        twin = base.replace(**{field: self.VARIANTS[field]})
        assert changed == twin
        assert hash(changed) == hash(twin)
        assert changed.stable_digest() == twin.stable_digest()

    def test_all_single_field_variants_mutually_distinct(self):
        digests = {SolveOptions().stable_digest()}
        for field, value in self.VARIANTS.items():
            digests.add(SolveOptions(**{field: value}).stable_digest())
        assert len(digests) == len(self.VARIANTS) + 1

    def test_normalized_iterables_share_key(self):
        """Lists normalize to tuples, so equal *values* are equal keys."""
        a = SolveOptions(roots=[3, 1], lambda_values=[0.5])
        b = SolveOptions(roots=(3, 1), lambda_values=(0.5,))
        assert a == b
        assert hash(a) == hash(b)
        assert a.stable_digest() == b.stable_digest()

    def test_equal_values_with_different_reprs_share_digest(self):
        """``beta=1`` and ``beta=1.0`` are one key to every equality-based
        cache, so the routing digest must agree too — for option fields
        and for query vertices alike."""
        assert SolveOptions(beta=1) == SolveOptions(beta=1.0)
        assert (
            SolveOptions(beta=1).stable_digest()
            == SolveOptions(beta=1.0).stable_digest()
        )
        assert (
            SolveOptions(roots=(1, 2)).stable_digest()
            == SolveOptions(roots=(1.0, 2.0)).stable_digest()
        )
        options = SolveOptions()
        assert request_digest(frozenset([1, 2]), options) == request_digest(
            frozenset([1.0, 2.0]), options
        )
        # bools are not canonicalized into floats (True != 1.0 as a label key
        # would be wrong for adjust-style flags)
        assert (
            SolveOptions(adjust=True).stable_digest()
            != SolveOptions(adjust=False).stable_digest()
        )

    def test_digest_survives_the_wire_codec(self):
        """The options a shard decodes from the sweep op's JSON object are
        the router's, so they key every cache the same way."""
        options = SolveOptions(
            beta=0.5, roots=(2, 7), selection="wiener",
            lambda_values=(0.5, 3.0), adjust=False,
        )
        payload = json.loads(json.dumps(_wire_options(options, list)))
        assert payload == {
            "beta": 0.5, "roots": [2, 7], "selection": "wiener",
            "adjust": False, "lambda_values": [0.5, 3.0],
        }
        clone = options_from_payload(payload)
        assert clone == options
        assert clone.stable_digest() == options.stable_digest()
        assert _wire_options(SolveOptions(), list) == {}


class TestRingPlacementGolden:
    """Pinned routing digests: ring placement must not move across
    releases.  A changed digest reshuffles which shard owns which key and
    throws away every warm shard cache, so these values are frozen."""

    def test_default_options_digest(self):
        assert (
            SolveOptions().stable_digest().hex()
            == "e4212ae8aa5077803e170cbcd28d2a12691f6895"
        )

    def test_request_digests(self):
        assert request_digest(frozenset([3, 17, 42]), SolveOptions()).hex() == (
            "9512837114f277a71b4fb41ac0259b7ed7f1b23e"
        )
        options = SolveOptions(
            beta=0.5,
            roots=(7, "a"),
            selection="wiener",
            lambda_values=(1, 2.5),
        )
        assert request_digest(frozenset(["a", 7, 2.5]), options).hex() == (
            "12f6e3b8c6265ce02b8c2b6c04f85ec568dc11e7"
        )


class TestShardedStatsHitRate:
    def test_zero_lookup_guard_and_aggregation(self):
        graph = random_connected_graph(24, 0.18, seed=83)
        with ShardedConnectorService(graph, n_shards=2) as service:
            cold = service.stats()
            for layer in ("result", "candidate", "score"):
                assert cold.hit_rate(layer) == 0.0
            queries = random_query_batch(graph, random.Random(3), 4)
            # Two batches: within one batch duplicates are deduped by the
            # router and never reach a shard cache; re-asks across batches
            # are the shard-warm path hit_rate() measures.
            service.solve_many(queries)
            service.solve_many(queries)
            warm = service.stats()
        expected = warm.result_hits / (
            warm.result_hits
            + sum(shard.result_misses for shard in warm.shards)
        )
        assert warm.hit_rate() == expected
        assert warm.hit_rate() >= 0.5  # every re-ask is a shard-warm hit
        with pytest.raises(ValueError, match="unknown cache layer"):
            warm.hit_rate("bfs")

    def test_router_local_fallback_traffic_counts_as_warm(self):
        """Baseline methods are served by the router's local service; their
        cache hits belong in the aggregate stats."""
        graph = random_connected_graph(20, 0.2, seed=89)
        query = sorted(graph.nodes())[:3]
        with ShardedConnectorService(graph, n_shards=2) as service:
            options = SolveOptions(method="st")
            service.solve_many([query], options)
            service.solve_many([query], options)  # local result-cache hit
            stats = service.stats()
        assert stats.router_local is not None
        assert stats.result_hits >= 1
        assert stats.hit_rate() > 0.0
        assert stats.queries_served >= 2
