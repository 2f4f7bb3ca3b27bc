"""Tests for parallel execution of WienerSteiner (§6.6).

The paper observes that Algorithm 1 parallelizes trivially across
candidate roots and across queries.  The package runs that parallelism
on one mechanism: the persistent shard ring of
:class:`~repro.core.sharded.ShardedConnectorService`, whose answers must
match the sequential solver's.
"""

import multiprocessing
import random

import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    random_connected_graph,
    random_query_batch,
)
from repro.core import ConnectorService, SolveOptions
from repro.core.sharded import ShardedConnectorService
from repro.core.wiener_steiner import wiener_steiner
from repro.errors import InvalidQueryError
from repro.graphs.components import nodes_connect


class TestParallelWienerSteiner:
    def test_matches_sequential_quality(self):
        g = random_connected_graph(120, 0.05, 7)
        rng = random.Random(7)
        query = rng.sample(sorted(g.nodes()), 5)
        options = SolveOptions(selection="wiener")
        sequential = wiener_steiner(g, query, selection="wiener")
        with ShardedConnectorService(g, options, n_shards=2) as ring:
            parallel = ring.solve(query)
        assert parallel.wiener_index == sequential.wiener_index
        assert_connector_identical(parallel, sequential)

    def test_contract(self):
        g = random_connected_graph(80, 0.08, 8)
        rng = random.Random(8)
        query = rng.sample(sorted(g.nodes()), 4)
        with ShardedConnectorService(g, n_shards=2) as ring:
            result = ring.solve(query)
        assert set(query) <= set(result.nodes)
        assert nodes_connect(g, result.nodes)
        assert result.metadata["sharded"] is True
        assert result.metadata["root"] in set(query)

    def test_honors_caller_root_restriction(self):
        """Per-call ``roots`` reach the shard replicas intact."""
        g = random_connected_graph(60, 0.1, 21)
        rng = random.Random(21)
        query = rng.sample(sorted(g.nodes()), 4)
        pinned = SolveOptions(roots=(query[1],))
        with ShardedConnectorService(g, n_shards=2) as ring:
            result = ring.solve(query, pinned)
        assert result.metadata["root"] == query[1]
        reference = ConnectorService(g).solve(query, pinned)
        assert_connector_identical(result, reference)

    def test_single_vertex_query(self):
        g = random_connected_graph(20, 0.2, 9)
        only = next(iter(g.nodes()))
        with ShardedConnectorService(g, n_shards=2) as ring:
            assert ring.solve([only]).nodes == frozenset([only])

    def test_empty_query_raises(self, triangle):
        with ShardedConnectorService(triangle, n_shards=2) as ring:
            with pytest.raises(InvalidQueryError):
                ring.solve([])

    def test_unknown_vertex_raises(self, triangle):
        with ShardedConnectorService(triangle, n_shards=2) as ring:
            with pytest.raises(InvalidQueryError):
                ring.solve([0, 99])


class TestShardedBatch:
    def test_matches_one_shot_bit_for_bit(self):
        g = random_connected_graph(48, 0.09, 10)
        rng = random.Random(10)
        batch = random_query_batch(g, rng, 3)
        with ShardedConnectorService(g, n_shards=2) as ring:
            results = ring.solve_many(batch)
        for query, result in zip(batch, results):
            assert_connector_identical(result, wiener_steiner(g, query))
        assert_no_orphan_processes()  # torn down with the ring
        assert not multiprocessing.active_children()
