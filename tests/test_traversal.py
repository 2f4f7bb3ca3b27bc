"""Tests for the BFS traversals, cross-checked against networkx."""

import pytest

from helpers import random_connected_graph, to_networkx
from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    bfs_distances,
    bfs_limited,
    bfs_tree,
    eccentricity,
    multi_source_bfs,
    shortest_path,
)


class TestBFS:
    def test_path_distances(self, path5):
        assert bfs_distances(path5, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_unreachable_absent(self):
        g = Graph([(0, 1)], nodes=[2])
        distances = bfs_distances(g, 0)
        assert 2 not in distances

    def test_missing_source_raises(self, path5):
        with pytest.raises(NodeNotFoundError):
            bfs_distances(path5, 99)

    def test_bfs_tree_parents_consistent(self, two_triangles_bridge):
        distances, parents = bfs_tree(two_triangles_bridge, 0)
        for node, parent in parents.items():
            assert distances[node] == distances[parent] + 1

    def test_bfs_limited(self, path5):
        assert bfs_limited(path5, 0, 2) == {0: 0, 1: 1, 2: 2}

    def test_bfs_limited_zero(self, path5):
        assert bfs_limited(path5, 3, 0) == {3: 0}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        import networkx as nx

        g = random_connected_graph(60, 0.08, seed)
        oracle = to_networkx(g)
        source = next(iter(g.nodes()))
        expected = nx.single_source_shortest_path_length(oracle, source)
        assert bfs_distances(g, source) == dict(expected)


class TestMultiSourceBFS:
    def test_voronoi_partition(self, path5):
        distances, closest = multi_source_bfs(path5, [0, 4])
        assert distances == {0: 0, 4: 0, 1: 1, 3: 1, 2: 2}
        assert closest[1] == 0
        assert closest[3] == 4

    def test_duplicate_sources_ok(self, path5):
        distances, _ = multi_source_bfs(path5, [0, 0])
        assert distances[4] == 4

    def test_missing_source_raises(self, path5):
        with pytest.raises(NodeNotFoundError):
            multi_source_bfs(path5, [99])


class TestShortestPath:
    def test_simple(self, path5):
        assert shortest_path(path5, 0, 3) == [0, 1, 2, 3]

    def test_same_node(self, path5):
        assert shortest_path(path5, 2, 2) == [2]

    def test_unreachable_none(self):
        g = Graph([(0, 1)], nodes=[2])
        assert shortest_path(g, 0, 2) is None

    def test_path_is_shortest(self):
        for seed in range(3):
            g = random_connected_graph(50, 0.1, seed + 100)
            nodes = sorted(g.nodes())
            path = shortest_path(g, nodes[0], nodes[-1])
            assert path is not None
            assert len(path) - 1 == bfs_distances(g, nodes[0])[nodes[-1]]
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)


class TestEccentricity:
    def test_path_ends(self, path5):
        assert eccentricity(path5, 0) == 4
        assert eccentricity(path5, 2) == 2
