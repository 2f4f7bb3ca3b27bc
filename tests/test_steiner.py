"""Tests for Mehlhorn's Steiner approximation: the CSR kernel and ``st``."""

import itertools
import random

import networkx as nx
import pytest

from helpers import random_connected_graph
from repro.core.fastpath import mehlhorn_steiner_csr
from repro.core.steiner import steiner_tree_unweighted
from repro.errors import DisconnectedGraphError, InvalidQueryError
from repro.graphs.components import is_tree
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, WeightedGraph


def tree_is_valid(tree: WeightedGraph, terminals) -> bool:
    plain = tree.unweighted()
    return is_tree(plain) and set(terminals) <= set(plain.nodes())


def kernel_tree(graph: WeightedGraph, terminals) -> WeightedGraph:
    """``mehlhorn_steiner_csr`` on ``graph``, relabeled to its node labels."""
    csr, weights = CSRGraph.from_weighted_graph(graph)
    nodes, edges = mehlhorn_steiner_csr(csr, weights, csr.indices_for(terminals))
    tree = WeightedGraph()
    for index in nodes:
        tree.add_node(csr.node_of[index])
    for a, b in edges:
        weight = float(weights[csr.arc_weight_position(a, b)])
        tree.add_edge(csr.node_of[a], csr.node_of[b], weight)
    return tree


def optimal_steiner_cost(graph: WeightedGraph, terminals: set) -> float:
    """Exact Steiner cost by brute force over Steiner-vertex subsets."""
    nodes = [n for n in graph.nodes() if n not in terminals]
    best = float("inf")
    for size in range(len(nodes) + 1):
        for extra in itertools.combinations(nodes, size):
            selected = set(terminals) | set(extra)
            sub = nx.Graph()
            sub.add_nodes_from(selected)
            for u, v, w in graph.edges():
                if u in selected and v in selected:
                    sub.add_edge(u, v, weight=w)
            mst = nx.minimum_spanning_tree(sub)
            if mst.number_of_edges() == len(selected) - 1:  # spanning => connected
                best = min(best, mst.size(weight="weight"))
    return best


class TestMehlhorn:
    def test_two_terminals_is_shortest_path(self):
        g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
        tree = kernel_tree(g, [0, 2])
        assert tree_is_valid(tree, [0, 2])
        assert tree.total_weight() == 2.0

    def test_single_terminal(self):
        g = WeightedGraph([(0, 1, 1.0)])
        tree = kernel_tree(g, [0])
        assert tree.num_nodes == 1
        assert tree.num_edges == 0

    def test_terminals_deduplicated(self):
        g = WeightedGraph([(0, 1, 1.0)])
        tree = kernel_tree(g, [0, 0, 1])
        assert tree_is_valid(tree, [0, 1])

    def test_empty_terminals_raises(self):
        with pytest.raises(InvalidQueryError):
            steiner_tree_unweighted(Graph([(0, 1)]), [])

    def test_unknown_terminal_raises(self):
        with pytest.raises(InvalidQueryError):
            steiner_tree_unweighted(Graph([(0, 1)]), [9])

    def test_disconnected_terminals_raise(self):
        g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            kernel_tree(g, [0, 3])

    def test_uses_steiner_vertex(self):
        # A star whose hub is the only way to join three leaves.
        g = WeightedGraph([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        tree = kernel_tree(g, [1, 2, 3])
        assert 0 in set(tree.nodes())
        assert tree.total_weight() == 3.0

    def test_no_redundant_leaves(self):
        for seed in range(5):
            g_plain = random_connected_graph(30, 0.12, seed + 70)
            rng = random.Random(seed)
            terminals = set(rng.sample(sorted(g_plain.nodes()), 5))
            tree = steiner_tree_unweighted(g_plain, terminals)
            for node in tree.nodes():
                if node not in terminals:
                    assert tree.degree(node) >= 2

    @pytest.mark.parametrize("seed", range(6))
    def test_within_factor_two_of_optimum(self, seed):
        rng = random.Random(seed + 200)
        g = WeightedGraph()
        n = 10
        for _ in range(24):
            u, v = rng.sample(range(n), 2)
            g.add_edge(u, v, rng.choice([1.0, 2.0, 3.0]))
        nodes = sorted(g.nodes())
        if len(nodes) < 4:
            pytest.skip("degenerate sample")
        terminals = set(rng.sample(nodes, 4))
        try:
            tree = kernel_tree(g, terminals)
        except DisconnectedGraphError:
            pytest.skip("disconnected sample")
        assert tree_is_valid(tree, terminals)
        optimum = optimal_steiner_cost(g, terminals)
        assert tree.total_weight() <= 2 * optimum + 1e-9

    def test_matches_networkx_quality(self):
        """Within 2x of networkx's steiner_tree on random instances."""
        from networkx.algorithms.approximation import steiner_tree as nx_steiner

        for seed in range(3):
            g = random_connected_graph(40, 0.1, seed + 800)
            rng = random.Random(seed)
            terminals = rng.sample(sorted(g.nodes()), 6)
            ours = steiner_tree_unweighted(g, terminals)
            oracle = nx.Graph()
            oracle.add_edges_from(g.edges())
            theirs = nx_steiner(oracle, terminals)
            assert ours.num_edges <= 2 * max(theirs.number_of_edges(), 1)
