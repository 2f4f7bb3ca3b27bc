"""Property tests for the CSR array backend.

The contract under test is strong: the CSR kernels must return results
*identical* to the dict reference implementations — identical distances,
identical canonical BFS/Voronoi trees, identical Steiner trees, and
identical ``wiener_steiner`` connectors (against the dict oracle engine
of ``tests/oracle.py``) — on random corpora, not merely results of equal
quality.
"""

import math
import random
import tracemalloc

import pytest

from helpers import random_connected_graph, random_weighted_graph
from oracle import (
    canonical_forest_from_distances,
    dijkstra_distances_canonical,
    mehlhorn_steiner_tree,
    oracle_solve,
)
from repro.core.fastpath import CSRWienerSteinerEngine, _voronoi_phase, mehlhorn_steiner_csr
from repro.core.service import ConnectorService
from repro.core.steiner import steiner_tree_unweighted
from repro.core.wiener_steiner import wiener_steiner
from repro.datasets.steinlib import puc_suite, vienna_suite
from repro.graphs.csr import CSRGraph, order_map
from repro.graphs.generators import connectify, erdos_renyi
from repro.graphs.graph import Graph, WeightedGraph
from repro.graphs.traversal import bfs_distances, bfs_tree_canonical, multi_source_bfs
from repro.graphs.wiener import rooted_distance_sum, wiener_index


class TestCSRStructure:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        g = random_connected_graph(50, 0.1, seed + 9000)
        csr = CSRGraph.from_graph(g)
        assert csr.num_nodes == g.num_nodes
        assert csr.num_edges == g.num_edges
        for node in g.nodes():
            idx = csr.index_of[node]
            row = csr.indices[csr.indptr[idx] : csr.indptr[idx + 1]]
            assert {csr.node_of[int(j)] for j in row} == g.neighbors(node)
            assert list(row) == sorted(row)  # canonical adjacency order

    def test_order_matches_order_map(self):
        g = random_connected_graph(30, 0.15, 9100)
        csr = CSRGraph.from_graph(g)
        assert csr.index_of == order_map(g)

    def test_induced_matches_subgraph(self):
        g = random_connected_graph(60, 0.1, 9200)
        nodes = sorted(g.nodes())[:25]
        csr = CSRGraph.from_graph(g)
        sub = csr.induced(csr.indices_for(nodes))
        expected = g.subgraph(nodes)
        assert sub.num_nodes == expected.num_nodes
        assert sub.num_edges == expected.num_edges
        assert sub.wiener_index() == wiener_index(expected)


class TestTraversalEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_bfs_distances_identical(self, seed):
        g = random_connected_graph(70, 0.07, seed + 9300)
        csr = CSRGraph.from_graph(g)
        source = sorted(g.nodes())[seed % g.num_nodes]
        expected = bfs_distances(g, source)
        dist = csr.bfs_distances(csr.index_of[source])
        assert {csr.node_of[i]: int(d) for i, d in enumerate(dist)} == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_bfs_tree_parents_are_canonical(self, seed):
        g = random_connected_graph(60, 0.08, seed + 9400)
        csr = CSRGraph.from_graph(g)
        source = sorted(g.nodes())[0]
        expected_dist, expected_parents = bfs_tree_canonical(g, source)
        dist, parent = csr.bfs_tree(csr.index_of[source])
        for node, expected_parent in expected_parents.items():
            assert csr.node_of[int(parent[csr.index_of[node]])] == expected_parent
        for node, d in expected_dist.items():
            assert int(dist[csr.index_of[node]]) == d

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_source_bfs_distances(self, seed):
        g = random_connected_graph(60, 0.08, seed + 9500)
        csr = CSRGraph.from_graph(g)
        sources = sorted(g.nodes())[: 3 + seed]
        expected, _ = multi_source_bfs(g, sources)
        dist, closest = csr.multi_source_bfs([csr.index_of[s] for s in sources])
        for node, d in expected.items():
            idx = csr.index_of[node]
            assert int(dist[idx]) == d
            # the claimed source must actually realize the distance
            source = csr.node_of[int(closest[idx])]
            assert bfs_distances(g, source)[node] == d

    @pytest.mark.parametrize("seed", range(5))
    def test_wiener_and_rooted_sum(self, seed):
        g = random_connected_graph(50, 0.1, seed + 9600)
        csr = CSRGraph.from_graph(g)
        # dict reference, computed below the CSR dispatch threshold
        n = g.num_nodes
        total = sum(sum(bfs_distances(g, v).values()) for v in g.nodes())
        assert csr.wiener_index() == total / 2
        assert wiener_index(g) == total / 2
        root = sorted(g.nodes())[0]
        assert rooted_distance_sum(g, root, csr=csr) == rooted_distance_sum(g, root)

    def test_wiener_disconnected_infinite(self):
        g = Graph([(0, 1)], nodes=[2])
        csr = CSRGraph.from_graph(g)
        assert csr.wiener_index() == math.inf


def _host_with_unreachable_parts(seed: int) -> tuple[WeightedGraph, list]:
    """A weighted host plus a component no source reaches and isolated
    nodes, labels shuffled so the unreachable rows interleave the reached
    ones; returns ``(graph, nodes of the reachable part)``."""
    rng = random.Random(seed)
    main = random_weighted_graph(24, 80, seed)
    stray = [(100 + rng.randrange(8), 100 + rng.randrange(8)) for _ in range(12)]
    labels = list(main.nodes()) + list(range(100, 108)) + [200, 201, 202]
    rng.shuffle(labels)
    host = WeightedGraph()
    for node in labels:
        host.add_node(node)
    for u, v, w in main.edges():
        host.add_edge(u, v, w)
    for u, v in stray:
        if u != v:
            host.add_edge(u, v, rng.choice([1.0, 2.0, 2.5]))
    return host, list(main.nodes())


def _engine_shaped_host(graph: Graph, root, lam: float) -> WeightedGraph:
    """``graph`` reweighted as ``G_{r,λ}``: ``λ + max(d_r(u), d_r(v))/λ``,
    the tie-heavy weights the engine feeds Mehlhorn."""
    depth = bfs_distances(graph, root)
    host = WeightedGraph()
    for node in graph.nodes():
        host.add_node(node)
    for u, v in graph.edges():
        host.add_edge(u, v, lam + max(depth[u], depth[v]) / lam)
    return host


def _relabeled_and_shuffled(graph: Graph, rng: random.Random) -> Graph:
    """``graph`` with string labels, nodes and edges inserted in shuffled
    order and edge endpoints randomly swapped."""
    label = {v: f"n{rng.randrange(10**6)}-{v}" for v in graph.nodes()}
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    out = Graph()
    for v in nodes:
        out.add_node(label[v])
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        out.add_edge(label[u], label[v])
    return out


def _assert_forest_identical(wg: WeightedGraph, sources) -> None:
    """CSR phase 1 (scipy distances + canonical forest) reproduces the
    dict twin's distances and canonical forest exactly."""
    order = order_map(wg)
    node_of = list(wg.nodes())
    terminal_indices = sorted(order[s] for s in sources)
    dist = dijkstra_distances_canonical(wg, sources, order, node_of)
    parent, closest = canonical_forest_from_distances(
        wg, dist, order, node_of, terminal_indices
    )
    csr, weights = CSRGraph.from_weighted_graph(wg)
    csr_dist, csr_parent, csr_closest = _voronoi_phase(
        csr, weights, terminal_indices
    )
    assert csr_dist.tolist() == dist
    assert csr_parent.tolist() == list(parent)
    assert csr_closest.tolist() == list(closest)


class TestSteinerEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_voronoi_dijkstra_identical(self, seed):
        """The forest matches the dict twin on random weights, on a host
        whose unreachable component and isolated nodes give NaN and empty
        CSR rows, and on engine-shaped Lemma-4 weights, whose many ties
        exercise the ``(dist[u], u)`` parent rule."""
        wg = random_weighted_graph(30, 110, seed + 9800)
        rng = random.Random(seed)
        _assert_forest_identical(wg, rng.sample(list(wg.nodes()), 4))
        host, reachable = _host_with_unreachable_parts(seed + 9850)
        _assert_forest_identical(host, rng.sample(reachable, 3))
        g = random_connected_graph(40, 0.1, seed + 9870)
        nodes = sorted(g.nodes())
        root = rng.choice(nodes)
        sources = sorted(set(rng.sample(nodes, 3)) | {root})
        for lam in (1 / math.sqrt(2), 1.0, 2.0, math.sqrt(40)):
            _assert_forest_identical(_engine_shaped_host(g, root, lam), sources)

    @pytest.mark.parametrize("seed", range(8))
    def test_canonical_forest_consistent(self, seed):
        wg = random_weighted_graph(30, 110, seed + 9900)
        order = order_map(wg)
        node_of = list(wg.nodes())
        rng = random.Random(seed)
        sources = rng.sample(node_of, 3)
        terminal_indices = sorted(order[s] for s in sources)
        dist = dijkstra_distances_canonical(wg, sources, order, node_of)
        parent, closest = canonical_forest_from_distances(
            wg, dist, order, node_of, terminal_indices
        )
        for v_idx, p_idx in enumerate(parent):
            if p_idx < 0:
                continue
            w = wg.weight(node_of[p_idx], node_of[v_idx])
            assert dist[p_idx] + w == dist[v_idx]
            assert closest[v_idx] == closest[p_idx]
        for t_idx in terminal_indices:
            assert closest[t_idx] == t_idx

    @pytest.mark.parametrize("seed", range(10))
    def test_mehlhorn_csr_matches_dict(self, seed):
        wg = random_weighted_graph(28, 100, seed + 10000)
        rng = random.Random(seed)
        terminals = rng.sample(sorted(wg.nodes()), 5)
        try:
            tree = mehlhorn_steiner_tree(wg, terminals)
        except Exception:
            pytest.skip("terminals disconnected in this sample")
        csr, weights = CSRGraph.from_weighted_graph(wg)
        nodes, edges = mehlhorn_steiner_csr(
            csr, weights, [csr.index_of[t] for t in terminals]
        )
        assert {csr.node_of[i] for i in nodes} == set(tree.nodes())
        total = sum(
            weights[csr.arc_weight_position(a, b)] for a, b in edges
        )
        assert total == tree.total_weight()

    def test_st_matches_oracle(self):
        """``st`` (the CSR kernel on unit weights) returns the oracle's
        dict Mehlhorn tree with nodes and edges in the same order, since
        AdjustDistances walks these trees in that order."""
        corpus = []
        for seed in range(12):
            rng = random.Random(seed + 10500)
            n = rng.randint(5, 70)
            g = connectify(erdos_renyi(n, rng.uniform(0.04, 0.3), rng=rng), rng=rng)
            corpus.append((g, rng.sample(sorted(g.nodes()), min(rng.randint(1, 8), n))))
            relabeled = _relabeled_and_shuffled(g, rng)
            terminals = rng.sample(sorted(relabeled.nodes()), min(rng.randint(1, 8), n))
            corpus.append((relabeled, terminals))
        corpus += [instance.unweighted() for instance in puc_suite(4) + vienna_suite(4)]
        for graph, terminals in corpus:
            ours = steiner_tree_unweighted(graph, terminals)
            reference = mehlhorn_steiner_tree(
                WeightedGraph.from_graph(graph), terminals
            ).unweighted()
            assert list(ours.nodes()) == list(reference.nodes())
            assert list(ours.edges()) == list(reference.edges())


class TestBackendEquality:
    """The headline acceptance property: the CSR engine behind
    ``wiener_steiner`` returns the dict oracle's connectors exactly."""

    @pytest.mark.parametrize("seed", range(12))
    def test_connectors_identical(self, seed):
        rng = random.Random(seed)
        n = rng.randint(12, 90)
        g = connectify(erdos_renyi(n, rng.uniform(0.05, 0.3), rng=rng), rng=rng)
        k = min(rng.randint(2, 6), g.num_nodes)
        query = rng.sample(sorted(g.nodes()), k)
        a = oracle_solve(g, query)
        b = wiener_steiner(g, query)
        assert a.nodes == b.nodes
        assert a.wiener_index == b.wiener_index
        assert "backend" not in b.metadata

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"adjust": False},
            {"selection": "a"},
            {"selection": "wiener"},
            {"beta": 0.5},
            {"lambda_values": [1.0, 2.5]},
        ],
    )
    def test_connectors_identical_across_knobs(self, kwargs):
        for seed in range(4):
            g = random_connected_graph(45, 0.1, seed + 10100)
            rng = random.Random(seed)
            query = rng.sample(sorted(g.nodes()), 4)
            a = oracle_solve(g, query, **kwargs)
            b = wiener_steiner(g, query, **kwargs)
            assert a.nodes == b.nodes, (seed, kwargs)

    def test_custom_roots_identical(self):
        g = random_connected_graph(40, 0.12, 10200)
        query = sorted(g.nodes())[:3]
        roots = sorted(g.nodes())[:8]
        a = oracle_solve(g, query, roots=roots)
        b = wiener_steiner(g, query, roots=roots)
        assert a.nodes == b.nodes

    def test_disconnected_host_identical(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 4), (10, 11), (11, 12)])
        a = oracle_solve(g, [0, 4])
        b = wiener_steiner(g, [0, 4])
        assert a.nodes == b.nodes == frozenset(range(5))

    def test_auto_backend_picks_csr_on_large_graphs(self):
        """There is no backend choice left: every service sweeps on the
        CSR engine, whatever the graph size."""
        for n in (12, 200):
            g = random_connected_graph(n, 0.03 if n > 100 else 0.3, 10300)
            service = ConnectorService(g)
            service.solve(sorted(g.nodes())[:3])
            assert isinstance(service._engine, CSRWienerSteinerEngine)

    def test_unknown_backend_raises(self, path5):
        """The retired ``backend`` knob is rejected, never silently ignored."""
        with pytest.raises(TypeError):
            wiener_steiner(path5, [0, 4], backend="csr")


class TestRootBatchMemory:
    def test_transient_peak_does_not_grow_with_the_grid(self):
        """A root batch writes one λ's weights at a time into the engine's
        matrix buffer, so its transient peak is that of one Mehlhorn run,
        not a ``|grid| × |arcs|`` block."""
        g = random_connected_graph(2000, 0.005, 10350)
        engine = CSRWienerSteinerEngine(g)
        query = frozenset(sorted(g.nodes())[:4])
        root = min(query)
        # Warm the root entry and the reusable matrix outside the window.
        engine.candidates_for_root(root, [1.0], query, True)

        def batch_peak(size: int) -> int:
            grid = [0.5 + 0.25 * i for i in range(size)]
            tracemalloc.start()
            try:
                engine.candidates_for_root(root, grid, query, True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert batch_peak(32) < 1.5 * batch_peak(4)


class TestPositiveWeightContract:
    def test_mehlhorn_csr_rejects_non_positive_weights(self):
        wg = random_weighted_graph(12, 30, 10400)
        csr, weights = CSRGraph.from_weighted_graph(wg)
        weights[0] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            mehlhorn_steiner_csr(csr, weights, [0, 1])
