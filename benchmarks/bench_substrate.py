"""Micro-benchmarks for the graph substrate the algorithm is built on.

These time the kernels that dominate ws-q's Õ(|Q||E|) runtime: BFS,
Mehlhorn's Steiner approximation (the CSR kernel every ws-q solve runs),
Wiener index evaluation, and sampled betweenness.
"""

import random

import pytest

from repro.core.fastpath import mehlhorn_steiner_csr
from repro.graphs.centrality import betweenness_centrality, pagerank
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import barabasi_albert, connectify
from repro.graphs.graph import WeightedGraph
from repro.graphs.traversal import bfs_distances
from repro.graphs.wiener import wiener_index


@pytest.fixture(scope="module")
def pl_graph():
    rng = random.Random(1)
    return connectify(barabasi_albert(3000, 4, rng=rng), rng=rng)


@pytest.fixture(scope="module")
def weighted_graph(pl_graph):
    rng = random.Random(2)
    g = WeightedGraph()
    for u, v in pl_graph.edges():
        g.add_edge(u, v, rng.uniform(0.5, 4.5))
    return g


def test_bfs_single_source(benchmark, pl_graph):
    source = next(iter(pl_graph.nodes()))
    distances = benchmark(bfs_distances, pl_graph, source)
    assert len(distances) == pl_graph.num_nodes


def test_mehlhorn_steiner(benchmark, weighted_graph):
    rng = random.Random(3)
    terminals = rng.sample(sorted(weighted_graph.nodes()), 10)
    csr, weights = CSRGraph.from_weighted_graph(weighted_graph)
    indices = csr.indices_for(terminals)
    nodes, _ = benchmark(mehlhorn_steiner_csr, csr, weights, indices)
    assert set(indices.tolist()) <= set(nodes)


def test_wiener_index_medium(benchmark):
    rng = random.Random(4)
    g = connectify(barabasi_albert(400, 3, rng=rng), rng=rng)
    value = benchmark(wiener_index, g)
    assert value > 0


def test_sampled_betweenness(benchmark, pl_graph):
    scores = benchmark.pedantic(
        betweenness_centrality,
        args=(pl_graph,),
        kwargs={"sample_size": 50, "rng": random.Random(5)},
        rounds=1,
        iterations=1,
    )
    assert len(scores) == pl_graph.num_nodes


def test_pagerank(benchmark, pl_graph):
    scores = benchmark(pagerank, pl_graph, 0.85, None, 30)
    assert len(scores) == pl_graph.num_nodes
