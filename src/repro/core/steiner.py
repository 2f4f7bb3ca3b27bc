"""The ``st`` entry point: Mehlhorn's Steiner 2-approximation on a ``Graph``.

Mehlhorn's algorithm (Inf. Proc. Letters 1988) is the Steiner solver the
paper uses both as the ``st`` baseline and inside ``WienerSteiner``
(Corollary 3 invokes it on the reweighted instance ``G_{r,λ}``).  It works
in three steps:

1. a multi-source Dijkstra from the terminal set partitions ``G`` into
   Voronoi regions and yields, for every edge ``(u, v)`` crossing two
   regions, a candidate terminal-to-terminal path of length
   ``d(s_u, u) + w(u, v) + d(v, s_v)``;
2. a minimum spanning tree of the induced "distance network" on terminals
   is computed (Kruskal on the candidate edges);
3. every MST edge is expanded back into an actual path of ``G``, the union
   is re-spanned, and non-terminal leaves are pruned.

The result is a tree spanning the terminals with total weight at most twice
the optimum.

One kernel
----------

The library has one implementation of all three steps,
:func:`repro.core.fastpath.mehlhorn_steiner_csr`, which ws-q runs on every
``G_{r,λ}``.  :func:`steiner_tree_unweighted` packs the host graph to CSR
and runs that kernel with unit weights.  Every tie (which source claims a
node, which crossing edge represents a terminal pair, the Kruskal orders)
is broken by the node's position in :func:`repro.graphs.csr.order_map`, so
the tree is a deterministic function of the graph's insertion order.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.fastpath import mehlhorn_steiner_csr
from repro.errors import InvalidQueryError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, Node


def steiner_tree_unweighted(graph: Graph, terminals: Iterable[Node]) -> Graph:
    """Mehlhorn on an unweighted graph: unit weights, a plain tree back.

    This is the paper's ``st`` baseline entry point.  The tree's nodes are
    inserted in canonical (relabeled-index) order and its edges in sorted
    index order, so traversals of it are deterministic.

    Raises
    ------
    InvalidQueryError
        If the terminal set is empty or contains unknown nodes.
    DisconnectedGraphError
        If the terminals do not lie in a single component.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise InvalidQueryError("terminal set must be non-empty")
    for terminal in terminal_list:
        if not graph.has_node(terminal):
            raise InvalidQueryError(f"terminal {terminal!r} not in graph")
    csr = CSRGraph.from_graph(graph)
    nodes, edges = mehlhorn_steiner_csr(
        csr, np.ones(csr.num_arcs), [csr.index_of[t] for t in terminal_list]
    )
    node_of = csr.node_of
    tree = Graph()
    for index in nodes:
        tree.add_node(node_of[index])
    for a, b in edges:
        tree.add_edge(node_of[a], node_of[b])
    return tree
