"""``st`` — the Steiner-tree baseline.

Mehlhorn's 2-approximation applied directly to the unweighted host graph
with the query set as terminals.  It is the same subroutine ``ws-q`` uses
internally, as §6.1 notes, and the same code: the CSR kernel
:func:`repro.core.fastpath.mehlhorn_steiner_csr`, run with unit weights.
The connector is the vertex set of the resulting tree.
"""

from __future__ import annotations

import time
from collections.abc import Iterable

from repro.baselines.common import validate_query
from repro.core.result import ConnectorResult
from repro.core.steiner import steiner_tree_unweighted
from repro.graphs.graph import Graph, Node


def steiner_connector(graph: Graph, query: Iterable[Node]) -> ConnectorResult:
    """Return the ``st`` baseline solution for ``query``.

    Notes
    -----
    Like every :class:`ConnectorResult`, the reported subgraph is the
    subgraph *induced* by the tree's vertex set (the paper restricts
    attention to induced solutions; for the Steiner objective only the
    vertex count matters, and the tree itself is available from
    :func:`repro.core.steiner.steiner_tree_unweighted` when needed).
    """
    started = time.perf_counter()
    query_set = validate_query(graph, query)
    tree = steiner_tree_unweighted(graph, query_set)
    return ConnectorResult(
        host=graph,
        nodes=frozenset(tree.nodes()),
        query=query_set,
        method="st",
        metadata={
            "tree_edges": tree.num_edges,
            "runtime_seconds": time.perf_counter() - started,
        },
    )
