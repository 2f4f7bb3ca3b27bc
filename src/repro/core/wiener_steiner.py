"""``WienerSteiner`` — Algorithm 1, the paper's main contribution.

A constant-factor approximation for Min Wiener Connector running in
``Õ(|Q| |E|)``:

1. compute BFS distances from every query vertex (line 1);
2. sweep a geometric grid of the balance parameter ``λ`` (Lemma 3 shows the
   right value lies in ``[1/√2, √|V|]``; a ``(1+β)`` grid loses only a
   ``(1+β)²`` factor — Step 5 of Section 4);
3. for every candidate root ``r ∈ Q`` (Lemma 5 licenses restricting roots
   to the query set) build the reweighted graph ``G_{r,λ}`` with edge
   weights ``λ + max(d_G(r,u), d_G(r,v)) / λ`` (Lemma 4) and run Mehlhorn's
   Steiner 2-approximation on terminals ``Q ∪ {r}``;
4. rebalance the resulting tree with ``AdjustDistances`` (Lemma 2);
5. keep the candidate minimizing ``A(H, r)`` — or, following Remark 1, the
   exact Wiener index when the candidate is small enough to afford it.

Architecture
------------

The λ×root sweep (grid, root list, dedup, scoring policy, selection) lives
in :class:`repro.core.service.ConnectorService`, which keeps the engine,
root BFS data, candidates, scores and results cached across queries.  The
per-``(r, λ)`` candidate construction and the scoring kernels run on one
engine, :class:`repro.core.fastpath.CSRWienerSteinerEngine`: the graph is
relabeled once to ``0..n-1`` int arrays, and BFS caches, reweighting,
Steiner solving and scoring all run on numpy/scipy arrays.  Every tie is
broken by the canonical relabeled index (see
:func:`repro.graphs.csr.order_map`).

This module is the *reference layer*: the λ grid and
:func:`wiener_steiner`, the stable one-shot entry point — a throwaway
service per call.  Code that solves two or more queries on one graph
should hold a ``ConnectorService`` and call ``solve_many``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.graphs.graph import Graph, Node

#: Candidates at most this large are scored with the exact Wiener index
#: when ``selection="auto"`` (Remark 1: exact scoring is affordable because
#: solutions are typically small).
EXACT_SCORING_THRESHOLD = 600


def wiener_steiner(
    graph: Graph,
    query: Iterable[Node],
    beta: float = 1.0,
    roots: Iterable[Node] | None = None,
    selection: str = "auto",
    adjust: bool = True,
    lambda_values: Iterable[float] | None = None,
) -> ConnectorResult:
    """Return an approximate minimum Wiener connector for ``query``.

    Parameters
    ----------
    graph:
        The host graph ``G`` — connected, simple, undirected, unweighted.
        A stream-built :class:`~repro.graphs.csr.CSRGraph` is accepted too.
    query:
        The query set ``Q`` (at least one vertex, all in ``G``).
    beta:
        Grid resolution for the λ sweep; the paper suggests ``β = 1``.
        Smaller β tries more λ values (better quality, more time).
    roots:
        Candidate roots; defaults to ``Q`` (Lemma 5).  Pass all of
        ``graph.nodes()`` to ablate the root restriction.
    selection:
        ``"a"`` scores candidates by the proxy ``A(H, r)`` (the worst-case
        analysis of Theorem 4); ``"wiener"`` scores every candidate by its
        exact Wiener index; ``"auto"`` (default) uses exact scoring for
        candidates up to :data:`EXACT_SCORING_THRESHOLD` vertices and the
        proxy beyond; ``"sampled"`` replaces that proxy tail with the
        Remark-1 sampled Wiener estimator.
    adjust:
        Apply the Lemma-2 ``AdjustDistances`` rebalancing (default).  The
        approximation guarantee needs it; turning it off is an ablation.
    lambda_values:
        Explicit λ grid overriding the geometric sweep.

    Returns
    -------
    ConnectorResult
        With ``metadata`` keys ``root``, ``lambda``, ``candidates``
        (number of distinct candidate vertex sets scored) and
        ``runtime_seconds``.

    Raises
    ------
    InvalidQueryError
        If ``query`` is empty, or ``query`` or ``roots`` mentions vertices
        outside the graph.
    DisconnectedGraphError
        If the query vertices do not lie in one connected component.
    """
    from repro.core.options import SolveOptions
    from repro.core.service import ConnectorService
    from repro.graphs.csr import CSRGraph

    options = SolveOptions(
        beta=beta,
        roots=tuple(roots) if roots is not None else None,
        selection=selection,
        adjust=adjust,
        lambda_values=tuple(lambda_values) if lambda_values is not None else None,
        exact_threshold=EXACT_SCORING_THRESHOLD,
    )
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    # A throwaway service sweeps once and dies: an unbounded root cache is
    # right here (every root is revisited per λ pass), while the service
    # default LRU bound would thrash on sweeps with many hundreds of roots.
    service = ConnectorService(None, options, csr=csr, max_cached_roots=None)
    return service.solve(query)


#: Public alias matching the paper's problem name.
minimum_wiener_connector = wiener_steiner


def _lambda_grid(num_nodes: int, beta: float) -> list[float]:
    """Geometric grid of λ values covering ``[1/√2, √|V|]`` (Lemma 3)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    low = 1 / math.sqrt(2)
    high = math.sqrt(max(num_nodes, 2))
    grid = []
    value = low
    while value < high:
        grid.append(value)
        value *= 1 + beta
    grid.append(high)
    return grid
