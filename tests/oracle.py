"""The dict ws-q engine: the independent oracle of the bit-identity fuzz.

:class:`~repro.core.service.ConnectorService` sweeps with one engine, the
CSR array engine of :mod:`repro.core.fastpath`.  :class:`DictOracleEngine`
is a second, structurally different implementation of the same per-root
work — a fresh hashable-node ``WeightedGraph`` per ``(root, λ)``
instance, dict/deque BFS, heap Dijkstra — with every tie broken through
the canonical node order map, so it must return the *same* connectors as
the CSR engine, bit for bit.

The oracle speaks the CSR engine's interface (``apply_delta(delta,
new_csr)`` included), so tests install it through the one attribute that
holds a service's engine and then drive the unchanged λ×root sweep::

    service = use_oracle(ConnectorService(graph, options))
    assert service.solve(query).nodes == wiener_steiner(graph, query).nodes

:func:`oracle_solve` is the oracle twin of one-shot ``wiener_steiner``.
"""

from __future__ import annotations

import math
import random

from repro.core.adjust import adjust_distances
from repro.core.lru import LRUCache
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService
from repro.core.steiner import mehlhorn_steiner_tree
from repro.core.wiener_steiner import EXACT_SCORING_THRESHOLD
from repro.graphs.csr import order_map
from repro.graphs.graph import Graph, Node, WeightedGraph
from repro.graphs.traversal import bfs_distances, bfs_tree_canonical
from repro.graphs.wiener import rooted_distance_sum, wiener_index

#: Parametrization ids of the engine-identity tests: ``"csr"`` is the
#: service's own engine, ``"dict"`` the oracle installed in its place.
ENGINES = ("dict", "csr")


class DictOracleEngine:
    """The pure-Python reference engine (hashable nodes, dict adjacency).

    Shares the host graph with its service by reference: the service's
    version index mutates that graph in place before calling
    :meth:`apply_delta`, so the oracle always reads the current epoch.
    """

    def __init__(
        self, graph: Graph, max_cached_roots: int | None = None
    ) -> None:
        self.graph = graph
        self._order = order_map(graph)
        self._root_cache = LRUCache(max_cached_roots)

    def _root_data(self, root: Node) -> tuple[dict, dict]:
        cached = self._root_cache.get(root)
        if cached is None:
            cached = bfs_tree_canonical(self.graph, root, self._order)
            self._root_cache.put(root, cached)
        return cached

    @property
    def cached_roots(self) -> int:
        return len(self._root_cache)

    def unreachable_queries(self, root: Node, query_set) -> list[Node]:
        distances = self._root_data(root)[0]
        return [q for q in query_set if q not in distances]

    def candidates_for_root(
        self, root: Node, lams, query_set, adjust: bool
    ) -> list[frozenset[Node]]:
        """Lines 7–11 of Algorithm 1 for one root across a λ batch.

        Each λ rebuilds ``G_{r,λ}`` from one shared arc list: every edge
        with both endpoints reachable from the root, weighted
        ``λ + max(d_r(u), d_r(v)) / λ`` (Lemma 4).
        """
        host_distances, host_parents = self._root_data(root)
        node_list = list(self.graph.nodes())
        arcs: list[tuple[Node, Node, int]] = []
        for u, v in self.graph.edges():
            du = host_distances.get(u)
            dv = host_distances.get(v)
            if du is None or dv is None:
                continue
            arcs.append((u, v, du if du >= dv else dv))
        terminals = set(query_set) | {root}
        candidates: list[frozenset[Node]] = []
        for lam in lams:
            reweighted = WeightedGraph()
            for node in node_list:
                reweighted.add_node(node)
            for u, v, gap in arcs:
                reweighted.add_edge(u, v, lam + gap / lam)
            tree = mehlhorn_steiner_tree(
                reweighted, terminals, assume_positive_weights=True
            )
            if adjust:
                adjusted = adjust_distances(
                    self.graph,
                    tree,
                    root,
                    bfs_distances_map=host_distances,
                    bfs_parents_map=host_parents,
                )
                nodes = set(adjusted.nodes())
            else:
                nodes = set(tree.nodes())
            nodes |= query_set
            candidates.append(frozenset(nodes))
        return candidates

    def host_distances(self, root: Node, nodes) -> list[int]:
        distances = self._root_data(root)[0]
        return [distances[node] for node in nodes]

    def induced_edge_count(self, nodes) -> int:
        members = set(nodes)
        degree_sum = sum(
            1
            for node in members
            for neighbor in self.graph.neighbors(node)
            if neighbor in members
        )
        return degree_sum // 2

    def score_exact(self, nodes) -> float:
        return wiener_index(self.graph.subgraph(nodes))

    def score_proxy(self, nodes, root: Node) -> float:
        return len(nodes) * rooted_distance_sum(self.graph.subgraph(nodes), root)

    def score_sampled(self, nodes, num_sources: int, seed: int) -> float:
        """Remark-1 sampled Wiener estimate, sources drawn as positions
        into the canonically sorted node list (the CSR engine's rule)."""
        ordered = sorted(nodes, key=self._order.__getitem__)
        n = len(ordered)
        if n < 2:
            return 0.0
        sub = self.graph.subgraph(nodes)
        if num_sources >= n:
            return wiener_index(sub)
        positions = random.Random(seed).sample(range(n), num_sources)
        total = 0
        for position in positions:
            distances = bfs_distances(sub, ordered[position])
            if len(distances) != n:
                return math.inf
            total += sum(distances.values())
        return (total / num_sources) * n / 2

    def apply_delta(self, delta, new_csr) -> tuple[int, int]:
        """Scoped root-cache invalidation; returns ``(retained, evicted)``.

        ``new_csr`` is accepted for interface parity and ignored: the
        shared graph has already been mutated, while the cached entries
        still describe the pre-delta epoch.  An entry survives only when
        the delta provably preserves its BFS tree — inserts between
        unreachable endpoints or at equal depth, gap-1 inserts (with the
        deeper endpoint's canonical parent fixed up), deletes between
        unreachable endpoints or with a gap other than 1.  A delta that
        adds nodes evicts everything and rebuilds the order map.
        """
        del new_csr
        if self.graph.num_nodes != len(self._order):
            evicted = self._root_cache.clear()
            self._order = order_map(self.graph)
            return 0, evicted
        order = self._order
        retained = evicted = 0
        for root in self._root_cache.keys():
            distances, parents = self._root_cache.peek(root)
            safe = True
            fixups: list[tuple[Node, Node]] = []
            for u, v in delta.inserts:
                du = distances.get(u)
                dv = distances.get(v)
                if du is None and dv is None:
                    continue
                if du is None or dv is None:
                    safe = False
                    break
                gap = du - dv
                if gap == 0:
                    continue
                if abs(gap) == 1:
                    deep, shallow = (u, v) if gap > 0 else (v, u)
                    fixups.append((deep, shallow))
                    continue
                safe = False
                break
            if safe:
                for u, v in delta.deletes:
                    du = distances.get(u)
                    dv = distances.get(v)
                    if du is None and dv is None:
                        continue
                    if du is None or dv is None or abs(du - dv) == 1:
                        safe = False
                        break
            if not safe:
                self._root_cache.pop(root)
                evicted += 1
                continue
            for deep, shallow in fixups:
                current = parents.get(deep)
                if current is not None and order[shallow] < order[current]:
                    parents[deep] = shallow
            retained += 1
        return retained, evicted


def use_oracle(service: ConnectorService) -> ConnectorService:
    """Install the oracle as ``service``'s engine; returns the service."""
    service._engine = DictOracleEngine(
        service.graph, max_cached_roots=service._max_cached_roots
    )
    return service


def make_service(graph: Graph, options=None, engine: str = "csr", **kwargs):
    """A service sweeping with ``engine`` — one of :data:`ENGINES`."""
    service = ConnectorService(graph, options, **kwargs)
    return use_oracle(service) if engine == "dict" else service


def oracle_solve(
    graph: Graph,
    query,
    beta: float = 1.0,
    roots=None,
    selection: str = "auto",
    adjust: bool = True,
    lambda_values=None,
):
    """The oracle twin of one-shot ``wiener_steiner`` (same signature)."""
    options = SolveOptions(
        beta=beta,
        roots=tuple(roots) if roots is not None else None,
        selection=selection,
        adjust=adjust,
        lambda_values=tuple(lambda_values) if lambda_values is not None else None,
        exact_threshold=EXACT_SCORING_THRESHOLD,
    )
    service = ConnectorService(graph, options, max_cached_roots=None)
    return use_oracle(service).solve(query)
