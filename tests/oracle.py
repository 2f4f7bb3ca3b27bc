"""The dict ws-q engine: the independent oracle of the bit-identity fuzz.

:class:`~repro.core.service.ConnectorService` sweeps with one engine, the
CSR array engine of :mod:`repro.core.fastpath`.  :class:`DictOracleEngine`
is a second, structurally different implementation of the same per-root
work — a fresh hashable-node ``WeightedGraph`` per ``(root, λ)``
instance, dict/deque BFS, heap Dijkstra — with every tie broken through
the canonical node order map, so it must return the *same* connectors as
the CSR engine, bit for bit.

:func:`mehlhorn_steiner_tree` is the oracle's Mehlhorn: its own phase 1
(:func:`dijkstra_distances_canonical`, then
:func:`canonical_forest_from_distances` and a dict crossing-edge scan)
feeding the kernel's phases 2–3, ``steiner_tree_from_voronoi``.  It is the
reference the CSR kernel ``mehlhorn_steiner_csr`` and the ``st`` baseline
are compared against.

The oracle speaks the CSR engine's interface (``apply_delta(delta,
new_csr)`` included), so tests install it through the one attribute that
holds a service's engine and then drive the unchanged λ×root sweep::

    service = use_oracle(ConnectorService(graph, options))
    assert service.solve(query).nodes == wiener_steiner(graph, query).nodes

:func:`oracle_solve` is the oracle twin of one-shot ``wiener_steiner``.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Iterable

from repro.core.adjust import adjust_distances
from repro.core.fastpath import steiner_tree_from_voronoi
from repro.core.lru import LRUCache
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService
from repro.core.wiener_steiner import EXACT_SCORING_THRESHOLD
from repro.errors import InvalidQueryError
from repro.graphs.csr import order_map
from repro.graphs.graph import Graph, Node, WeightedGraph
from repro.graphs.traversal import bfs_distances, bfs_tree_canonical
from repro.graphs.wiener import rooted_distance_sum, wiener_index

#: Parametrization ids of the engine-identity tests: ``"csr"`` is the
#: service's own engine, ``"dict"`` the oracle installed in its place.
ENGINES = ("dict", "csr")


def mehlhorn_steiner_tree(
    graph: WeightedGraph, terminals: Iterable[Node]
) -> WeightedGraph:
    """The dict Mehlhorn 2-approximation; weights must be strictly positive.

    The returned :class:`WeightedGraph` is a tree whose nodes include all
    terminals and whose edge weights are copied from the host graph.
    Nodes and edges are inserted in canonical (relabeled-index) order, so
    relabeling ``mehlhorn_steiner_csr``'s output the same way gives an
    equal tree.

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
    if len(terminal_list) == 1:
        singleton = WeightedGraph()
        singleton.add_node(terminal_list[0])
        return singleton

    order = order_map(graph)
    node_of = list(graph.nodes())
    terminal_indices = sorted(order[t] for t in terminal_list)
    distances = dijkstra_distances_canonical(graph, terminal_list, order, node_of)
    parents, closest = canonical_forest_from_distances(
        graph, distances, order, node_of, terminal_indices
    )

    # Phase 2 input: for every terminal pair, the best crossing edge by the
    # canonical key (length, min endpoint index, max endpoint index).  The
    # length is always evaluated as dist[lo] + w + dist[hi], so the floats
    # match the CSR kernel's whatever the edge orientation.
    candidates: dict[tuple[int, int], tuple[float, int, int]] = {}
    for u, v, weight in graph.edges():
        u_idx, v_idx = order[u], order[v]
        source_u, source_v = closest[u_idx], closest[v_idx]
        if source_u < 0 or source_v < 0 or source_u == source_v:
            continue
        if u_idx > v_idx:
            u_idx, v_idx = v_idx, u_idx
        key = (
            (source_u, source_v) if source_u < source_v else (source_v, source_u)
        )
        entry = (distances[u_idx] + weight + distances[v_idx], u_idx, v_idx)
        best = candidates.get(key)
        if best is None or entry < best:
            candidates[key] = entry

    tree_nodes, tree_edges = steiner_tree_from_voronoi(
        terminal_indices,
        candidates,
        parents.__getitem__,
        lambda a, b: graph.weight(node_of[a], node_of[b]),
    )

    result = WeightedGraph()
    for index in tree_nodes:
        result.add_node(node_of[index])
    for a, b in tree_edges:
        result.add_edge(node_of[a], node_of[b], graph.weight(node_of[a], node_of[b]))
    return result


def dijkstra_distances_canonical(
    graph: WeightedGraph,
    sources: Iterable[Node],
    order: dict[Node, int],
    node_of: list[Node],
) -> list[float]:
    """Multi-source heap Dijkstra distances, in index space.

    Distances carry no tie ambiguity — the float min-plus fixpoint is
    unique for non-negative weights — so this returns the exact same
    values as scipy's C Dijkstra or any other correct implementation.
    """
    n = len(node_of)
    inf = math.inf
    dist = [inf] * n
    best = [inf] * n
    settled = bytearray(n)
    heap: list[tuple[float, int]] = []
    for source in dict.fromkeys(sources):
        source_idx = order[source]
        best[source_idx] = 0.0
        heap.append((0.0, source_idx))
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, u_idx = pop(heap)
        if settled[u_idx]:
            continue
        settled[u_idx] = 1
        dist[u_idx] = d
        for v, weight in graph.neighbors(node_of[u_idx]).items():
            v_idx = order[v]
            if settled[v_idx]:
                continue
            candidate = d + weight
            if candidate < best[v_idx]:
                best[v_idx] = candidate
                push(heap, (candidate, v_idx))
    return dist


def canonical_forest_from_distances(
    graph: WeightedGraph,
    dist: list[float],
    order: dict[Node, int],
    node_of: list[Node],
    terminal_indices: list[int],
) -> tuple[list[int], list[int]]:
    """The canonical Voronoi forest as a pure function of exact distances.

    Requires strictly positive weights.  ``parent[v]`` is the *tight*
    inbound neighbor — ``dist[u] + w(u, v) == dist[v]``, bit-exact —
    minimizing ``(dist[u], u)``; ``closest[v]`` is the root of the
    resulting forest (always a source: positive weights force
    ``dist[parent] < dist[child]``, so chains terminate at distance 0).
    This is the edge-by-edge twin of the CSR kernel's vectorized
    ``_voronoi_from_distances``.
    """
    n = len(node_of)
    inf = math.inf
    parent = [-1] * n
    for v_idx in range(n):
        dv = dist[v_idx]
        if dv == inf:
            continue
        best_dist = inf
        best_parent = -1
        for u, weight in graph.neighbors(node_of[v_idx]).items():
            u_idx = order[u]
            du = dist[u_idx]
            if du == inf:
                continue
            if du + weight == dv and (
                du < best_dist or (du == best_dist and u_idx < best_parent)
            ):
                best_dist = du
                best_parent = u_idx
        parent[v_idx] = best_parent
    closest = [-1] * n
    for terminal_idx in terminal_indices:
        parent[terminal_idx] = -1
        closest[terminal_idx] = terminal_idx
    for start in range(n):
        if closest[start] != -1 or dist[start] == inf:
            continue
        path = [start]
        node = parent[start]
        while node != -1 and closest[node] == -1:
            path.append(node)
            node = parent[node]
        root = closest[node] if node != -1 else -1
        for member in path:
            closest[member] = root
    return parent, closest


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
            tree = mehlhorn_steiner_tree(reweighted, terminals)
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
