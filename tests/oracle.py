"""The dict ws-q engine: the independent oracle of the bit-identity fuzz.

:class:`~repro.core.service.ConnectorService` sweeps with one engine, the
CSR array engine of :mod:`repro.core.fastpath`.  :class:`DictOracleEngine`
is a second, structurally different implementation of the same per-root
work — a fresh hashable-node ``WeightedGraph`` per ``(root, λ)``
instance, dict/deque BFS, heap Dijkstra — with every tie broken through
the canonical node order map, so it must return the *same* connectors as
the CSR engine, bit for bit.

:func:`mehlhorn_steiner_tree` is the oracle's Mehlhorn, classic and
all its own: phase 1 (:func:`dijkstra_distances_canonical`, then
:func:`canonical_forest_from_distances` and a dict crossing-edge scan)
and phases 2–3 (:func:`classic_tree_from_voronoi`: the distance-network
MST, path expansion, the re-spanning MST and the non-terminal leaf
strip).  It is the reference the CSR kernel ``mehlhorn_steiner_csr`` —
which returns the bridge-path union and skips the last two steps — and
the ``st`` baseline are compared against.

The oracle speaks the CSR engine's interface (``apply_delta(delta,
new_csr)`` included), so tests install it through the one attribute that
holds a service's engine and then drive the unchanged λ×root sweep.  The
service holds only CSR arrays, so the oracle gets its own copy of the
graph the service was built from::

    service = use_oracle(ConnectorService(graph, options), graph)
    assert service.solve(query).nodes == wiener_steiner(graph, query).nodes

:func:`oracle_solve` is the oracle twin of one-shot ``wiener_steiner``.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Iterable

from repro.core.adjust import adjust_distances
from repro.core.lru import LRUCache
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService
from repro.core.wiener_steiner import EXACT_SCORING_THRESHOLD
from repro.errors import DisconnectedGraphError, InvalidQueryError
from repro.graphs.csr import order_map
from repro.graphs.graph import Graph, Node, WeightedGraph
from repro.graphs.traversal import bfs_distances, bfs_tree_canonical
from repro.graphs.unionfind import UnionFind
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

    tree_nodes, tree_edges = classic_tree_from_voronoi(
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


def classic_tree_from_voronoi(
    terminal_indices: list[int],
    candidates: dict[tuple[int, int], tuple[float, int, int]],
    parent_of,
    weight_of,
) -> tuple[list[int], list[tuple[int, int]]]:
    """Classic Mehlhorn phases 2–3 in index space, every ordering canonical.

    The distance-network MST over the best crossing edge per terminal pair
    (Kruskal by ``(length, pair)``), each bridge expanded into its two
    forest paths back to the sources, a Kruskal re-span of that union by
    ``(weight, edge)``, and a strip of non-terminal leaves.  Returns sorted
    node indices and sorted ``(lo, hi)`` edges.
    """
    ordered = sorted(candidates.items(), key=lambda item: (item[1][0], item[0]))
    forest = UnionFind(terminal_indices)
    bridges: list[tuple[int, int]] = []
    for (source_a, source_b), (_, u_idx, v_idx) in ordered:
        if forest.union(source_a, source_b):
            bridges.append((u_idx, v_idx))
    if forest.num_sets > 1:
        raise DisconnectedGraphError("terminals lie in different components")

    union_nodes: set[int] = set(terminal_indices)
    union_edges: set[tuple[int, int]] = set()
    for u_idx, v_idx in bridges:
        union_edges.add((u_idx, v_idx) if u_idx < v_idx else (v_idx, u_idx))
        union_nodes.add(u_idx)
        union_nodes.add(v_idx)
        for endpoint in (u_idx, v_idx):
            node = endpoint
            while True:
                parent = parent_of(node)
                if parent < 0:
                    break
                union_edges.add(
                    (node, parent) if node < parent else (parent, node)
                )
                union_nodes.add(parent)
                node = parent

    # Re-span the union (Kruskal, canonical ordering) ...
    mst_order = sorted(union_edges, key=lambda e: (weight_of(*e), e))
    spanning = UnionFind(sorted(union_nodes))
    adjacency: dict[int, list[int]] = {idx: [] for idx in sorted(union_nodes)}
    mst_edges: list[tuple[int, int]] = []
    for a, b in mst_order:
        if spanning.union(a, b):
            mst_edges.append((a, b))
            adjacency[a].append(b)
            adjacency[b].append(a)

    # ... and strip non-terminal leaves (the fixpoint is order-independent).
    terminal_set = set(terminal_indices)
    degree = {idx: len(neighbors) for idx, neighbors in adjacency.items()}
    removable = [
        idx for idx in adjacency if degree[idx] <= 1 and idx not in terminal_set
    ]
    removed: set[int] = set()
    while removable:
        idx = removable.pop()
        if idx in removed or degree[idx] > 1:
            continue
        removed.add(idx)
        for neighbor in adjacency[idx]:
            if neighbor in removed:
                continue
            degree[neighbor] -= 1
            if degree[neighbor] <= 1 and neighbor not in terminal_set:
                removable.append(neighbor)

    nodes = sorted(union_nodes - removed)
    edges = sorted(
        (a, b)
        for a, b in mst_edges
        if a not in removed and b not in removed
    )
    return nodes, edges


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

    Owns its host graph: :func:`use_oracle` hands it a private copy, and
    :meth:`apply_delta` replays every delta onto that copy with
    ``GraphDelta.apply_to_graph``.  It never reads the service's CSR
    arrays, so the mutation fuzz compares two independent replays.
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
        """Replay ``delta`` onto the oracle's own graph, then scope-invalidate.

        Returns ``(retained, evicted)``.  ``new_csr`` is accepted for
        interface parity and ignored.  The cached entries still describe
        the pre-delta epoch.  An entry survives only when
        the delta provably preserves its BFS tree — inserts between
        unreachable endpoints or at equal depth, gap-1 inserts (with the
        deeper endpoint's canonical parent fixed up), deletes between
        unreachable endpoints or with a gap other than 1.  A delta that
        adds nodes evicts everything and rebuilds the order map.
        """
        del new_csr
        delta.apply_to_graph(self.graph)
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


def use_oracle(service: ConnectorService, graph: Graph) -> ConnectorService:
    """Install the oracle, over its own copy of ``graph``, as ``service``'s
    engine; returns the service.  ``graph`` must be the graph the service
    was built from."""
    service._engine = DictOracleEngine(
        graph.copy(), max_cached_roots=service._max_cached_roots
    )
    return service


def make_service(graph: Graph, options=None, engine: str = "csr", **kwargs):
    """A service sweeping with ``engine`` — one of :data:`ENGINES`."""
    service = ConnectorService(graph, options, **kwargs)
    return use_oracle(service, graph) if engine == "dict" else service


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
    return use_oracle(service, graph).solve(query)
