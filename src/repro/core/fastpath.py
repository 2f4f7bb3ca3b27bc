"""CSR fast path for WienerSteiner — the array backend of Algorithm 1.

The seed implementation rebuilt a hashable-node ``WeightedGraph`` for every
``(root, λ)`` Steiner instance and ran every traversal as dict/deque BFS.
This module keeps a single :class:`~repro.graphs.csr.CSRGraph` for the
whole sweep and replaces each inner loop with array operations:

* line 1 of Algorithm 1 (one BFS per candidate root) uses the vectorized
  frontier BFS of :meth:`CSRGraph.bfs_tree`, cached per root;
* the Lemma-4 reweighting ``w(u,v) = λ + max(d_r(u), d_r(v))/λ`` becomes
  two in-place numpy operations per λ over a ``max(d_r[u], d_r[v])`` arc
  array gathered once per root batch, written straight into one reusable
  scipy matrix buffer — instead of ``O(|E|)`` dict inserts per
  ``(root, λ)`` pair;
* Mehlhorn phase 1 (:func:`mehlhorn_steiner_csr`) gets its distances
  from scipy's C Dijkstra, rebuilds the canonical Voronoi forest from
  them by selecting one parent per CSR row (no sort), and reduces the
  crossing-edge candidates with one scatter-min;
* candidate scoring reuses the CSR structure through
  :meth:`CSRGraph.induced` index masks instead of ``graph.subgraph``
  rebuilds.

Tie-breaking everywhere is by the relabeled integer index — the canonical
order of :func:`repro.graphs.csr.order_map`.  Phases 2–3 of Mehlhorn
(:func:`steiner_tree_from_voronoi`, which returns the bridge-path union
without re-spanning or stripping leaves) live here too, so this module
holds the library's only Steiner kernel: the ``st`` baseline
(:func:`repro.core.steiner.steiner_tree_unweighted`) runs it with unit
weights.  The test suite's dict oracle (``tests/oracle.py``) runs classic
Mehlhorn independently, all three phases, so the engine must return its
connectors bit for bit.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.core.adjust import adjust_distances
from repro.core.lru import LRUCache
from repro.errors import DisconnectedGraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Node, WeightedGraph
from repro.graphs.unionfind import UnionFind

__all__ = [
    "CSRWienerSteinerEngine",
    "mehlhorn_steiner_csr",
    "steiner_tree_from_voronoi",
]


def _voronoi_phase(csr: CSRGraph, weights, terminals: list[int], matrix=None):
    """Mehlhorn phase 1: ``(dist, parent, closest)`` of the Voronoi forest.

    Every ``G_{r,λ}`` weight is ``≥ λ > 0``, so only the *distances* need
    a Dijkstra — scipy's C implementation; the float min-plus fixpoint is
    unique for positive weights, so any correct Dijkstra gives the same
    bits — and the canonical ``(parent, closest)`` are a pure function of
    the distance array (:func:`_voronoi_from_distances`).
    """
    if matrix is None:
        n = csr.num_nodes
        matrix = _scipy_csr_matrix((weights, csr.indices, csr.indptr), shape=(n, n))
    dist = _scipy_dijkstra(matrix, directed=True, indices=terminals, min_only=True)
    parent, closest = _voronoi_from_distances(csr, weights, dist, terminals)
    return dist, parent, closest


def _voronoi_from_distances(
    csr: CSRGraph, weights, dist_arr, terminals: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The canonical Voronoi forest as a pure function of exact distances.

    A node's parent is the *tight* inbound neighbor — ``dist[u] + w(u, v)
    == dist[v]``, bit-exact — minimizing ``(dist[u], u)``; ``closest`` is
    the root of the resulting forest (every root is a source, because
    strictly positive weights force ``dist[parent] < dist[child]``).  The
    test suite's dict oracle applies the same rule edge by edge
    (``tests/oracle.py``), so both reconstruct the same forest from the
    same distances.

    No sort: the graph is undirected, so CSR row ``v`` lists ``v``'s
    inbound neighbors in ascending index order, each with the weight the
    dict oracle reads from ``v``'s adjacency.  Unreachable distances become
    NaN, so no comparison against them holds; a scatter-min per row finds
    the smallest tight ``dist[u]``, and the first position in the row that
    reaches it is the lowest-index parent.  Roots come from pointer
    doubling.  Returns ``(parent, closest)`` as ``int64`` arrays, ``-1``
    for none.
    """
    rows = csr.arc_src
    num_nodes = csr.num_nodes
    finite = np.isfinite(dist_arr)
    reached = np.where(finite, dist_arr, np.nan)
    tail_dist = reached[csr.indices]
    tight = np.flatnonzero(tail_dist + weights == reached[rows])
    tight_rows = rows[tight]
    tail_dist = tail_dist[tight]
    row_min = np.full(num_nodes, np.inf)
    np.minimum.at(row_min, tight_rows, tail_dist)
    best = tail_dist == row_min[tight_rows]
    tight_rows = tight_rows[best]
    first = np.ones(tight_rows.size, dtype=bool)
    first[1:] = tight_rows[1:] != tight_rows[:-1]
    parent = np.full(num_nodes, -1, dtype=np.int64)
    parent[tight_rows[first]] = csr.indices[tight[best][first]]
    # Sources never have tight inbound arcs (w > 0), but pin them anyway.
    parent[np.asarray(terminals, dtype=np.int64)] = -1
    jump = np.where(parent >= 0, parent, np.arange(num_nodes, dtype=np.int64))
    while True:
        doubled = jump[jump]
        if np.array_equal(doubled, jump):
            break
        jump = doubled
    closest = jump
    closest[~finite] = -1
    return parent, closest


def _crossing_candidates(
    csr: CSRGraph,
    weights,
    dist_arr,
    closest_arr,
    terminals_arr,
) -> dict[tuple[int, int], tuple[float, int, int]]:
    """Best crossing edge per terminal pair, via a scatter-min over arcs.

    Matches the dict oracle's per-key minimum of
    ``(length, min endpoint, max endpoint)`` exactly: lengths are always
    evaluated as ``dist[lo] + w + dist[hi]`` over the ``lo < hi`` arc
    orientation (bit-identical floats), ``np.minimum.at`` finds the exact
    minimum length per terminal pair, and length ties fall back to the
    first matching arc — arcs arrive in CSR order, which *is* ascending
    ``(lo, hi)``, so the tie-break is the canonical one.
    """
    positions, tails, heads = csr.half_arcs
    half_weights = weights[positions]
    source_a = closest_arr[tails]
    source_b = closest_arr[heads]
    mask = (source_a >= 0) & (source_b >= 0) & (source_a != source_b)
    mask &= np.isfinite(half_weights)
    if not bool(mask.any()):
        return {}
    lo = tails[mask]
    hi = heads[mask]
    lengths = dist_arr[lo] + half_weights[mask] + dist_arr[hi]
    # Compact the source labels (node indices) to 0..t-1 terminal slots so
    # the scatter-min target stays tiny.
    slot_a = np.searchsorted(terminals_arr, source_a[mask])
    slot_b = np.searchsorted(terminals_arr, source_b[mask])
    pair_key = (
        np.minimum(slot_a, slot_b) * len(terminals_arr)
        + np.maximum(slot_a, slot_b)
    )
    if len(terminals_arr) ** 2 <= 1 << 22:
        min_length = np.full(len(terminals_arr) ** 2, np.inf)
    else:
        # Huge terminal sets: a dense |T|^2 scatter-min target would be
        # gigabytes; compact to the pairs actually present instead.
        unique_keys, pair_key = np.unique(pair_key, return_inverse=True)
        min_length = np.full(len(unique_keys), np.inf)
    np.minimum.at(min_length, pair_key, lengths)
    candidates: dict[tuple[int, int], tuple[float, int, int]] = {}
    for i in np.flatnonzero(lengths <= min_length[pair_key]):
        a = int(terminals_arr[slot_a[i]])
        b = int(terminals_arr[slot_b[i]])
        key = (a, b) if a < b else (b, a)
        if key not in candidates:
            candidates[key] = (float(lengths[i]), int(lo[i]), int(hi[i]))
    return candidates


def mehlhorn_steiner_csr(
    csr: CSRGraph,
    weights,
    terminal_indices: Iterable[int],
    matrix=None,
) -> tuple[list[int], list[tuple[int, int]]]:
    """Mehlhorn's 2-approximation consuming ``(indptr, indices, weights)``.

    Returns ``(nodes, edges)`` of the Steiner tree in index space:
    sorted nodes and sorted ``(lo, hi)`` edges — identical to what the
    test suite's dict oracle (``tests/oracle.py``) returns, after
    relabeling, on the equivalent ``WeightedGraph``.
    ``matrix`` lets a caller reuse a preassembled scipy matrix over the
    same arrays whose data buffer already holds ``weights`` (the engine
    writes each λ's weights straight into it, skipping scipy's
    construction-time validation).  Arcs weighted ``+inf`` are absent.

    Raises
    ------
    ValueError
        If any weight is zero or negative (every ``G_{r,λ}`` weight is
        ``≥ λ > 0``; the canonical forest needs strictly positive ones).
    DisconnectedGraphError
        If the terminals do not lie in a single component.
    """
    if len(weights) and not float(weights.min()) > 0.0:
        raise ValueError("mehlhorn_steiner_csr needs strictly positive weights")
    terminals = sorted(set(int(t) for t in terminal_indices))
    if len(terminals) == 1:
        return terminals, []
    dist, parent, closest = _voronoi_phase(csr, weights, terminals, matrix)
    terminals_arr = np.asarray(terminals, dtype=np.int64)
    candidates = _crossing_candidates(csr, weights, dist, closest, terminals_arr)
    return steiner_tree_from_voronoi(terminals, candidates, lambda v: int(parent[v]))


def steiner_tree_from_voronoi(
    terminal_indices: list[int],
    candidates: dict[tuple[int, int], tuple[float, int, int]],
    parent_of: Callable[[int], int],
) -> tuple[list[int], list[tuple[int, int]]]:
    """Phases 2–3 of Mehlhorn: distance-network MST and bridge-path expansion.

    Everything happens in relabeled-index space and every ordering is
    canonical, so the output depends only on the (deterministic) Voronoi
    phase, never on hash iteration order.

    The union of the MST's bridges and their forest paths is already the
    Steiner tree, so classic Mehlhorn's re-spanning MST and non-terminal
    leaf strip are skipped: each path climbs the canonical Voronoi forest
    to its cell's terminal, so the paths form one subtree per cell; the
    ``t − 1`` bridges join the cells as a tree; and every non-terminal on
    a path keeps its parent edge plus a child or bridge edge, so no leaf is
    a non-terminal.  The test suite's dict oracle (``tests/oracle.py``)
    still runs the classic steps, so the bit-identity fuzz checks this.

    Parameters
    ----------
    terminal_indices:
        Sorted terminal indices.
    candidates:
        ``(min source idx, max source idx) -> (length, min endpoint idx,
        max endpoint idx)`` — the best crossing edge per terminal pair.
    parent_of:
        Voronoi shortest-path forest accessor (``-1`` for roots).

    Returns
    -------
    (nodes, edges)
        Sorted node indices and canonically sorted edge index pairs of the
        Steiner tree.

    Raises
    ------
    DisconnectedGraphError
        If the candidate edges cannot connect all terminals.
    """
    ordered = sorted(candidates.items(), key=lambda item: (item[1][0], item[0]))
    forest = UnionFind(terminal_indices)
    bridges: list[tuple[int, int]] = []
    for (source_a, source_b), (_, u_idx, v_idx) in ordered:
        if forest.union(source_a, source_b):
            bridges.append((u_idx, v_idx))
    if forest.num_sets > 1:
        raise DisconnectedGraphError("terminals lie in different components")

    # Expand every bridge into its two shortest paths back to the sources.
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
    return sorted(union_nodes), sorted(union_edges)


class _IntArrayMapping:
    """Read-only ``Mapping[int, int]`` view of an int array with ``-1`` = absent."""

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        self._values = values

    def get(self, key: int, default=None):
        value = self._values[key]
        return int(value) if value >= 0 else default

    def __getitem__(self, key: int) -> int:
        value = self._values[key]
        if value < 0:
            raise KeyError(key)
        return int(value)

    def __contains__(self, key: int) -> bool:
        return self._values[key] >= 0


class _IndexHost:
    """The minimal host-graph facade :func:`adjust_distances` needs."""

    __slots__ = ("_num_nodes",)

    def __init__(self, num_nodes: int) -> None:
        self._num_nodes = num_nodes

    def has_node(self, node) -> bool:
        return isinstance(node, int) and 0 <= node < self._num_nodes


class CSRWienerSteinerEngine:
    """Array-backend engine behind ``wiener_steiner`` and the serving API.

    Holds the CSR arrays, the per-root BFS cache of ``(dist, parent)``
    arrays (the per-arc ``max(d_r[u], d_r[v])`` of the Lemma-4
    reweighting is gathered from ``dist`` per root batch, not cached), one
    reusable scipy matrix whose data buffer receives each λ's weights, and
    the scoring kernels.  It reads nothing but the CSR arrays: every
    :class:`repro.core.service.ConnectorService` — graph-built, bare-CSR
    or a shard replica — hands it the arrays its version index holds, and
    keeps it alive across queries so the root BFS data amortizes.

    Parameters
    ----------
    csr:
        The :class:`~repro.graphs.csr.CSRGraph` to sweep.
    max_cached_roots:
        LRU bound on the per-root BFS cache (each entry holds two
        ``O(|V|)`` arrays); ``None`` (default) means unbounded — right for a
        single sweep, wrong for a long-lived service.
    """

    def __init__(
        self, csr: CSRGraph, max_cached_roots: int | None = None
    ) -> None:
        self.csr = csr
        self._root_cache = LRUCache(max_cached_roots)
        self._matrix = None

    def _scipy_matrix(self):
        """A reusable scipy matrix over the CSR structure (weights buffer
        overwritten per candidate)."""
        if self._matrix is None:
            n = self.csr.num_nodes
            self._matrix = _scipy_csr_matrix(
                (
                    np.ones(len(self.csr.indices), dtype=np.float64),
                    self.csr.indices,
                    self.csr.indptr,
                ),
                shape=(n, n),
            )
        return self._matrix

    # -- line 1: per-root BFS cache -----------------------------------
    def _root_data(self, root: Node):
        cached = self._root_cache.get(root)
        if cached is None:
            cached = self.csr.bfs_tree(self.csr.index_of[root])
            self._root_cache.put(root, cached)
        return cached

    @property
    def cached_roots(self) -> int:
        """How many root BFS entries are currently cached."""
        return len(self._root_cache)

    def apply_delta(self, delta, new_csr: CSRGraph) -> tuple[int, int]:
        """Rebase onto post-delta arrays with scoped root-cache invalidation.

        Adopts ``new_csr`` (dropping the scipy matrix built over the old
        arrays), then decides each cached root entry's fate from its
        *pre-delta* ``dist`` array and the delta.  An entry survives only
        when the delta provably preserves its BFS tree:

        * insert ``(u, v)`` with both endpoints unreachable from the root,
          or with equal distances — the edge lies on no shortest path;
        * insert with distances differing by exactly 1 — distances are
          preserved (a shortcut needs a gap ≥ 2), and the deeper endpoint
          may gain a lower-index previous-level neighbor, fixed up in
          place;
        * delete with both endpoints unreachable, or with a distance gap
          ≠ 1 — shortest paths only use gap-1 edges.

        Everything else may move distances or parents, so the entry is
        evicted; a delta that adds nodes evicts every entry.  Retained
        entries keep their ``(dist, parent)`` arrays, with the gap-1
        insert parent fix-up applied in place; nothing in an entry
        depends on the arc layout, so nothing else needs rebasing.
        Returns ``(retained, evicted)``.
        """
        old_num_nodes = self.csr.num_nodes
        self.csr = new_csr
        self._matrix = None
        if new_csr.num_nodes != old_num_nodes:
            return 0, self._root_cache.clear()
        index_of = new_csr.index_of
        ins = [(index_of[u], index_of[v]) for u, v in delta.inserts]
        dels = [(index_of[u], index_of[v]) for u, v in delta.deletes]
        retained = evicted = 0
        for root in self._root_cache.keys():
            dist, parent = self._root_cache.peek(root)
            safe = True
            fixups: list[tuple[int, int]] = []
            for iu, iv in ins:
                du = int(dist[iu])
                dv = int(dist[iv])
                if du < 0 and dv < 0:
                    continue
                if du < 0 or dv < 0:
                    safe = False
                    break
                gap = du - dv
                if gap == 0:
                    continue
                if abs(gap) == 1:
                    deep, shallow = (iu, iv) if gap > 0 else (iv, iu)
                    fixups.append((deep, shallow))
                    continue
                safe = False
                break
            if safe:
                for iu, iv in dels:
                    du = int(dist[iu])
                    dv = int(dist[iv])
                    if du < 0 and dv < 0:
                        continue
                    if du < 0 or dv < 0 or abs(du - dv) == 1:
                        safe = False
                        break
            if not safe:
                self._root_cache.pop(root)
                evicted += 1
                continue
            for deep, shallow in fixups:
                if shallow < int(parent[deep]):
                    parent[deep] = shallow
            retained += 1
        return retained, evicted

    def unreachable_queries(self, root: Node, query_set) -> list[Node]:
        dist = self._root_data(root)[0]
        index_of = self.csr.index_of
        return [q for q in query_set if dist[index_of[q]] < 0]

    # -- lines 7-11: one root's candidates across the λ grid -----------
    def candidates_for_root(
        self, root: Node, lams, query_set, adjust: bool
    ) -> list[frozenset[Node]]:
        """Lines 7–11 for one root across a λ batch.

        The per-arc ``max(d_r[u], d_r[v])``, the unreachable-arc mask, the
        terminal index set and the root lookup are computed once per
        batch.  Each λ's Lemma-4 weights ``max/λ + λ`` are then written
        straight into the engine's reusable scipy matrix buffer — the same
        two float64 operations per element as ``λ + max/λ`` (addition
        commutes exactly), so every row is bit-identical to it — and no
        ``|grid| × |arcs|`` block is ever allocated.  Arcs inside
        components unreachable from the root are absent from
        ``G_{r,λ}``; ``+inf`` is the array equivalent.
        """
        dist, parent = self._root_data(root)
        arc_max = np.maximum(dist[self.csr.arc_src], dist[self.csr.indices])
        absent = np.flatnonzero(arc_max < 0)
        index_of = self.csr.index_of
        root_idx = index_of[root]
        terminals = sorted({index_of[q] for q in query_set} | {root_idx})
        weights = self._scipy_matrix().data
        built = []
        for lam in map(float, lams):
            np.divide(arc_max, lam, out=weights)
            weights += lam
            weights[absent] = np.inf
            built.append(
                self._candidate_from_weights(
                    weights, dist, parent, terminals, query_set, adjust,
                    root_idx,
                )
            )
        return built

    def _candidate_from_weights(
        self, weights, dist, parent, terminals, query_set, adjust: bool,
        root_idx: int,
    ) -> frozenset[Node]:
        tree_nodes, tree_edges = mehlhorn_steiner_csr(
            self.csr, weights, terminals, matrix=self._scipy_matrix()
        )
        if adjust:
            # Rebuild the (small) tree with dict adjacency in canonical
            # insertion order so AdjustDistances walks it exactly like the
            # dict oracle walks its label-space twin.
            tree = WeightedGraph()
            for idx in tree_nodes:
                tree.add_node(idx)
            for a, b in tree_edges:
                tree.add_edge(a, b, 1.0)
            adjusted = adjust_distances(
                _IndexHost(self.csr.num_nodes),
                tree,
                root_idx,
                bfs_distances_map=_IntArrayMapping(dist),
                bfs_parents_map=_IntArrayMapping(parent),
            )
            node_indices = set(adjusted.nodes())
        else:
            node_indices = set(tree_nodes)
        node_of = self.csr.node_of
        nodes = {node_of[i] for i in node_indices}
        nodes |= query_set
        return frozenset(nodes)

    # -- line 15: scoring via induced index masks ---------------------
    def score_exact(self, nodes) -> float:
        return self.csr.induced(self.csr.indices_for(nodes)).wiener_index()

    def score_proxy(self, nodes, root: Node) -> float:
        sub = self.csr.induced(self.csr.indices_for(nodes))
        return len(nodes) * sub.rooted_distance_sum(sub.index_of[root])

    def score_sampled(self, nodes, num_sources: int, seed: int) -> float:
        """Remark-1 sampled Wiener estimate of ``G[nodes]`` on the arrays.

        Sources are drawn as *positions* into the canonically sorted node
        list (ascending relabeled index) with ``random.Random(seed)``, so
        the sources, and hence the integer distance sums, are a pure
        function of the candidate set.
        """
        sub = self.csr.induced(self.csr.indices_for(nodes))
        n = sub.num_nodes
        if n < 2:
            return 0.0
        if num_sources >= n:
            return sub.wiener_index()
        positions = random.Random(seed).sample(range(n), num_sources)
        total = 0
        for position in positions:
            dist = sub.bfs_distances(position)
            if bool((dist < 0).any()):
                return math.inf
            total += int(dist.sum())
        return (total / num_sources) * n / 2
