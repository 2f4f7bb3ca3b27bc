"""Versioned mutable graphs: canonical edge deltas and epoch-stamped indexes.

Every layer of the serving tower below this module assumes one immutable
host graph; this module is what lets the graph *change* without tearing
the tower down.  Two pieces:

* :class:`GraphDelta` — a canonical, digestable batch of edge inserts /
  deletes / reweights.  Canonical means the batch is a *value*: endpoint
  order, op order, and numeric spellings are normalized at construction,
  so two deltas describing the same mutation have equal fields and equal
  :meth:`~GraphDelta.digest` in every process.  Replay is defined on all
  three graph representations — the dict :class:`~repro.graphs.graph.Graph`,
  the :class:`~repro.graphs.graph.WeightedGraph`, and the packed
  :class:`~repro.graphs.csr.CSRGraph` arrays — and appends new endpoints
  in the *same* canonical order on each, so a dict twin replayed with
  :meth:`~GraphDelta.apply_to_graph` packs to the arrays that
  :meth:`~GraphDelta.apply_to_csr` produced.
* :class:`VersionedIndex` — an epoch counter over one mutating CSR index,
  the only graph a serving replica holds.  Epoch 0 is the
  construction-time index; every ``apply(delta)`` bumps the epoch,
  rebuilds the CSR arrays *from the current arrays* (not from scratch),
  and remembers the delta so a replica that missed some epochs can
  request the catch-up suffix (:meth:`~VersionedIndex.deltas_since`)
  instead of a full restart.  Each epoch has its own
  :meth:`~VersionedIndex.index_digest` — the remote handshake token.

Deltas are **all-or-nothing**: validation happens before any mutation, so
a bad op (insert of an existing edge, delete of a missing one) raises
:class:`~repro.errors.DeltaError` and leaves the graph at the old epoch.

Scoped invalidation (which cache entries survive a delta) lives with the
caches in :meth:`repro.core.service.ConnectorService.apply_delta`; this
module only answers "what changed, canonically, and at which epoch".
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.core.options import stable_repr
from repro.errors import DeltaError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph, Node, WeightedGraph

__all__ = [
    "GraphDelta",
    "VersionedIndex",
    "csr_has_edge",
    "index_digest_of",
]

#: How many applied deltas a :class:`VersionedIndex` keeps for replica
#: catch-up before the oldest epochs become unrecoverable (a replica that
#: far behind must resync from a full payload instead).
MAX_CATCHUP_HISTORY = 1024


def _node_key(node: Node):
    """A total order over hashable node labels, stable across processes.

    Numbers sort among themselves by value (``1`` and ``1.0`` are one
    node, exactly as dict keys treat them); everything else sorts by
    ``(type name, repr)``.  The same rule the wire protocol's
    ``canonical_sort`` applies to query sets.
    """
    if isinstance(node, bool):
        return (1, type(node).__name__, repr(node))
    if isinstance(node, (int, float)):
        return (0, float(node), "")
    return (1, type(node).__name__, repr(node))


def _canonical_edge(u: Node, v: Node) -> tuple[Node, Node]:
    if u == v:
        raise DeltaError(f"self-loop delta op on node {u!r}")
    return (u, v) if _node_key(u) <= _node_key(v) else (v, u)


def _edge_sort_key(edge):
    return (_node_key(edge[0]), _node_key(edge[1]))


def _has_arc(csr, a: int, b: int) -> bool:
    lo = int(csr.indptr[a])
    hi = int(csr.indptr[a + 1])
    k = lo + int(np.searchsorted(csr.indices[lo:hi], b))
    return k < hi and int(csr.indices[k]) == b


def csr_has_edge(csr, u: Node, v: Node) -> bool:
    """Whether the undirected edge ``{u, v}`` exists in a CSR index.

    The label-space twin of :meth:`Graph.has_edge` for bare-array
    services (shard workers hold no dict graph to ask).
    """
    iu = csr.index_of.get(u)
    iv = csr.index_of.get(v)
    if iu is None or iv is None:
        return False
    return _has_arc(csr, iu, iv)


@dataclasses.dataclass(frozen=True)
class GraphDelta:
    """A canonical, digestable batch of edge mutations.

    Attributes
    ----------
    inserts:
        ``(u, v)`` pairs to add.  On a weighted replay the new edges get
        weight ``1.0`` (the uniform weight the serving tower's unweighted
        host graphs lift to).
    deletes:
        ``(u, v)`` pairs to remove.
    reweights:
        ``(u, v, w)`` triples setting the weight of an *existing* edge.
        Only meaningful on weighted graphs; replaying a reweight onto an
        unweighted :class:`Graph` or CSR index raises
        :class:`~repro.errors.DeltaError`.

    Construction canonicalizes: each edge's endpoints are ordered by the
    process-stable node order, each op list is sorted, weights go through
    ``float``, and the same undirected edge may appear in **at most one**
    op across the whole batch (conflicting or duplicate ops are rejected,
    which also makes the batch order-independent).  Two deltas describing
    the same mutation therefore compare equal and share a digest.
    """

    inserts: tuple[tuple[Node, Node], ...] = ()
    deletes: tuple[tuple[Node, Node], ...] = ()
    reweights: tuple[tuple[Node, Node, float], ...] = ()

    def __post_init__(self) -> None:
        inserts = tuple(
            sorted((_canonical_edge(u, v) for u, v in self.inserts),
                   key=_edge_sort_key)
        )
        deletes = tuple(
            sorted((_canonical_edge(u, v) for u, v in self.deletes),
                   key=_edge_sort_key)
        )
        reweights = []
        for u, v, w in self.reweights:
            a, b = _canonical_edge(u, v)
            weight = float(w)
            if weight < 0:
                raise DeltaError(
                    f"negative weight {w!r} in reweight of ({u!r}, {v!r})"
                )
            reweights.append((a, b, weight))
        reweights = tuple(sorted(reweights, key=_edge_sort_key))
        seen: set[tuple] = set()
        for edge in [*inserts, *deletes, *(e[:2] for e in reweights)]:
            marker = (_node_key(edge[0]), _node_key(edge[1]))
            if marker in seen:
                raise DeltaError(
                    f"edge {edge!r} appears in more than one delta op"
                )
            seen.add(marker)
        object.__setattr__(self, "inserts", inserts)
        object.__setattr__(self, "deletes", deletes)
        object.__setattr__(self, "reweights", reweights)
        if not (inserts or deletes or reweights):
            raise DeltaError("a GraphDelta must contain at least one op")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        return len(self.inserts) + len(self.deletes) + len(self.reweights)

    def touched_edges(self) -> list[tuple[Node, Node]]:
        """Every ``(u, v)`` edge this delta mentions, canonical order."""
        return [
            *self.inserts,
            *self.deletes,
            *[(u, v) for u, v, _ in self.reweights],
        ]

    def touched_nodes(self) -> set[Node]:
        """Every node label this delta mentions."""
        return {node for edge in self.touched_edges() for node in edge}

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """A process-stable hex digest of the canonical op batch."""
        digest = hashlib.sha1()
        for tag, ops in (
            (b"i", self.inserts),
            (b"d", self.deletes),
            (b"w", self.reweights),
        ):
            for op in ops:
                digest.update(tag)
                digest.update(stable_repr(tuple(op)).encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Wire form (pure JSON, for the gateway surface and the CLI)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """A JSON-safe dict; inverse of :meth:`from_payload`."""
        payload: dict = {}
        if self.inserts:
            payload["insert"] = [[u, v] for u, v in self.inserts]
        if self.deletes:
            payload["delete"] = [[u, v] for u, v in self.deletes]
        if self.reweights:
            payload["reweight"] = [[u, v, w] for u, v, w in self.reweights]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "GraphDelta":
        """Parse the JSON wire form, rejecting unknown keys and bad shapes."""
        if not isinstance(payload, dict):
            raise DeltaError(f"delta payload must be an object, got {payload!r}")
        unknown = set(payload) - {"insert", "delete", "reweight"}
        if unknown:
            raise DeltaError(f"unknown delta payload keys: {sorted(unknown)}")

        def pairs(key: str) -> list[tuple]:
            ops = payload.get(key) or []
            parsed = []
            for op in ops:
                if not isinstance(op, (list, tuple)) or len(op) != 2:
                    raise DeltaError(f"{key} ops must be [u, v] pairs, got {op!r}")
                parsed.append((op[0], op[1]))
            return parsed

        reweights = []
        for op in payload.get("reweight") or []:
            if not isinstance(op, (list, tuple)) or len(op) != 3:
                raise DeltaError(
                    f"reweight ops must be [u, v, weight] triples, got {op!r}"
                )
            reweights.append((op[0], op[1], op[2]))
        return cls(
            inserts=tuple(pairs("insert")),
            deletes=tuple(pairs("delete")),
            reweights=tuple(reweights),
        )

    # ------------------------------------------------------------------
    # Replay — all-or-nothing, identical canonical order on every backend
    # ------------------------------------------------------------------
    def _check_applicable(self, has_edge) -> None:
        for u, v in self.inserts:
            if has_edge(u, v):
                raise DeltaError(f"cannot insert existing edge ({u!r}, {v!r})")
        for u, v in self.deletes:
            if not has_edge(u, v):
                raise DeltaError(f"cannot delete missing edge ({u!r}, {v!r})")
        for u, v, _ in self.reweights:
            if not has_edge(u, v):
                raise DeltaError(f"cannot reweight missing edge ({u!r}, {v!r})")

    def apply_to_graph(self, graph: Graph) -> None:
        """Replay onto an unweighted dict :class:`Graph`, in place.

        New endpoints are created in canonical op order — the same
        insertion order :meth:`apply_to_csr` appends them in, so the two
        backends keep one node numbering after any delta sequence.
        """
        if self.reweights:
            raise DeltaError(
                "reweight ops need a weighted graph; the serving tower's "
                "host graphs are unweighted"
            )
        self._check_applicable(graph.has_edge)
        for u, v in self.deletes:
            graph.remove_edge(u, v)
        for u, v in self.inserts:
            graph.add_edge(u, v)

    def apply_to_weighted(self, graph: WeightedGraph) -> None:
        """Replay onto a :class:`WeightedGraph`, in place (inserts get 1.0)."""
        self._check_applicable(graph.has_edge)
        for u, v in self.deletes:
            graph.remove_edge(u, v)
        for u, v in self.inserts:
            graph.add_edge(u, v, 1.0)
        for u, v, w in self.reweights:
            graph.set_weight(u, v, w)

    def apply_to_csr(self, csr):
        """A new :class:`~repro.graphs.csr.CSRGraph` with this delta applied.

        Built from the *current* arrays: kept arcs are mask-copied, new
        arcs appended, and one lexsort restores the canonical ascending
        row order.  Existing node indices never move; new endpoints are
        appended in canonical op order (matching :meth:`apply_to_graph`'s
        insertion order on the dict twin).
        """
        if self.reweights:
            raise DeltaError("reweight ops need a weighted graph")
        node_of = list(csr.node_of)
        index_of = dict(csr.index_of)
        old_n = csr.num_nodes
        for u, v in self.inserts:
            for node in (u, v):
                if node not in index_of:
                    index_of[node] = len(node_of)
                    node_of.append(node)
        # Validate *everything* before touching any array (all-or-nothing).
        for u, v in self.inserts:
            iu, iv = index_of[u], index_of[v]
            if iu < old_n and iv < old_n and _has_arc(csr, iu, iv):
                raise DeltaError(f"cannot insert existing edge ({u!r}, {v!r})")
        drop_positions = []
        for u, v in self.deletes:
            iu = index_of.get(u)
            iv = index_of.get(v)
            if (
                iu is None or iv is None or iu >= old_n or iv >= old_n
                or not _has_arc(csr, iu, iv)
            ):
                raise DeltaError(f"cannot delete missing edge ({u!r}, {v!r})")
            drop_positions.append(csr.arc_weight_position(iu, iv))
            drop_positions.append(csr.arc_weight_position(iv, iu))
        n = len(node_of)
        keep = np.ones(csr.num_arcs, dtype=bool)
        if drop_positions:
            keep[np.asarray(drop_positions, dtype=np.int64)] = False
        src = csr.arc_src[keep]
        dst = csr.indices[keep]
        if self.inserts:
            add_src = np.empty(2 * len(self.inserts), dtype=np.int64)
            add_dst = np.empty(2 * len(self.inserts), dtype=np.int64)
            for k, (u, v) in enumerate(self.inserts):
                iu, iv = index_of[u], index_of[v]
                add_src[2 * k], add_dst[2 * k] = iu, iv
                add_src[2 * k + 1], add_dst[2 * k + 1] = iv, iu
            src = np.concatenate([src, add_src])
            dst = np.concatenate([dst, add_dst])
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(indptr, dst, node_of, index_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"{type(self).__name__}(+{len(self.inserts)} "
            f"-{len(self.deletes)} ~{len(self.reweights)})"
        )


def index_digest_of(csr: CSRGraph) -> str:
    """The process- and host-stable hex digest of one CSR index.

    The remote handshake token.  It hashes the labels in index order
    (their :func:`~repro.core.options.stable_repr`) and the ``indptr`` and
    ``indices`` arrays as little-endian int64 bytes, so every host
    architecture and every ``PYTHONHASHSEED`` agrees.  Equal digests mean
    an equal index: the same label at every index and the same rows.
    Every tie-break of the engine reads that index order, so the digest is
    exactly as fine as the answers — two orderings of one graph digest
    differently, because they can answer differently.
    """
    digest = hashlib.sha1()
    digest.update(b"indptr")
    digest.update(csr.indptr.astype("<i8", copy=False).tobytes())
    digest.update(b"indices")
    digest.update(csr.indices.astype("<i8", copy=False).tobytes())
    digest.update(b"labels")
    digest.update("\n".join(map(stable_repr, csr.node_of)).encode("utf-8"))
    return digest.hexdigest()


class VersionedIndex:
    """Epoch-numbered snapshots of one mutating CSR index.

    Epoch 0 is the construction-time index; :meth:`apply` replays one
    :class:`GraphDelta` with :meth:`GraphDelta.apply_to_csr`, bumps the
    epoch, and records the delta for replica catch-up.  The replay builds
    new arrays and validates before it returns them, so a refused delta
    leaves the old epoch's arrays, epoch and history untouched.

    Parameters
    ----------
    csr:
        The :class:`~repro.graphs.csr.CSRGraph` of epoch 0.
    epoch:
        The starting epoch number — non-zero when this index is a replica
        catching up to a router that has already applied deltas.
    """

    __slots__ = ("_csr", "_epoch", "_base_epoch", "_history", "_digest")

    def __init__(self, csr: CSRGraph, *, epoch: int = 0) -> None:
        if not isinstance(csr, CSRGraph):
            raise GraphError(
                f"VersionedIndex takes a CSRGraph, got {type(csr).__name__}"
            )
        self._csr = csr
        self._epoch = int(epoch)
        self._base_epoch = self._epoch
        self._history: list[GraphDelta] = []
        self._digest: str | None = None

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def csr(self) -> CSRGraph:
        """The current epoch's CSR arrays."""
        return self._csr

    def index_digest(self) -> str:
        """This epoch's handshake digest (cached until the next delta)."""
        if self._digest is None:
            self._digest = index_digest_of(self._csr)
        return self._digest

    def apply(self, delta: GraphDelta) -> int:
        """Replay ``delta``; returns the new epoch number.

        All-or-nothing: an inapplicable delta raises
        :class:`~repro.errors.DeltaError` with arrays, epoch and history
        untouched.
        """
        if not isinstance(delta, GraphDelta):
            raise DeltaError(
                f"apply() takes a GraphDelta, got {type(delta).__name__}"
            )
        self._csr = delta.apply_to_csr(self._csr)
        self._epoch += 1
        self._digest = None
        self._history.append(delta)
        if len(self._history) > MAX_CATCHUP_HISTORY:
            del self._history[0]
            self._base_epoch += 1
        return self._epoch

    def align(self, epoch: int) -> None:
        """Renumber this timeline so the current version is ``epoch``.

        A pure relabeling — arrays, digest and retained history
        are untouched; only the epoch coordinates shift.  Used by a shard
        host whose digest-verified graph matches a router counting from a
        different base (a daemon restarted with the already-mutated
        dataset starts at 0 again), so that sweep stamping and catch-up
        arithmetic share one timeline.
        """
        shift = int(epoch) - self._epoch
        self._epoch += shift
        self._base_epoch += shift

    def deltas_since(self, epoch: int) -> tuple[GraphDelta, ...] | None:
        """The catch-up suffix from ``epoch`` to now, oldest first.

        ``None`` when catch-up is impossible: ``epoch`` is ahead of this
        index (the peer diverged) or behind the retained history window.
        An up-to-date peer gets the empty tuple.
        """
        if epoch > self._epoch or epoch < self._base_epoch:
            return None
        return tuple(self._history[epoch - self._base_epoch:])

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(epoch={self._epoch}, {self._csr!r})"
