"""Per-layer numbers: which functions are traced, and how spans and
stats snapshots become the ``PER_LAYER`` metrics."""

from __future__ import annotations

import statistics
import sys

from perfbench.trace import Tracer, summarize, union_seconds

def build_tracer() -> Tracer:
    """A tracer wrapping each layer at the name its callers look up."""
    import repro.core.fastpath as fastpath
    import repro.serving.server as server
    from repro.core.service import ConnectorService
    from repro.core.sharded import ShardedConnectorService
    from repro.graphs.csr import CSRGraph

    engine = fastpath.CSRWienerSteinerEngine
    tracer = Tracer()
    tracer.wrap(CSRGraph, "bfs_tree", "csr.bfs")
    tracer.wrap(engine, "candidates_for_root", "fastpath.reweight")
    tracer.wrap(fastpath, "_scipy_dijkstra", "fastpath.dijkstra")
    tracer.wrap(fastpath, "mehlhorn_steiner_csr", "fastpath.forest_crossing")
    tracer.wrap(fastpath, "steiner_tree_from_voronoi", "steiner.tree")
    tracer.wrap(fastpath, "adjust_distances", "adjust.adjust")
    for method in ("score_exact", "score_proxy", "score_sampled"):
        tracer.wrap(engine, method, "fastpath.score")
    for method in ("host_distances", "induced_edge_count"):
        tracer.wrap(engine, method, "fastpath.bound")
    tracer.wrap(
        ConnectorService, "_solve_ws", "service.sweep",
        value=lambda outcome, _args: outcome.runtime_seconds,
    )
    tracer.wrap(ConnectorService, "sweep", "service.shard_sweep")
    tracer.wrap(ShardedConnectorService, "solve_many", "gateway.dispatch")
    tracer.wrap(ShardedConnectorService, "apply_delta", "versioned.apply_delta")
    tracer.wrap(server, "decode_line", "protocol.decode")
    tracer.wrap(
        server, "encode_line", "protocol.encode",
        # Replies carry "ok"; requests the client encodes do not.
        value=lambda line, args: len(line) if "ok" in args[0] else None,
    )
    tracer.wrap(server, "result_to_payload", "protocol.payload")
    return tracer


def _row(table: dict, name: str) -> dict:
    return table.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "values": []})


def span_metrics(spans, shard_spans=()) -> dict:
    """Layer metrics read off spans (parent and shard workers together)."""
    everything = list(spans) + list(shard_spans)
    table = summarize(everything)
    sweep = _row(table, "service.sweep")
    dispatch = [(s[1], s[2]) for s in spans if s[0] == "gateway.dispatch"]
    shard_busy = [(s[1], s[2]) for s in shard_spans if s[0] == "service.shard_sweep"]
    dispatch_s = _row(table, "gateway.dispatch")["total"]
    apply_ms = [
        (s[2] - s[1]) * 1e3 for s in spans if s[0] == "versioned.apply_delta"
    ]
    replies = _row(table, "protocol.encode")["values"]
    return {
        "csr.bfs_s": _row(table, "csr.bfs")["self"],
        "csr.bfs_calls": _row(table, "csr.bfs")["calls"],
        "fastpath.reweight_s": _row(table, "fastpath.reweight")["self"],
        "fastpath.dijkstra_s": _row(table, "fastpath.dijkstra")["self"],
        "fastpath.dijkstra_calls": _row(table, "fastpath.dijkstra")["calls"],
        "fastpath.forest_crossing_s": _row(table, "fastpath.forest_crossing")["self"],
        "steiner.tree_s": _row(table, "steiner.tree")["self"],
        "adjust.adjust_s": _row(table, "adjust.adjust")["self"],
        "fastpath.score_s": _row(table, "fastpath.score")["self"],
        "fastpath.bound_s": _row(table, "fastpath.bound")["self"],
        "service.sweep_s": sum(sweep["values"], 0.0),
        "trace.stage_coverage": (
            1.0 - sweep["self"] / sweep["total"] if sweep["total"] else 0.0
        ),
        "gateway.dispatch_s": dispatch_s,
        "sharded.wire_s": dispatch_s - union_seconds(shard_busy, within=dispatch),
        "versioned.apply_delta_ms": statistics.median(apply_ms) if apply_ms else 0.0,
        "protocol.decode_s": _row(table, "protocol.decode")["total"],
        "protocol.encode_s": _row(table, "protocol.encode")["total"],
        "protocol.payload_s": _row(table, "protocol.payload")["total"],
        "protocol.reply_bytes": statistics.fmean(replies) if replies else 0.0,
        "trace.spans": len(everything),
    }


_COUNTERS = (
    "result_hits", "result_misses", "candidate_hits", "candidate_misses",
    "score_hits", "score_misses", "pairs_pruned", "pairs_scored",
    "entries_retained", "entries_invalidated",
)


def counters(stats) -> dict:
    """Lifetime counters of a ``ServiceStats`` or a sharded snapshot.

    For a sharded service the per-replica snapshots are summed and
    ``served`` keeps each replica's ``queries_served`` separately.
    """
    shards = getattr(stats, "shards", None)
    snapshots = (stats,) if shards is None else tuple(shards)
    totals = {
        name: sum(getattr(snapshot, name) for snapshot in snapshots)
        for name in _COUNTERS
    }
    totals["served"] = [snapshot.queries_served for snapshot in snapshots]
    totals["requests_routed"] = getattr(stats, "requests_routed", 0)
    totals["inflight_deduped"] = getattr(stats, "inflight_deduped", 0)
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def stats_metrics(before: dict, after: dict) -> dict:
    """Layer metrics from two :func:`counters` snapshots around a window."""
    d = {name: after[name] - before[name] for name in _COUNTERS}
    served = [b - a for a, b in zip(before["served"], after["served"])]
    mean_served = statistics.fmean(served) if served else 0.0
    return {
        "pruning.pairs_pruned": d["pairs_pruned"],
        "pruning.pairs_scored": d["pairs_scored"],
        "pruning.prune_rate": _ratio(
            d["pairs_pruned"], d["pairs_pruned"] + d["pairs_scored"]
        ),
        "service.result_hit_rate": _ratio(
            d["result_hits"], d["result_hits"] + d["result_misses"]
        ),
        "service.candidate_hit_rate": _ratio(
            d["candidate_hits"], d["candidate_hits"] + d["candidate_misses"]
        ),
        "service.score_hit_rate": _ratio(
            d["score_hits"], d["score_hits"] + d["score_misses"]
        ),
        "versioned.retained_ratio": _ratio(
            d["entries_retained"], d["entries_retained"] + d["entries_invalidated"]
        ),
        "sharded.requests_routed": after["requests_routed"] - before["requests_routed"],
        "sharded.inflight_deduped": after["inflight_deduped"] - before["inflight_deduped"],
        "sharded.shard_skew": _ratio(max(served, default=0), mean_served),
    }


def gateway_metrics(before, after) -> dict:
    """Layer metrics from two ``GatewayStats`` snapshots around a window."""
    windows = after.windows_dispatched - before.windows_dispatched
    admitted = after.admitted - before.admitted
    coalesced = after.coalesced - before.coalesced
    return {
        "gateway.windows": windows,
        "gateway.mean_window_size": _ratio(
            after.window_size_sum - before.window_size_sum, windows
        ),
        "gateway.coalesce_ratio": _ratio(coalesced, admitted + coalesced),
        "gateway.shed": after.shed - before.shed,
        "gateway.server_latency_p50_ms": after.percentile(0.5) * 1e3,
    }


def cache_bytes(service) -> dict:
    """Computed byte sizes of a ``ConnectorService``'s cache layers.

    Root entries are ``(dist, parent, arc_max)`` arrays, summed from their
    ``nbytes``; the other layers are sized by walking their Python
    objects with ``sys.getsizeof``.  Both are computed, not measured.
    """
    root_bytes = root_entries = 0
    for engine in service._engines.values():
        cache = getattr(engine, "_root_cache", None)
        if cache is None:
            continue
        for key in cache.keys():
            root_entries += 1
            root_bytes += sum(array.nbytes for array in cache.peek(key))
    layers = {"root_entries": root_entries, "root_layer": root_bytes}
    for name, cache in (
        ("candidate_layer", service._candidates),
        ("score_layer", service._scores),
        ("result_layer", service._results),
    ):
        seen: set[int] = set()
        layers[name] = sum(
            _deep_size(key, seen) + _deep_size(cache.peek(key), seen)
            for key in cache.keys()
        )
    return layers


def _deep_size(obj, seen: set) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        items = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    elif hasattr(obj, "__slots__"):
        items = [getattr(obj, slot, None) for slot in obj.__slots__]
    else:
        items = []
    return size + sum(_deep_size(item, seen) for item in items)


def memory_metrics(layers: list[dict]) -> dict:
    """Sum :func:`cache_bytes` over replicas into the memory metrics."""
    total = {key: sum(layer.get(key, 0) for layer in layers) for key in (
        "root_entries", "root_layer", "candidate_layer", "score_layer", "result_layer"
    )}
    return {
        "service.root_entry_bytes": _ratio(total["root_layer"], total["root_entries"]),
        "service.root_layer_bytes": total["root_layer"],
        "service.candidate_layer_bytes": total["candidate_layer"],
        "service.score_layer_bytes": total["score_layer"],
        "service.result_layer_bytes": total["result_layer"],
    }
