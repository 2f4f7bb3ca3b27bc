"""Metric names, units, and which end-to-end number each layer should move.

``BENCHMARK.json`` lists the same names; ``test_selfcheck.py`` keeps the
two in step.  Every workload prints every end-to-end metric on an
untraced run and every per-layer metric on a traced run.  A layer a
workload never reaches reads 0 there (no calls were made), which is the
prediction: the change that speeds that layer should not move that
workload.
"""

from __future__ import annotations

import math

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "throughput_qps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_SWEEP = "cold-sweep latency_p50_ms/throughput_qps and mutate-mix latencies"
_CACHES = "cold-sweep peak_rss_mb and mutate-mix latencies"
_VERSIONED = "mutate-mix latency_p99_ms (the window after each delta)"
_TOWER = "hot-tower latency_p50_ms and latency_p99_ms"

#: name -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    # Sweep stages (csr, fastpath, steiner, adjust, pruning).
    "csr.bfs_s": ("s", "lower", _SWEEP),
    "csr.bfs_calls": ("count", "lower", _SWEEP),
    "fastpath.reweight_s": ("s", "lower", _SWEEP),
    "fastpath.dijkstra_s": ("s", "lower", _SWEEP),
    "fastpath.dijkstra_calls": ("count", "lower", _SWEEP),
    "fastpath.forest_crossing_s": ("s", "lower", _SWEEP),
    "steiner.tree_s": ("s", "lower", _SWEEP),
    "adjust.adjust_s": ("s", "lower", _SWEEP),
    "fastpath.score_s": ("s", "lower", _SWEEP),
    "fastpath.bound_s": ("s", "lower", _SWEEP),
    "pruning.pairs_pruned": ("count", "higher", _SWEEP),
    "pruning.pairs_scored": ("count", "lower", _SWEEP),
    "pruning.prune_rate": ("ratio", "higher", _SWEEP),
    # Caches and memory (core/service).
    "service.result_hit_rate": ("ratio", "higher", _CACHES),
    "service.candidate_hit_rate": ("ratio", "higher", _CACHES),
    "service.score_hit_rate": ("ratio", "higher", _CACHES),
    "service.sweep_s": ("s", "lower", _SWEEP),
    "service.root_entry_bytes": ("bytes_computed", "lower", _CACHES),
    "service.root_layer_bytes": ("bytes_computed", "lower", _CACHES),
    "service.candidate_layer_bytes": ("bytes_computed", "lower", _CACHES),
    "service.score_layer_bytes": ("bytes_computed", "lower", _CACHES),
    "service.result_layer_bytes": ("bytes_computed", "lower", _CACHES),
    # Versioned graphs (core/versioned).
    "versioned.apply_delta_ms": ("ms", "lower", _VERSIONED),
    "versioned.mutate_rtt_p50_ms": ("ms", "lower", _VERSIONED),
    "versioned.retained_ratio": ("ratio", "higher", _VERSIONED),
    # Serving tower: gateway, shard router, wire protocol, load driver.
    "gateway.windows": ("count", "lower", _TOWER),
    "gateway.mean_window_size": ("count", "higher", _TOWER),
    "gateway.coalesce_ratio": ("ratio", "higher", _TOWER),
    "gateway.shed": ("count", "lower", _TOWER),
    "gateway.dispatch_s": ("s", "lower", _TOWER),
    "gateway.server_latency_p50_ms": ("ms", "lower", _TOWER),
    "sharded.requests_routed": ("count", "lower", _TOWER),
    "sharded.inflight_deduped": ("count", "higher", _TOWER),
    "sharded.shard_skew": ("ratio", "lower", _TOWER),
    "sharded.wire_s": ("s", "lower", _TOWER),
    "sharded.shard_peak_rss_mb": ("MB", "lower", _CACHES),
    "protocol.decode_s": ("s", "lower", _TOWER),
    "protocol.encode_s": ("s", "lower", _TOWER),
    "protocol.payload_s": ("s", "lower", _TOWER),
    "protocol.reply_bytes": ("bytes", "lower", _TOWER),
    "driver.lag_ms_max": ("ms", "lower", "every latency: a late driver inflates them"),
    # The tracer itself.
    "trace.overhead_ms": ("ms", "lower", "none: traced minus untraced latency_p50_ms"),
    "trace.stage_coverage": ("ratio", "higher", "none: share of sweep time in named stages"),
    "trace.spans": ("count", "lower", "none: spans recorded in the traced half"),
}


def result_line(values: dict, spec: dict, attempted: int, failed: int, correct: bool) -> dict:
    """The benchmark's last output line, every metric of ``spec`` present."""
    missing = sorted(set(spec) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": _number(values[name]), "unit": spec[name][0]}
            for name in spec
        },
    }


def _number(value):
    return value if isinstance(value, int) else float(value)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in ``(0, 1]``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]
