"""In-memory span tracer that wraps the program's public functions.

Tracing happens entirely from the benchmark's side: :meth:`Tracer.wrap`
replaces a function at the name its callers look it up (a module global
such as ``repro.core.fastpath.mehlhorn_steiner_csr``, or a class
attribute such as ``CSRGraph.bfs_tree``) with a wrapper that records one
span per call.  Nothing inside ``src/`` knows it is being traced, and
:meth:`Tracer.uninstall` restores every original.

A span is ``(name, start, end, child_seconds, value)``: monotonic start
and end, the time its direct child spans on the same thread covered (so
self time is ``end - start - child_seconds``), and an optional number the
wrapper extracted from the call (bytes encoded, a sweep's runtime).
Spans stay in memory and are written out once, at the end of a run.

Pipe shard workers are forked from the benchmark process, so wrappers
installed before the shard ring starts are inherited by every worker.
Each worker keeps its own spans and dumps them to a JSON file when its
message loop ends; the parent merges those files after the ring closes.
All processes share ``CLOCK_MONOTONIC``, so a parent-side time window
selects child spans too.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

#: (name, start, end, child_seconds, value)
Span = tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        """Register a wrapper for ``owner.attr``; active after :meth:`install`.

        ``value(result, args)`` may extract a number recorded on the span.
        A missing attribute or a ``None`` (an optional dependency that is
        absent) is left alone.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            extra = value(result, args) if value is not None else None
            tracer.spans.append((name, start, end, frame[0], extra))
            return result

        self._patches.append((owner, attr, original, traced))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def window(self, start: float, end: float) -> list[Span]:
        """Spans that started inside ``[start, end)``."""
        return [span for span in self.spans if start <= span[1] < end]


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write spans as JSON lines, one ``[name, start, end, child, value]`` each."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: ``calls``, ``total`` and ``self`` seconds, ``values``."""
    table: dict[str, dict] = {}
    for name, start, end, child, value in spans:
        row = table.setdefault(
            name, {"calls": 0, "total": 0.0, "self": 0.0, "values": []}
        )
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child
        if value is not None:
            row["values"].append(value)
    return table


def union_seconds(intervals, within=None) -> float:
    """Length of the union of ``(start, end)`` intervals.

    With ``within`` (another interval list), only the part of the union
    that also lies inside ``within``'s union counts.
    """
    merged = _merge(intervals)
    if within is None:
        return sum(end - start for start, end in merged)
    covered = 0.0
    outer = _merge(within)
    i = j = 0
    while i < len(merged) and j < len(outer):
        lo = max(merged[i][0], outer[j][0])
        hi = min(merged[i][1], outer[j][1])
        if hi > lo:
            covered += hi - lo
        if merged[i][1] < outer[j][1]:
            i += 1
        else:
            j += 1
    return covered


def _merge(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


class ShardCollector:
    """Carries tracing into forked pipe shard workers.

    Wraps ``repro.core.sharded._shard_main`` (looked up by the pipe
    transport at spawn time) so that a worker starts with an empty span
    list and, when its message loop ends, dumps its spans plus the
    computed byte size of its service caches to ``out_dir``.  Wraps
    ``service_from_payload`` there too, to find the worker's service.
    """

    def __init__(self, tracer: Tracer, out_dir: Path, cache_bytes) -> None:
        import repro.core.sharded as sharded

        self.out_dir = out_dir
        self._service = None
        collector = self
        shard_main = sharded._shard_main
        from_payload = sharded.service_from_payload

        def traced_shard_main(connection, payload):
            tracer.spans = []
            try:
                shard_main(connection, payload)
            finally:
                record = {
                    "pid": os.getpid(),
                    "spans": tracer.spans,
                    "cache_bytes": (
                        cache_bytes(collector._service)
                        if collector._service is not None else {}
                    ),
                }
                path = out_dir / f"shard-{os.getpid()}.json"
                path.write_text(json.dumps(record))

        def traced_from_payload(payload):
            collector._service = from_payload(payload)
            return collector._service

        self._patches = [
            (sharded, "_shard_main", shard_main, traced_shard_main),
            (sharded, "service_from_payload", from_payload, traced_from_payload),
        ]

    def install(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.out_dir.glob("shard-*.json"):
            stale.unlink()
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in self._patches:
            setattr(owner, attr, original)

    def collect(self) -> list[dict]:
        """The dumps of every worker that has exited (call after close)."""
        records = []
        for path in sorted(self.out_dir.glob("shard-*.json")):
            record = json.loads(path.read_text())
            record["spans"] = [tuple(span) for span in record["spans"]]
            records.append(record)
            path.unlink()
        return records
