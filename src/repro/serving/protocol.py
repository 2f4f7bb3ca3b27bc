"""The JSON-lines wire format of the connector server and shard transport.

One request per line, one response per line, every line a single JSON
object — the simplest protocol that still supports pipelining (a client
may send many requests before reading a response; the ``id`` field pairs
them back up, since responses come back in *completion* order).

Two services speak it, and no line on either carries anything but plain
JSON:

**The public gateway** (:mod:`repro.serving.server`):

* ``{"query": [v, ...], "options": {...}?, "id": ...?}`` — solve one
  query.  ``options`` holds :class:`~repro.core.options.SolveOptions`
  fields by name (``method``, ``beta``, ``selection``, ...); omitted
  fields keep the server's defaults.
* ``{"op": "stats", "id": ...?}`` — gateway + backing-service counters.
* ``{"op": "ping", "id": ...?}`` — liveness probe.
* ``{"op": "mutate", "delta": {...}, "id": ...?}`` — advance the served
  graph one epoch.  ``delta`` is the pure-JSON payload of a
  :class:`~repro.core.versioned.GraphDelta` (``"insert"``/``"delete"``
  lists of endpoint pairs, ``"reweight"`` triples); the success response
  carries the new ``"epoch"``.  ``GraphDelta.from_payload`` validates
  shape and content, and the apply is all-or-nothing.
* ``{"op": "shutdown", "id": ...?}`` — acknowledge, then gracefully stop
  the whole server (the operation the tests' clean-teardown assertions
  drive).

**The shard transport** (:mod:`repro.serving.remote`), the
cluster-internal scatter/gather link between a sharded router and its
shard hosts — remote daemons and the local shard processes the router
forks alike.  Same framing, extra ops and version stamping:

* ``{"op": "hello", "digest": hex, "epoch": n, "id": ...?}`` — the
  connect-time handshake: the router sends the digest of its graph index
  (:meth:`~repro.core.service.ConnectorService.index_digest`) plus its
  epoch, and the shard host acknowledges with its own, refusing
  mismatches — routing a key ring over a *different* graph would
  silently break the bit-identity contract.  A digest refusal reports
  the daemon's ``"epoch"`` so the router can bridge the gap with
  catch-up.  A local shard's link starts handshaken and never sends it.
* ``{"op": "sweep", "query": [i, ...], "options": {...}, "epoch": n,
  "id": ...}`` — one λ×root sweep in *index space* (equal handshake
  digests mean equal indices): ``query`` is the sorted vertex indices,
  ``options`` the gateway's options object holding only non-default
  fields, ``roots`` as indices, and ``epoch`` (required) the version the
  router dispatched at.  The success response is the shard's
  :class:`~repro.core.service.SweepOutcome` — ``"nodes"`` (sorted
  indices), ``"root"`` (an index), ``"lambda"``, ``"candidates"``,
  ``"key"``, ``"runtime_seconds"`` — plus the serving ``"epoch"``.  Both
  ends accept only plain ints in ``[0, n)``: a malformed request fails
  only itself, a malformed reply fails the link.  A version-skewed sweep
  is refused with ``error_type: "EpochMismatch"`` (the router fails the
  stale link over), never answered from the wrong graph.  A request
  fault carries only ``error`` and ``error_type``, re-raised on the
  router as the :mod:`repro.errors` class of that name.
* ``{"op": "mutate", "delta": {...}, "id": ...}`` — same payload as the
  gateway's mutate: apply one :class:`~repro.core.versioned.GraphDelta`
  to the replica, acknowledge with the new ``"epoch"``.
* ``{"op": "catchup", "delta": {...}, "id": ...?}`` — the reconnect
  healing path: only accepted immediately after this connection's
  ``hello`` was refused for a digest mismatch, it replays one delta the
  daemon missed while its link was down; the router sends the retained
  suffix oldest-first, then re-runs ``hello``.

Responses
---------
``{"id": ..., "ok": true, ...}`` on success — solve responses carry the
connector under ``"result"`` (vertex sets canonically sorted, metadata
filtered to JSON scalars, exactly the ``repro query --json`` shape) —
and ``{"id": ..., "ok": false, "error": ..., "error_type": ...}`` on
failure.  A request-level failure (unknown vertex, bad options) fails
only that request, never the connection.
"""

from __future__ import annotations

import dataclasses
import json
import math

from repro.core.options import SolveOptions
from repro.core.result import ConnectorResult

__all__ = [
    "canonical_sort",
    "decode_line",
    "encode_line",
    "options_from_payload",
    "result_to_payload",
]

#: The SolveOptions field names a request's ``options`` object may set.
OPTION_FIELDS = frozenset(
    field.name for field in dataclasses.fields(SolveOptions)
)


def canonical_sort(values) -> list:
    """Sort labels canonically: numerically when comparable, else by type
    name and repr — never the lexicographic-repr order that ranks 10
    before 2."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=lambda v: (type(v).__name__, repr(v)))


def options_from_payload(payload: dict) -> SolveOptions:
    """Build :class:`SolveOptions` from a request's ``options`` object.

    Unknown field names are rejected (a typo'd tunable must not be
    silently ignored); value validation is ``SolveOptions.__post_init__``'s
    job and surfaces as the same ``ValueError``.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"options must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - OPTION_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown option fields {unknown}; "
            f"choose from {sorted(OPTION_FIELDS)}"
        )
    return SolveOptions(**payload)


def result_to_payload(result: ConnectorResult) -> dict:
    """The JSON-safe document of one connector (the ``--json`` shape)."""
    wiener = result.wiener_index
    return {
        "query": canonical_sort(result.query),
        "nodes": canonical_sort(result.nodes),
        "added": canonical_sort(result.added_nodes),
        "size": result.size,
        "wiener_index": wiener if math.isfinite(wiener) else None,
        "density": result.density,
        "method": result.method,
        "metadata": {
            key: value
            for key, value in result.metadata.items()
            if isinstance(value, (int, float, str, bool, type(None)))
        },
    }


def encode_line(message: dict) -> bytes:
    """One response/request as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one line into a message object (must be a JSON object)."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError(
            f"a request line must be a JSON object, got {type(message).__name__}"
        )
    return message


