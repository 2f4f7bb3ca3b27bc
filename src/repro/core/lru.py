"""The one LRU bounded-map policy shared by every cache layer.

Root-BFS data inside both engines, and the candidate/score/result layers
of :class:`repro.core.service.ConnectorService`, all follow the same
rules: refresh recency on hit, evict the least-recently-used entry past
``maxsize``, count hits and misses for observability.  One implementation
here keeps the policy identical everywhere (a divergence between layers
would be invisible until it skewed an eviction-identity property test).
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["LRUCache"]

#: Sentinel distinguishing "not cached" from a cached ``None`` in :meth:`pop`.
_MISSING = object()


class LRUCache:
    """A tiny LRU map with hit/miss counters; ``maxsize=None`` = unbounded."""

    __slots__ = ("_data", "_maxsize", "hits", "misses")

    def __init__(self, maxsize: int | None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"cache size must be positive or None, got {maxsize}")
        self._data: OrderedDict = OrderedDict()
        self._maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if self._maxsize is not None and len(self._data) > self._maxsize:
            self._data.popitem(last=False)

    def peek(self, key):
        """Read ``key`` without recency or counter effects (``None`` if absent)."""
        return self._data.get(key)

    def pop(self, key) -> bool:
        """Drop ``key`` if cached; returns whether it was present.

        A targeted eviction (scoped invalidation after a graph delta), so
        it touches neither the hit nor the miss counter — those measure
        lookup traffic, not cache maintenance.
        """
        return self._data.pop(key, _MISSING) is not _MISSING

    def keys(self):
        """A snapshot list of the cached keys, LRU-first."""
        return list(self._data)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._data)
        self._data.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._data)
