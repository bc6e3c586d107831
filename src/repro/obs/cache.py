"""Bounded LRU cache with hit/miss/eviction accounting.

The one cache type behind the map matcher's route and SSSP-row caches
and the serving layer's OD-match and speed-slice caches.  Its counters
feed the hit-rate gauges those layers export, which is why it lives in
the observability leaf that both may import.  Thread-safe (the HTTP
front-end is a threading server).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Sequence

_PENDING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` counts a hit or a miss; ``peek``-style access is deliberately
    absent so the exported hit rate reflects every lookup.
    """

    _MISSING = object()

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def _insert(self, key: Hashable, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def get(self, key: Hashable, default=None):
        with self._lock:
            value = self._data.get(key, self._MISSING)
            if value is self._MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._insert(key, value)

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        """Cached value for ``key``, calling ``compute()`` on a miss."""
        return self.get_many([key], lambda keys: [compute()])[0]

    def get_many(self, keys: Sequence[Hashable],
                 compute_many: Callable[[List[Hashable]], Sequence]
                 ) -> List:
        """Values for ``keys``, calling ``compute_many(missed)`` once with
        the distinct keys not cached.

        Hits, misses, evictions and the final LRU order equal those of a
        :meth:`get_or_compute` per key in order: a key repeated inside
        the batch hits on its second lookup unless it was evicted in
        between.  The lock is held throughout, so no other thread sees a
        half-filled batch; if ``compute_many`` raises, the batch's new
        entries are dropped.
        """
        with self._lock:
            data = self._data
            found = []
            missed: Dict[Hashable, object] = {}
            for key in keys:
                value = data.get(key, self._MISSING)
                if value is self._MISSING:
                    self.misses += 1
                    missed[key] = value = _PENDING
                    self._insert(key, _PENDING)
                else:
                    data.move_to_end(key)
                    self.hits += 1
                found.append(value)
            if missed:
                try:
                    values = compute_many(list(missed))
                except BaseException:
                    for key in missed:
                        if data.get(key) is _PENDING:
                            del data[key]
                    raise
                for key, value in zip(missed, values):
                    missed[key] = value
                    if data.get(key) is _PENDING:
                        data[key] = value
            return [missed[key] if value is _PENDING else value
                    for key, value in zip(keys, found)]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {"size": len(self._data), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}
