"""Serving caches with hit/miss accounting.

Two query-path costs dominate a served OD estimate: snapping the raw
coordinates onto road segments (a spatial-index walk per endpoint) and
assembling the "current traffic condition" speed matrix (Section 4.5 —
one matrix per Δt period, shared by every query departing in that
period).  Both are highly repetitive in production traffic — popular
pickup points recur, and all queries inside one 5-minute period need the
same matrix — so both sit behind LRU caches here.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.speed_matrix import SpeedMatrixStore
from ..obs.cache import LRUCache
from ..roadnet.spatial_index import SpatialIndex

class SpeedSliceCache:
    """Normalised speed-matrix slices keyed by (period, version).

    ``SpeedMatrixStore.normalized_matrix_before`` recomputes the clip and
    scale on every call; all queries departing inside the same Δt period
    share one slice, so the natural cache key is the period index.  A
    bare period key is only safe while the store is immutable — once
    ``repro.streaming`` pushes live slices, a period's matrix can change
    under the cache, and a key that never changes would serve the stale
    pre-update slice forever.  Keys therefore carry a per-period version
    (plus a store-wide generation bumped on :meth:`swap_store`): an
    :meth:`invalidate` makes the old entry unreachable — it ages out of
    the LRU — and the next read recomputes from the live store.
    """

    def __init__(self, store: SpeedMatrixStore, capacity: int = 64):
        self._store = store
        self._lru = LRUCache(capacity)
        self._lock = threading.Lock()
        self._generation = 0
        self._versions: Dict[int, int] = {}
        self.invalidations = 0

    @property
    def store(self) -> SpeedMatrixStore:
        return self._store

    def period_of(self, t: float) -> int:
        return self._store.period_before(t)

    def _key(self, period: int) -> Tuple[int, int, int]:
        return (period, self._generation, self._versions.get(period, 0))

    def normalized_matrix_before(self, t: float) -> np.ndarray:
        period = self.period_of(t)
        with self._lock:
            key = self._key(period)
        return self._lru.get_or_compute(
            key, lambda: self._store.normalized_matrix_at(period))

    def invalidate(self, periods: Optional[Sequence[int]] = None) -> int:
        """Version-bump cached slices: the named periods, or every
        period (``None``).  Returns how many invalidation events were
        recorded (one per named period; one for a full flush)."""
        with self._lock:
            if periods is None:
                self._generation += 1
                self._versions.clear()
                self.invalidations += 1
                return 1
            touched = [int(p) for p in periods]
            for period in touched:
                self._versions[period] = self._versions.get(period, 0) + 1
            self.invalidations += len(touched)
            return len(touched)

    def swap_store(self, store: SpeedMatrixStore) -> None:
        """Point the cache at a new store; every cached slice dies."""
        with self._lock:
            self._store = store
            self._generation += 1
            self._versions.clear()
            self.invalidations += 1

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def stats(self) -> Dict[str, float]:
        stats = self._lru.stats()
        stats["invalidations"] = self.invalidations
        return stats


class ODMatchCache:
    """Nearest-edge map matches keyed per endpoint coordinate.

    Caching per *endpoint* rather than per OD pair doubles reuse: a
    popular pickup point hits the cache no matter where the trip goes.
    Keys are exact coordinates by default (lossless); an optional
    ``quantize_metres`` snaps keys to a grid, trading a bounded match
    perturbation for a much higher hit rate under GPS jitter.
    """

    def __init__(self, index: SpatialIndex, capacity: int = 4096,
                 quantize_metres: float = 0.0):
        if quantize_metres < 0:
            raise ValueError("quantize_metres must be >= 0")
        self.index = index
        self.quantize_metres = quantize_metres
        self._lru = LRUCache(capacity)

    def _key(self, x: float, y: float) -> Tuple[float, float]:
        q = self.quantize_metres
        if q > 0:
            return (round(x / q) * q, round(y / q) * q)
        return (float(x), float(y))

    def nearest_edge(self, x: float, y: float) -> Tuple[int, float, float]:
        """(edge_id, distance, ratio) as in ``SpatialIndex.nearest_edge``."""
        return self.nearest_edges([x], [y])[0]

    def nearest_edges(self, xs: Sequence[float], ys: Sequence[float]
                      ) -> List[Tuple[int, float, float]]:
        """:meth:`nearest_edge` for every point ``(xs[i], ys[i])``: one
        batched index query for the missed keys; hits, misses and
        evictions as for one lookup per point in order."""
        return self._lru.get_many(
            [self._key(x, y) for x, y in zip(xs, ys)],
            lambda keys: self.index.nearest_edges([k[0] for k in keys],
                                                  [k[1] for k in keys]))

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def stats(self) -> Dict[str, float]:
        return self._lru.stats()
