"""Serving caches with hit/miss accounting.

Two query-path costs dominate a served OD estimate: snapping the raw
coordinates onto road segments (a spatial-index walk per endpoint) and
encoding the "current traffic condition" (Section 4.5: the speed matrix
of the Δt period before departure, through the traffic CNN to D_traf).
Popular pickup points recur, so map matches sit behind an LRU cache.
D_traf depends only on the period, its live version and the model
weights, never on the query, so it sits in a dense per-period table
filled once per (period, version): :class:`SpeedSliceCache`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.speed_matrix import SpeedMatrixStore
from ..obs.cache import LRUCache
from ..roadnet.spatial_index import SpatialIndex


class SpeedSliceCache:
    """D_traf rows of one model, one per Δt period of a speed store.

    ``encode`` is the model's
    :meth:`~repro.core.inference.InferencePlan.traffic_codes`.  The
    ``(periods, d_traf)`` float64 table is allocated on the first fill
    (1 MB for 4,032 periods at d_traf 32) and filled lazily:
    :meth:`traffic_before` encodes the missed periods of a batch in one
    ``encode`` call, reading each slice through
    :meth:`normalized_matrix_before`.

    Once ``repro.streaming`` pushes live slices, a period's matrix can
    change under the table: :meth:`invalidate` clears the touched
    periods (or every period) and the next read re-encodes them from
    the live store.  Fills and invalidations hold one lock, so an
    invalidation cannot land inside a fill and leave a stale row.
    """

    def __init__(self, store: SpeedMatrixStore,
                 encode: Callable[[np.ndarray], np.ndarray]):
        self._encode = encode
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._store = store
        self._table: Optional[np.ndarray] = None
        self._filled = np.zeros(store.periods, dtype=bool)

    @property
    def store(self) -> SpeedMatrixStore:
        return self._store

    def normalized_matrix_before(self, t: float) -> np.ndarray:
        """The normalised speed matrix of the period before ``t``, read
        from the store: what a table miss encodes."""
        return self._store.normalized_matrix_before(t)

    def traffic_before(self, times: Sequence[float]) -> np.ndarray:
        """The D_traf rows of the periods before ``times`` (non-empty),
        as a ``(len(times), d_traf)`` array.  Hits and misses count as
        for one lookup per time in order."""
        times = np.asarray(times, dtype=np.float64)
        with self._lock:
            periods = self._store.periods_before(times)
            filled = self._filled[periods]
            missed = 0 if filled.all() else self._fill(
                times[~filled], periods[~filled])
            self.hits += len(periods) - missed
            self.misses += missed
            return self._table[periods]

    def _fill(self, times: np.ndarray, periods: np.ndarray) -> int:
        """Encode the distinct ``periods`` in one call; returns how many."""
        missed, first = np.unique(periods, return_index=True)
        codes = self._encode(np.stack(
            [self.normalized_matrix_before(t) for t in times[first]]))
        if self._table is None:
            self._table = np.empty((len(self._filled), codes.shape[1]))
        self._table[missed] = codes
        self._filled[missed] = True
        return len(missed)

    def invalidate(self, periods: Optional[Sequence[int]] = None) -> int:
        """Clear the named periods' rows, or every row (``None``).
        Returns how many invalidation events were recorded (one per
        named period; one for a full flush)."""
        with self._lock:
            if periods is None:
                self._filled[:] = False
                self.invalidations += 1
                return 1
            touched = [int(p) for p in periods]
            self._filled[touched] = False
            self.invalidations += len(touched)
            return len(touched)

    def swap_store(self, store: SpeedMatrixStore) -> None:
        """Point the table at ``store``, keeping every row.

        ``store`` must answer every period as the current store does,
        as a fresh :class:`~repro.datagen.LiveSpeedStore` overlay of it
        does (same base matrices, same normalisation scale).  A period
        whose slice changes later is cleared by :meth:`invalidate`.
        """
        with self._lock:
            self._store = store

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {"periods": len(self._filled),
                "filled": int(self._filled.sum()),
                "hits": self.hits, "misses": self.misses,
                "hit_rate": self.hit_rate,
                "invalidations": self.invalidations}


class ODMatchCache:
    """Nearest-edge map matches keyed per endpoint coordinate.

    Caching per *endpoint* rather than per OD pair doubles reuse: a
    popular pickup point hits the cache no matter where the trip goes.
    Keys are the exact coordinates, so a cached match is the match.
    """

    def __init__(self, index: SpatialIndex, capacity: int = 4096):
        self.index = index
        self._lru = LRUCache(capacity)

    def nearest_edge(self, x: float, y: float) -> Tuple[int, float, float]:
        """(edge_id, distance, ratio) as in ``SpatialIndex.nearest_edge``."""
        return self.nearest_edges([x], [y])[0]

    def nearest_edges(self, xs: Sequence[float], ys: Sequence[float]
                      ) -> List[Tuple[int, float, float]]:
        """:meth:`nearest_edge` for every point ``(xs[i], ys[i])``: one
        batched index query for the missed keys; hits, misses and
        evictions as for one lookup per point in order."""
        return self._lru.get_many(
            [(float(x), float(y)) for x, y in zip(xs, ys)],
            lambda keys: self.index.nearest_edges([k[0] for k in keys],
                                                  [k[1] for k in keys]))

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def stats(self) -> Dict[str, float]:
        return self._lru.stats()
