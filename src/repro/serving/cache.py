"""Serving caches with hit/miss accounting.

Two query-path costs dominate a served OD estimate: snapping the raw
coordinates onto road segments (a spatial-index walk per endpoint) and
encoding the "current traffic condition" (Section 4.5: the speed matrix
of the Δt period before departure, through the traffic CNN to D_traf).
Popular pickup points recur, so map matches sit behind an LRU cache.
D_traf depends only on the period's matrix and the model weights,
never on the query, so it sits in a dense per-period table filled once
per period and cleared when a live write replaces that period's matrix:
:class:`SpeedSliceCache`.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.speed_matrix import SpeedMatrixStore
from ..obs.cache import LRUCache
from ..roadnet.spatial_index import Columns, Hit, SpatialIndex


class SpeedSliceCache:
    """D_traf rows of one model, one per Δt period of a speed store.

    ``encode`` is the model's
    :meth:`~repro.core.inference.InferencePlan.traffic_codes`.  The
    ``(periods, d_traf)`` float64 table is allocated on the first fill
    (1 MB for 4,032 periods at d_traf 32) and filled lazily:
    :meth:`traffic_before` encodes the missed periods of a batch in one
    ``encode`` call, reading each slice through
    :meth:`normalized_matrix_before`.

    The store is the serving service's one
    :class:`~repro.datagen.LiveSpeedStore`, so once ``repro.streaming``
    pushes live slices a period's matrix can change under the table:
    :meth:`invalidate` clears the touched periods and the next read
    re-encodes them from the store.  Fills and invalidations hold one
    lock, so an invalidation cannot land inside a fill and leave a
    stale row.
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

    def invalidate(self, periods: Sequence[int]) -> int:
        """Clear the named periods' rows; returns how many were named
        (one invalidation event each)."""
        with self._lock:
            touched = [int(p) for p in periods]
            self._filled[touched] = False
            self.invalidations += len(touched)
            return len(touched)

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
        eid, dist, ratio = self.nearest_edges([x], [y])
        return int(eid[0]), float(dist[0]), float(ratio[0])

    def nearest_edges(self, xs: Sequence[float], ys: Sequence[float]
                      ) -> Columns:
        """``SpatialIndex.nearest_edges`` through the cache: the missed
        keys go to the index in one call; hits, misses, evictions and
        the LRU order are those of one lookup per point in order."""
        hits = self._lru.get_many(list(zip(map(float, xs), map(float, ys))),
                                  self._snap)
        flat = np.fromiter(chain.from_iterable(hits), dtype=np.float64,
                           count=3 * len(hits)).reshape(-1, 3)
        return flat[:, 0].astype(np.int64), flat[:, 1], flat[:, 2]

    def _snap(self, keys: List[Tuple[float, float]]) -> List[Hit]:
        """The index's hits for the missed keys, in one call."""
        columns = self.index.nearest_edges([k[0] for k in keys],
                                           [k[1] for k in keys])
        return list(zip(*(column.tolist() for column in columns)))

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def stats(self) -> Dict[str, float]:
        return self._lru.stats()
