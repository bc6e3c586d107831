"""TEMP: temporally weighted neighbours [Wang et al., SIGSPATIAL 2016].

A non-learning baseline: the travel time of an OD query is the average
travel time of historical trips whose origin and destination both fall
within a spatial neighbourhood of the query's endpoints and whose departure
falls in the same time-of-week slot (with progressive relaxation when too
few neighbours exist).  Its "model" is the historical trip table itself, so
its memory footprint scales with the data (Table 5's observation) and its
query latency is the highest of all methods.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.dataset import TaxiDataset
from ..trajectory.model import TripRecord
from .base import TravelTimeEstimator


class TEMPEstimator(TravelTimeEstimator):
    """Neighbour-averaging travel-time estimation."""

    name = "TEMP"

    def __init__(self, neighbor_radius: float = 400.0,
                 slot_minutes: float = 30.0, min_neighbors: int = 3,
                 max_relaxations: int = 4):
        if neighbor_radius <= 0 or slot_minutes <= 0:
            raise ValueError("radius and slot size must be positive")
        self.neighbor_radius = neighbor_radius
        self.slot_minutes = slot_minutes
        self.min_neighbors = min_neighbors
        self.max_relaxations = max_relaxations
        self._records: Optional[np.ndarray] = None   # ox oy dx dy slot time
        self._slot_index: Dict[int, List[int]] = {}
        self._slots_per_week = int(7 * 24 * 60 // slot_minutes)
        self._fallback_time = 0.0

    # ------------------------------------------------------------------
    def fit(self, dataset: TaxiDataset) -> "TEMPEstimator":
        trips = dataset.split.train
        if not trips:
            raise ValueError("no training trips")
        rows = np.zeros((len(trips), 6))
        for i, trip in enumerate(trips):
            od = trip.od
            rows[i] = (*od.origin_xy, *od.destination_xy,
                       self._week_slot(od.depart_time), trip.travel_time)
        return self.fit_records(rows)

    def fit_records(self, records: np.ndarray) -> "TEMPEstimator":
        """Fit from a record table (:attr:`records` of a fitted TEMP with
        the same ``slot_minutes``) instead of from trips."""
        records = np.asarray(records, dtype=np.float64)
        if records.ndim != 2 or records.shape[1] != 6 or not len(records):
            raise ValueError("TEMP records must be a non-empty (N, 6) table")
        self._slot_index = defaultdict(list)
        for i, slot in enumerate(records[:, 4].astype(np.int64).tolist()):
            self._slot_index[slot].append(i)
        self._records = records
        self._fallback_time = float(records[:, 5].mean())
        return self

    @property
    def records(self) -> Optional[np.ndarray]:
        """The fitted trip table, one ``(ox, oy, dx, dy, week slot,
        travel time)`` row per training trip (``None`` before fit)."""
        return self._records

    def _week_slot(self, t: float) -> int:
        minutes = (t / 60.0) % (7 * 24 * 60)
        return int(minutes // self.slot_minutes)

    # ------------------------------------------------------------------
    def predict(self, trips: Sequence[TripRecord]) -> np.ndarray:
        if self._records is None:
            raise RuntimeError("fit() must be called before predict()")
        return np.array([self._predict_one(t) for t in trips])

    def _predict_one(self, trip: TripRecord) -> float:
        od = trip.od
        slot = self._week_slot(od.depart_time)
        radius = self.neighbor_radius
        slot_window = 0
        for _ in range(self.max_relaxations + 1):
            times = self._neighbors(od, slot, radius, slot_window)
            if len(times) >= self.min_neighbors:
                return float(np.mean(times))
            # Relax: wider radius and wider temporal window.
            radius *= 1.6
            slot_window += 1
        return float(np.mean(times)) if len(times) else self._fallback_time

    def _neighbors(self, od, slot: int, radius: float,
                   slot_window: int) -> np.ndarray:
        rows = self._records
        slots = [(slot + d) % self._slots_per_week
                 for d in range(-slot_window, slot_window + 1)]
        idx: List[int] = []
        for s in slots:
            idx.extend(self._slot_index.get(s, ()))
        if not idx:
            return np.empty(0)
        cand = rows[idx]
        ox, oy = od.origin_xy
        dx, dy = od.destination_xy
        near = ((np.hypot(cand[:, 0] - ox, cand[:, 1] - oy) <= radius)
                & (np.hypot(cand[:, 2] - dx, cand[:, 3] - dy) <= radius))
        return cand[near, 5]

    # ------------------------------------------------------------------
    def model_size_bytes(self) -> int:
        """TEMP must keep the whole historical trip table in memory."""
        if self._records is None:
            return 0
        return int(self._records.size * 8)
