"""Graceful degradation: a historical-average fallback estimator.

A serving stack must answer even when the model path cannot — the
artifact failed validation, the weights are corrupt, or a prediction
raises at runtime.  The fallback is a TEMP-style neighbour average
(Wang et al., SIGSPATIAL 2016 — the paper's non-learning baseline): it
needs only the historical trip table, cannot fail on any input, and is
exactly what ran in production before learned estimators existed.  A
dataset loaded from an artifact brings that table in its serving-state
bundle, so no trip is read.
Responses served this way are flagged ``degraded`` so callers and
dashboards can tell model answers from fallback answers.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..datagen.dataset import TaxiDataset
from ..trajectory.model import ODInput, Query, TripRecord
from .state import fitted_temp


class HistoricalAverageFallback:
    """TEMP-backed estimator answering raw-coordinate queries.

    The band attached to degraded estimates is a fixed wide ratio band,
    [0.5p, 2p]: honest about the fact that no calibration backs a
    degraded answer.  The route tier of the service uses it too.
    """

    def __init__(self, dataset: TaxiDataset):
        self._temp = fitted_temp(dataset)

    def estimate_seconds(self, queries: Sequence[Query]) -> np.ndarray:
        """Point estimates (seconds) for :class:`Query` objects."""
        trips = [TripRecord(od=ODInput(origin_xy=q.origin_xy,
                                       destination_xy=q.destination_xy,
                                       depart_time=q.depart_time),
                            travel_time=1.0)   # dummy; TEMP reads only od
                 for q in queries]
        return self._temp.predict(trips)

    @staticmethod
    def bands(seconds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(lower, upper)`` columns of the band around ``seconds``."""
        return seconds * 0.5, seconds * 2.0
