"""Serving-style prediction facade.

``TravelTimePredictor`` is what a downstream service would actually adopt:
it owns a trained DeepOD model plus the preprocessing a live query needs —
snapping raw origin/destination coordinates to road segments (Section 3:
"we match the GPS points onto road segments"), slot/remainder conversion,
external-feature assembly — and augments point estimates with empirical
confidence intervals calibrated on validation residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.dataset import TaxiDataset
from ..roadnet.spatial_index import SpatialIndex
from ..trajectory.model import ODInput, Query
from .inference import InferencePlan
from .model import DeepOD
from .trainer import DeepODTrainer

# ``snap(xs, ys)`` -> one (edge_id, distance, ratio) per point.
Snapper = Callable[[List[float], List[float]],
                   Sequence[Tuple[int, float, float]]]


def normalize_depart_time(depart_time: float,
                          horizon_seconds: float) -> float:
    """Validate and clamp a departure time against the dataset horizon.

    Non-finite values are rejected (a NaN would silently poison the slot
    index and the weather lookup), negative values are rejected, and
    values past the horizon are clamped to the last representable second
    — the same clamp previously applied only to the weather lookup, now
    applied to the stored OD input too, so every consumer (slot
    embedding, speed-matrix slice, weather) sees one consistent value.
    """
    t = float(depart_time)
    if not math.isfinite(t):
        raise ValueError(f"departure time must be finite, got {t!r}")
    if t < 0:
        raise ValueError("departure time must be non-negative")
    return min(t, float(horizon_seconds) - 1.0)


def match_queries(queries: Sequence[Query], dataset: TaxiDataset,
                  snap: Snapper) -> List[ODInput]:
    """Snap raw-coordinate queries onto the road network (Section 3).

    Departure times, already validated by :class:`Query`, are clamped
    to the horizon first (:func:`normalize_depart_time`), so each OD
    input carries the value every downstream lookup uses.  Then both
    endpoints of every query, origin before destination, are snapped in
    one ``snap`` call: ``SpatialIndex.nearest_edges``, or the serving
    layer's cached ``ODMatchCache.nearest_edges``.
    """
    times = [normalize_depart_time(q.depart_time, dataset.horizon_seconds)
             for q in queries]
    points = [p for q in queries for p in (q.origin_xy, q.destination_xy)]
    hits = snap([p[0] for p in points], [p[1] for p in points])
    ods = []
    for i, (query, t) in enumerate(zip(queries, times)):
        o_edge, _, o_ratio = hits[2 * i]
        d_edge, _, d_ratio = hits[2 * i + 1]
        ods.append(ODInput(
            origin_xy=query.origin_xy,
            destination_xy=query.destination_xy, depart_time=t,
            origin_edge=o_edge, destination_edge=d_edge,
            ratio_start=o_ratio, ratio_end=d_ratio,
            weather=dataset.weather.category(t)))
    return ods


@dataclass
class Estimate:
    """A travel-time estimate with a calibrated uncertainty band."""

    seconds: float
    lower: float        # e.g. 10th percentile band
    upper: float        # e.g. 90th percentile band
    origin_edge: int
    destination_edge: int

    def __post_init__(self):
        if not (self.lower <= self.seconds <= self.upper):
            raise ValueError("estimate must lie inside its band")


class TravelTimePredictor:
    """Query-facing wrapper around a trained DeepOD model.

    Estimates come from an :class:`~repro.core.inference.InferencePlan`
    compiled here, so a predictor is a snapshot of the model's weights
    at construction: training the model further does not change its
    answers.  Build the predictor after the final weights are in place
    (or build a new one).

    Parameters
    ----------
    trainer:
        A fitted :class:`DeepODTrainer` (provides prediction plumbing and
        the dataset's speed-matrix store).
    coverage:
        Central coverage of the confidence band (default 0.8 → the band
        spans the 10th-90th percentile of validation relative residuals).
    quantiles:
        Pre-computed ``(lo, hi)`` residual-ratio quantiles.  When given,
        the validation-split calibration pass is skipped entirely — this
        is how a serving artifact restores a predictor without re-running
        inference over the validation split (see ``repro.serving.artifact``).
    """

    def __init__(self, trainer: DeepODTrainer, coverage: float = 0.8,
                 quantiles: Optional[Tuple[float, float]] = None):
        self._trainer: Optional[DeepODTrainer] = trainer
        self._bind(trainer.model, trainer.dataset, coverage)
        if quantiles is not None:
            self._set_quantiles(quantiles)
        else:
            self._lo_q, self._hi_q = self._calibrate()

    @classmethod
    def from_model(cls, model: DeepOD, dataset: TaxiDataset,
                   quantiles: Tuple[float, float],
                   coverage: float = 0.8) -> "TravelTimePredictor":
        """A predictor over a restored model, with no trainer and no
        calibration pass: how ``repro.serving.artifact`` restores one
        from its weights and saved band quantiles.  A trainer is built
        on first read of :attr:`trainer`."""
        predictor = cls.__new__(cls)
        predictor._trainer = None
        predictor._bind(model, dataset, coverage)
        predictor._set_quantiles(quantiles)
        return predictor

    def _bind(self, model: DeepOD, dataset: TaxiDataset,
              coverage: float) -> None:
        if not 0.0 < coverage < 1.0:
            raise ValueError("coverage must be in (0, 1)")
        self.dataset: TaxiDataset = dataset
        self.model: DeepOD = model
        self.plan = InferencePlan.compile(model)
        self.index = SpatialIndex(dataset.net)
        self.coverage = coverage

    def _set_quantiles(self, quantiles: Tuple[float, float]) -> None:
        lo, hi = float(quantiles[0]), float(quantiles[1])
        if not lo <= hi:
            raise ValueError("quantiles must satisfy lo <= hi")
        self._lo_q, self._hi_q = min(lo, 1.0), max(hi, 1.0)

    @property
    def trainer(self) -> DeepODTrainer:
        """The trainer behind the model (the val-MAE prediction path).

        A predictor built by :meth:`from_model` makes one on first read.
        That reads the dataset's training split, which regenerates the
        trips of an artifact loaded without its dataset; the model keeps
        its restored target-normalisation statistics.
        """
        if self._trainer is None:
            mean = float(self.model.target_mean[0])
            std = float(self.model.target_std[0])
            trainer = DeepODTrainer(self.model, self.dataset, eval_every=0)
            self.model.set_target_stats(mean, std)
            self._trainer = trainer
        return self._trainer

    @property
    def quantiles(self) -> Tuple[float, float]:
        """The calibrated ``(lo, hi)`` band ratios (artifact state)."""
        return (self._lo_q, self._hi_q)

    # ------------------------------------------------------------------
    def _calibrate(self) -> Tuple[float, float]:
        """Empirical relative-residual quantiles on the validation split.

        The band for a prediction p is [p*lo, p*hi] where lo/hi are
        quantiles of actual/predicted on validation data — a simple,
        honest split-conformal construction.
        """
        val = self.dataset.split.validation
        if not val:
            return (0.5, 2.0)
        preds = self.trainer.predict(list(val))
        actual = np.array([t.travel_time for t in val])
        ratios = actual / np.maximum(preds, 1e-9)
        alpha = (1.0 - self.coverage) / 2.0
        lo = float(np.quantile(ratios, alpha))
        hi = float(np.quantile(ratios, 1.0 - alpha))
        return (min(lo, 1.0), max(hi, 1.0))

    # ------------------------------------------------------------------
    def match_query(self, origin_xy: Tuple[float, float],
                    destination_xy: Tuple[float, float],
                    depart_time: float) -> ODInput:
        """Snap one raw-coordinate query (see :func:`match_queries`)."""
        query = Query(origin_xy=origin_xy, destination_xy=destination_xy,
                      depart_time=depart_time)
        return match_queries([query], self.dataset,
                             self.index.nearest_edges)[0]

    def estimate(self, query: Query) -> Estimate:
        """Estimate one trip from a raw-coordinate :class:`Query`."""
        return self.estimate_batch([query])[0]

    def estimate_batch(self, queries: Sequence[Query]) -> List[Estimate]:
        """Estimate many :class:`Query` objects in one vectorised pass."""
        if not len(queries):
            return []
        ods = match_queries(queries, self.dataset, self.index.nearest_edges)
        return self.estimate_from_ods(ods)

    def estimate_from_ods(self, ods: Sequence[ODInput],
                          speed_matrices: Optional[np.ndarray] = None,
                          traffic: Optional[np.ndarray] = None
                          ) -> List[Estimate]:
        """Estimate pre-matched OD inputs.

        The serving layer uses this entry point so it can supply its own
        (cached) map matches and traffic condition: one speed matrix per
        OD, or its D_traf row (``traffic``, from the serving layer's
        per-period code table).  With neither, the matrices are read
        from the dataset's store.  ``estimate_batch`` funnels through
        here after matching from raw coordinates.
        """
        if not len(ods):
            return []
        mats = speed_matrices
        if mats is None and traffic is None and self.plan.uses_speed_matrices:
            store = self.dataset.speed_store
            mats = np.stack([store.normalized_matrix_before(od.depart_time)
                             for od in ods])
        preds = self.plan.predict(ods, mats, traffic=traffic)
        return [Estimate(seconds=float(p),
                         lower=float(p * self._lo_q),
                         upper=float(p * self._hi_q),
                         origin_edge=od.origin_edge,
                         destination_edge=od.destination_edge)
                for p, od in zip(preds, ods)]

    # ------------------------------------------------------------------
    def band_coverage_on_test(self) -> float:
        """Fraction of test trips whose actual time falls in the band —
        a health check for the calibration (should approximate
        ``coverage``)."""
        test = self.dataset.split.test
        if not test:
            raise ValueError("no test trips to evaluate coverage on")
        preds = self.trainer.predict(list(test))
        actual = np.array([t.travel_time for t in test])
        inside = ((actual >= preds * self._lo_q)
                  & (actual <= preds * self._hi_q))
        return float(inside.mean())
