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
from collections import abc
from dataclasses import dataclass
from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datagen.dataset import TaxiDataset
from ..roadnet.spatial_index import Columns, SpatialIndex
from ..trajectory.model import ODBatch, ODInput, Query
from .inference import InferencePlan
from .model import DeepOD
from .trainer import DeepODTrainer

# ``snap(xs, ys)`` -> (edge ids, distances, ratios), one entry per point.
Snapper = Callable[[List[float], List[float]], Columns]


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


def clamp_depart_times(depart_times: np.ndarray,
                       horizon_seconds: float) -> np.ndarray:
    """The clamp of :func:`normalize_depart_time` on a column of
    departure times that :class:`Query` has already validated."""
    return np.minimum(depart_times, float(horizon_seconds) - 1.0)


def match_queries(queries: Sequence[Query], dataset: TaxiDataset,
                  snap: Snapper) -> ODBatch:
    """Snap raw-coordinate queries onto the road network (Section 3).

    Returns the batch as columns, in query order.  Departure times,
    already validated by :class:`Query`, are clamped to the horizon
    (:func:`clamp_depart_times`), so every downstream lookup (slot
    embedding, speed-matrix slice, weather) reads one value; the
    weather is one :meth:`~repro.datagen.weather.WeatherProcess.categories`
    gather.  Both endpoints of every query, origin before destination,
    are snapped in one ``snap`` call: ``SpatialIndex.nearest_edges``, or
    the serving layer's cached ``ODMatchCache.nearest_edges``.
    """
    n = len(queries)
    cols = np.fromiter(chain.from_iterable(
        (*q.origin_xy, *q.destination_xy, q.depart_time) for q in queries),
        dtype=np.float64, count=5 * n).reshape(n, 5)
    times = clamp_depart_times(cols[:, 4], dataset.horizon_seconds)
    points = cols[:, :4].ravel().tolist()       # x, y, x, y, ...
    edges, _, ratios = snap(points[0::2], points[1::2])
    return ODBatch(origin_xy=cols[:, 0:2], destination_xy=cols[:, 2:4],
                   depart_time=times,
                   origin_edge=edges[0::2], destination_edge=edges[1::2],
                   ratio_start=ratios[0::2], ratio_end=ratios[1::2],
                   weather=dataset.weather.categories(times))


@dataclass
class Estimate:
    """A travel-time estimate with a calibrated uncertainty band: the
    one-row view of :class:`Estimates`."""

    seconds: float
    lower: float        # e.g. 10th percentile band
    upper: float        # e.g. 90th percentile band
    origin_edge: int
    destination_edge: int

    def __post_init__(self):
        if not (self.lower <= self.seconds <= self.upper):
            raise ValueError("estimate must lie inside its band")


class Estimates(abc.Sequence):
    """Estimates of a batch, as columns: ``seconds``, ``lower`` and
    ``upper`` float64 and the matched ``origin_edge`` /
    ``destination_edge`` int64, one entry per OD in input order.

    Indexing and iteration yield :class:`Estimate` row views; two
    batches, or a batch and a list of rows, are equal when their rows
    are.
    """

    __slots__ = ("seconds", "lower", "upper", "origin_edge",
                 "destination_edge")

    def __init__(self, seconds: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray, origin_edge: np.ndarray,
                 destination_edge: np.ndarray):
        if not ((lower <= seconds) & (seconds <= upper)).all():
            raise ValueError("estimate must lie inside its band")
        self.seconds = seconds
        self.lower = lower
        self.upper = upper
        self.origin_edge = origin_edge
        self.destination_edge = destination_edge

    def __len__(self) -> int:
        return len(self.seconds)

    def __getitem__(self, i: int) -> Estimate:
        return Estimate(seconds=float(self.seconds[i]),
                        lower=float(self.lower[i]),
                        upper=float(self.upper[i]),
                        origin_edge=int(self.origin_edge[i]),
                        destination_edge=int(self.destination_edge[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return list(self) == list(other)


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

    def estimate_batch(self, queries: Sequence[Query]) -> Estimates:
        """Estimate many :class:`Query` objects in one vectorised pass."""
        if not len(queries):
            return self.estimate_from_ods([])
        return self.estimate_from_ods(
            match_queries(queries, self.dataset, self.index.nearest_edges))

    def estimate_from_ods(self, ods: Union[ODBatch, Sequence[ODInput]],
                          speed_matrices: Optional[np.ndarray] = None,
                          traffic: Optional[np.ndarray] = None
                          ) -> Estimates:
        """Estimate pre-matched OD inputs: an :class:`ODBatch`, or
        :class:`ODInput` rows turned into one first.

        The serving layer uses this entry point so it can supply its own
        (cached) map matches and traffic condition: its D_traf rows
        (``traffic``, from the serving layer's per-period code table),
        or one speed matrix per OD, each then encoded on its own.  With
        neither, each distinct Δt period of the batch is read from the
        dataset's store and encoded once.  ``estimate_batch`` funnels
        through here after matching from raw coordinates.
        """
        batch = ODBatch.from_rows(ods)
        if not len(batch):
            empty = np.empty(0)
            return Estimates(empty, empty, empty, batch.origin_edge,
                             batch.destination_edge)
        if (speed_matrices is None and traffic is None
                and self.plan.uses_speed_matrices):
            traffic = self._traffic_rows(batch.depart_time)
        preds = self.plan.predict(batch, speed_matrices, traffic=traffic)
        return Estimates(seconds=preds, lower=preds * self._lo_q,
                         upper=preds * self._hi_q,
                         origin_edge=batch.origin_edge,
                         destination_edge=batch.destination_edge)

    def _traffic_rows(self, times: np.ndarray) -> np.ndarray:
        """D_traf rows for ``times`` from the dataset's store: each
        distinct period encoded once, then gathered per time."""
        store = self.dataset.speed_store
        periods, inverse = np.unique(store.periods_before(times),
                                     return_inverse=True)
        codes = self.plan.traffic_codes(np.stack(
            [store.normalized_matrix_at(int(p)) for p in periods]))
        return codes[inverse.reshape(-1)]

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
