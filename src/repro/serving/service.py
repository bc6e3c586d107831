"""TravelTimeService: the operable serving stack around a predictor.

Wires the pieces of ``repro.serving`` into one query-facing object:

* one :class:`~repro.datagen.LiveSpeedStore`, made at construction,
  that every tier reads the current traffic condition from and that
  ``apply_live_speeds`` writes live slices into;
* cached map matching (``ODMatchCache``) and a per-period table of the
  traffic CNN's D_traf rows (``SpeedSliceCache``) in front of the model
  path;
* a :class:`MicroBatcher` coalescing concurrent single queries into
  vectorised ``estimate_from_ods`` calls;
* graceful degradation to :class:`HistoricalAverageFallback` when the
  model path raises or no valid model artifact is available;
* a :class:`MetricsRegistry` tracking traffic, latency percentiles,
  batch sizes and cache hit rates.

Per the paper's prediction-time design, the model path exercises only
M_O and M_E — no trajectory ever enters a served query.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.predictor import TravelTimePredictor, match_queries
from ..datagen.dataset import TaxiDataset
from ..datagen.speed_matrix import LiveSpeedStore
from ..obs.instrument import Instrumented
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..trajectory.model import Query
from .batcher import MicroBatcher
from .cache import ODMatchCache, SpeedSliceCache
from .errors import SaturatedError
from .fallback import HistoricalAverageFallback
from .route_baseline import RouteTimeBaseline


@dataclass
class ServiceConfig:
    """Operational knobs of the serving stack.

    ``max_pending`` bounds the micro-batcher admission queue: once that
    many queries are waiting, :meth:`TravelTimeService.submit` sheds
    load with :class:`~repro.serving.errors.SaturatedError` (the HTTP
    front-end turns it into a 503) instead of buffering without bound.
    ``0`` keeps the queue unbounded.
    """

    max_batch: int = 128
    max_pending: int = 0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")


@dataclass
class ServingResponse:
    """One answered query, with provenance.

    ``degraded_tier`` names the rung of the degradation ladder that
    produced the answer: 0 = model, 1 = shortest-path × live-speed
    baseline, 2 = TEMP historical average.  ``degraded`` stays the
    boolean summary (tier > 0) the existing clients key on.
    """

    seconds: float
    lower: float
    upper: float
    origin_edge: int
    destination_edge: int
    degraded: bool
    source: str                 # "model" | "route" | "fallback"
    degraded_tier: int = 0      # 0 model | 1 route baseline | 2 TEMP

    def to_dict(self) -> Dict[str, object]:
        return {
            "seconds": round(self.seconds, 3),
            "lower": round(self.lower, 3),
            "upper": round(self.upper, 3),
            "origin_edge": self.origin_edge,
            "destination_edge": self.destination_edge,
            "degraded": self.degraded,
            "source": self.source,
            "degraded_tier": self.degraded_tier,
        }


class Answers(NamedTuple):
    """One tier's answers to a batch, as columns in query order."""

    seconds: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    origin_edge: np.ndarray
    destination_edge: np.ndarray
    source: str
    tier: int

    def responses(self) -> List[ServingResponse]:
        """The front-end edge: one :class:`ServingResponse` per query."""
        degraded = self.tier > 0
        return [ServingResponse(s, lo, hi, o, d, degraded, self.source,
                                self.tier)
                for s, lo, hi, o, d in zip(
                    self.seconds.tolist(), self.lower.tolist(),
                    self.upper.tolist(), self.origin_edge.tolist(),
                    self.destination_edge.tolist())]


def fallback_answers(fallback: HistoricalAverageFallback,
                     queries: Sequence[Query]) -> Answers:
    """Tier 2 (TEMP) columns: no matched edges, the fixed wide band."""
    seconds = fallback.estimate_seconds(queries)
    unmatched = np.full(len(seconds), -1, dtype=np.int64)
    return Answers(seconds, *fallback.bands(seconds), unmatched, unmatched,
                   "fallback", 2)


def _require_queries(queries: Sequence[Query]) -> None:
    """A caller's wrong type is a ``TypeError`` here, before any tier
    runs or counts it, not an outage further in."""
    for query in queries:
        if not isinstance(query, Query):
            raise TypeError(f"expected a Query, got "
                            f"{type(query).__name__}")


class _ModelPath(NamedTuple):
    """What the model tier reads, replaced as one reference on a swap so
    no batch pairs one model with another model's traffic codes."""

    predictor: TravelTimePredictor
    od_cache: ODMatchCache
    slice_cache: Optional[SpeedSliceCache]


class TravelTimeService(Instrumented):
    """Production-style front door over a (possibly absent) predictor.

    Parameters
    ----------
    predictor:
        A ready :class:`TravelTimePredictor`, typically from
        ``repro.serving.artifact.load_artifact``.  ``None`` starts the
        service in permanently degraded (fallback-only) mode.
    dataset:
        Required only when ``predictor`` is ``None`` (the fallback needs
        the historical trip table); otherwise taken from the predictor.
    tracer:
        Optional :class:`~repro.obs.Tracer`; each answered batch opens
        a ``serve.request`` span with per-phase children (``serve.match``
        / ``serve.speed_slices`` / ``serve.predict`` or
        ``serve.fallback``) — the paper's per-query cost breakdown
        (Table 5).  Batches answered on the micro-batcher worker thread
        trace as that thread's roots.
    """

    def __init__(self, predictor: Optional[TravelTimePredictor] = None,
                 dataset: Optional[TaxiDataset] = None,
                 config: Optional[ServiceConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        if predictor is None and dataset is None:
            raise ValueError("need a predictor or a dataset")
        self.tracer = tracer
        self.config = config or ServiceConfig()
        self.dataset = dataset if dataset is not None else predictor.dataset
        self.metrics = metrics or MetricsRegistry()
        self.fallback = HistoricalAverageFallback(self.dataset)

        # The one speed store every tier reads: the training-time
        # matrices, overlaid by the live slices ``apply_live_speeds``
        # writes.
        self.speed_store = LiveSpeedStore(self.dataset.speed_store)
        # Tier 1 of the degradation ladder: when the model path raises,
        # a shortest-path × current-speed estimate comes before the TEMP
        # average.  It snaps through the model path's match cache, so
        # its rung runs only when a model path exists.
        self.route_baseline = RouteTimeBaseline(self.dataset.net,
                                                self.speed_store)
        # Serialises the writers of live state (live speeds, swaps).
        self._write_lock = threading.Lock()

        self._path: Optional[_ModelPath] = None
        if predictor is not None:
            self._path = self._model_path(predictor)
            self.metrics.register_gauge("od_match_cache",
                                        lambda: self.od_cache.stats())
            if self.slice_cache is not None:
                self.metrics.register_gauge(
                    "speed_slice_cache",
                    lambda: (self.slice_cache.stats()
                             if self.slice_cache else {}))
        # Standard-schema cache-effectiveness gauges (dashboards key on
        # these names; the full stats dicts above stay for debugging).
        # A cache that does not exist on this service reads 0.0 rather
        # than vanishing from the snapshot.
        self.metrics.register_gauge(
            "serve.cache.od.hit_rate",
            lambda: self.od_cache.hit_rate if self.od_cache else 0.0)
        self.metrics.register_gauge(
            "serve.cache.speed.hit_rate",
            lambda: self.slice_cache.hit_rate if self.slice_cache else 0.0)

        self.batcher = MicroBatcher(
            self._answer_batch,
            max_batch=self.config.max_batch,
            on_batch=lambda n: self.metrics.histogram("batch_size")
                                   .observe(n))

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "TravelTimeService":
        """Start the micro-batcher worker (needed for ``submit``)."""
        self.batcher.start()
        return self

    def stop(self) -> None:
        self.batcher.stop()

    @property
    def predictor(self) -> Optional[TravelTimePredictor]:
        return self._path.predictor if self._path else None

    @property
    def od_cache(self) -> Optional[ODMatchCache]:
        return self._path.od_cache if self._path else None

    @property
    def slice_cache(self) -> Optional[SpeedSliceCache]:
        """The model's D_traf table; ``None`` when it reads no traffic."""
        return self._path.slice_cache if self._path else None

    def _model_path(self, predictor: TravelTimePredictor) -> _ModelPath:
        table = None
        if predictor.plan.uses_speed_matrices:
            table = SpeedSliceCache(self.speed_store,
                                    predictor.plan.traffic_codes)
        return _ModelPath(predictor, ODMatchCache(predictor.index), table)

    @property
    def degraded(self) -> bool:
        """True when no model path exists (fallback-only service)."""
        return self.predictor is None

    # -- live traffic state ----------------------------------------------
    def apply_live_speeds(self, slices: Dict[int, np.ndarray]) -> int:
        """Overlay freshly estimated speed-matrix slices.

        ``slices`` maps period index → raw mean-speed matrix (m/s, grid
        shaped).  The push lands whole or not at all: a slice of the
        wrong shape or period raises ``ValueError`` before any is
        written, and then no store row, table row or counter changes.
        An applied push clears the touched periods' rows of the
        traffic-code table so no stale code survives (counted in
        ``serve.cache.speed.invalidations``).  Returns the number of
        slices applied.
        """
        if not slices:
            return 0
        with self._write_lock:
            self.speed_store.update_slices(slices)
            table = self.slice_cache
            if table is not None:
                invalidated = table.invalidate([int(p) for p in slices])
                self.metrics.counter(
                    "serve.cache.speed.invalidations").inc(invalidated)
        self.metrics.counter("serve.speed_updates").inc(len(slices))
        return len(slices)

    def swap_predictor(self, predictor: TravelTimePredictor) -> None:
        """Replace the model in place (single-process hot swap).

        The cluster's workers reload from the promotion gate's symlink
        themselves; a bare :class:`TravelTimeService` is swapped by its
        owner — the streaming controller does this after a promotion.
        The map-match cache and the traffic-code table start afresh for
        the new predictor (its codes are its own weights'); the speed
        store, with its live slices, stays.
        """
        if predictor is None:
            raise ValueError("swap_predictor needs a predictor")
        with self._write_lock:
            self._path = self._model_path(predictor)
        self.metrics.counter("serve.model_swaps").inc()

    # -- query paths -----------------------------------------------------
    def query(self, query: Query) -> ServingResponse:
        """Answer one :class:`Query` synchronously (no batching)."""
        return self.query_batch([query])[0]

    def query_batch(self, queries: Sequence[Query]
                    ) -> List[ServingResponse]:
        """Answer many :class:`Query` objects in one vectorised pass."""
        queries = list(queries)
        _require_queries(queries)
        start = time.perf_counter()
        responses = self._answer_batch(queries)
        # Every query of a synchronous batch waits for the whole batch.
        self.metrics.histogram("latency_ms").observe(
            (time.perf_counter() - start) * 1000.0, count=len(responses))
        return responses

    def submit(self, query: Query):
        """Enqueue one :class:`Query` on the micro-batcher; returns a
        future.

        The batcher worker must be running (see :meth:`start`); the
        future resolves to a :class:`ServingResponse`.  When the
        admission queue is full (``config.max_pending``), sheds load by
        raising :class:`SaturatedError` instead of queueing.  A
        non-:class:`Query` raises ``TypeError`` here, not through the
        future.
        """
        _require_queries([query])
        limit = self.config.max_pending
        if limit and self.batcher.pending >= limit:
            self.metrics.counter("saturated_rejections").inc()
            raise SaturatedError(
                f"serving queue full ({limit} queries pending)")
        enqueued = time.perf_counter()
        future = self.batcher.submit(query)
        future.add_done_callback(
            lambda f: self.metrics.histogram("latency_ms").observe(
                (time.perf_counter() - enqueued) * 1000.0))
        return future

    def answer(self, query: Query) -> ServingResponse:
        """Answer one query on the best available path: through the
        micro-batcher when its worker is running (so concurrent callers
        coalesce), synchronously otherwise.  This is the front-end entry
        point shared with :class:`~repro.serving.cluster.ServingCluster`.
        """
        if self.batcher.running:
            return self.submit(query).result()
        return self.query(query)

    # -- internals -------------------------------------------------------
    def _answer_batch(self, queries: List[Query]) -> List[ServingResponse]:
        if not queries:
            return []
        self.metrics.counter("queries_total").inc(len(queries))
        with self.tracer.span("serve.request", queries=len(queries)):
            return self._answers(queries).responses()

    def _answers(self, queries: List[Query]) -> Answers:
        """The degradation ladder: model, then route, then TEMP."""
        if self.predictor is not None:
            try:
                answers = self._model_answers(queries)
                self.metrics.counter("model_answers").inc(len(queries))
                return answers
            except Exception:
                self.metrics.counter("model_failures").inc()
                self.tracer.annotate(model_failed=True)
            try:
                answers = self._route_answers(queries)
                self.metrics.counter("route_answers").inc(len(queries))
                return answers
            except Exception:
                self.metrics.counter("route_failures").inc()
                self.tracer.annotate(route_failed=True)
        self.metrics.counter("fallback_answers").inc(len(queries))
        with self.tracer.span("serve.fallback", queries=len(queries)):
            return fallback_answers(self.fallback, queries)

    def _model_answers(self, queries: List[Query]) -> Answers:
        path = self._path
        with self.tracer.span("serve.match", queries=len(queries)):
            ods = match_queries(queries, self.dataset,
                                path.od_cache.nearest_edges)
        traffic = None
        if path.slice_cache is not None:
            with self.tracer.span("serve.speed_slices"):
                traffic = path.slice_cache.traffic_before(ods.depart_time)
        with self.tracer.span("serve.predict", queries=len(queries)):
            est = path.predictor.estimate_from_ods(ods, traffic=traffic)
        return Answers(est.seconds, est.lower, est.upper, est.origin_edge,
                       est.destination_edge, "model", 0)

    def _route_answers(self, queries: List[Query]) -> Answers:
        """Tier 1: shortest path × current (possibly live) cell speeds."""
        with self.tracer.span("serve.route", queries=len(queries)):
            ods = match_queries(queries, self.dataset,
                                self.od_cache.nearest_edges)
            seconds = self.route_baseline.estimate_from_ods(ods)
        return Answers(seconds, *self.fallback.bands(seconds),
                       ods.origin_edge, ods.destination_edge, "route", 1)

    # -- observability ---------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        snap = self.metrics.snapshot()
        snap["degraded"] = self.degraded
        return snap
