"""TravelTimeService: the operable serving stack around a predictor.

Wires the pieces of ``repro.serving`` into one query-facing object:

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

        # Live traffic state: ``apply_live_speeds`` lazily wraps the
        # training-time store in a LiveSpeedStore overlay; until then
        # every consumer reads the static store directly.
        self._live_store: Optional[LiveSpeedStore] = None
        # Serialises the writers of that state (live speeds, swaps).
        self._write_lock = threading.Lock()

        self._path: Optional[_ModelPath] = None
        self.route_baseline: Optional[RouteTimeBaseline] = None
        if predictor is not None:
            self._path = self._model_path(predictor)
            self.metrics.register_gauge("od_match_cache",
                                        lambda: self.od_cache.stats())
            if self.slice_cache is not None:
                self.metrics.register_gauge(
                    "speed_slice_cache",
                    lambda: (self.slice_cache.stats()
                             if self.slice_cache else {}))
            # Tier 1 of the degradation ladder: when the model path
            # raises, a shortest-path × current-speed estimate comes
            # before the TEMP average.
            self.route_baseline = RouteTimeBaseline(
                self.dataset.net, lambda: self.speed_store)
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

    @property
    def speed_store(self):
        """The speed store queries read from: the live overlay once
        streaming updates have arrived, the training store before."""
        return (self._live_store if self._live_store is not None
                else self.dataset.speed_store)

    # -- live traffic state ----------------------------------------------
    def apply_live_speeds(self, slices: Dict[int, np.ndarray]) -> int:
        """Overlay freshly estimated speed-matrix slices.

        ``slices`` maps period index → raw mean-speed matrix (m/s, grid
        shaped).  The first call moves the traffic-code table and the
        route baseline onto a :class:`LiveSpeedStore` overlay, which
        answers every unwritten period as before, so the table keeps
        its rows; every call clears the touched periods' rows so no
        stale code survives (counted in
        ``serve.cache.speed.invalidations``).  Returns the number of
        slices applied.
        """
        if not slices:
            return 0
        with self._write_lock:
            table = self.slice_cache
            if self._live_store is None:
                self._live_store = LiveSpeedStore(self.dataset.speed_store)
                if table is not None:
                    table.swap_store(self._live_store)
            for period, matrix in slices.items():
                self._live_store.update_slice(int(period), matrix)
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
        the new predictor (its codes are its own weights'); applied live
        speed slices survive the swap.
        """
        if predictor is None:
            raise ValueError("swap_predictor needs a predictor")
        with self._write_lock:
            self._path = self._model_path(predictor)
        if self.route_baseline is None:
            self.route_baseline = RouteTimeBaseline(
                self.dataset.net, lambda: self.speed_store)
        self.metrics.counter("serve.model_swaps").inc()

    # -- query paths -----------------------------------------------------
    def query(self, query: Query) -> ServingResponse:
        """Answer one :class:`Query` synchronously (no batching)."""
        return self.query_batch([query])[0]

    def query_batch(self, queries: Sequence[Query]
                    ) -> List[ServingResponse]:
        """Answer many :class:`Query` objects in one vectorised pass."""
        start = time.perf_counter()
        responses = self._answer_batch(list(queries))
        # Every query of a synchronous batch waits for the whole batch.
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        hist = self.metrics.histogram("latency_ms")
        for _ in responses:
            hist.observe(elapsed_ms)
        return responses

    def submit(self, query: Query):
        """Enqueue one :class:`Query` on the micro-batcher; returns a
        future.

        The batcher worker must be running (see :meth:`start`); the
        future resolves to a :class:`ServingResponse`.  When the
        admission queue is full (``config.max_pending``), sheds load by
        raising :class:`SaturatedError` instead of queueing.
        """
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
            if self.predictor is not None:
                try:
                    responses = self._model_answers(queries)
                    self.metrics.counter("model_answers").inc(len(queries))
                    return responses
                except Exception:
                    self.metrics.counter("model_failures").inc()
                    self.tracer.annotate(model_failed=True)
            if self.route_baseline is not None:
                try:
                    responses = self._route_answers(queries)
                    self.metrics.counter("route_answers").inc(len(queries))
                    return responses
                except Exception:
                    self.metrics.counter("route_failures").inc()
                    self.tracer.annotate(route_failed=True)
            return self._fallback_answers(queries)

    def _model_answers(self, queries: List[Query]
                       ) -> List[ServingResponse]:
        path = self._path
        with self.tracer.span("serve.match", queries=len(queries)):
            ods = match_queries(queries, self.dataset,
                                path.od_cache.nearest_edges)
        traffic = None
        if path.slice_cache is not None:
            with self.tracer.span("serve.speed_slices"):
                traffic = path.slice_cache.traffic_before(
                    [od.depart_time for od in ods])
        with self.tracer.span("serve.predict", queries=len(queries)):
            estimates = path.predictor.estimate_from_ods(ods,
                                                         traffic=traffic)
        return [ServingResponse(
                    seconds=e.seconds, lower=e.lower, upper=e.upper,
                    origin_edge=e.origin_edge,
                    destination_edge=e.destination_edge,
                    degraded=False, source="model")
                for e in estimates]

    def _route_answers(self, queries: List[Query]
                       ) -> List[ServingResponse]:
        """Tier 1: shortest path × current (possibly live) cell speeds."""
        with self.tracer.span("serve.route", queries=len(queries)):
            ods = match_queries(queries, self.dataset,
                                self.od_cache.nearest_edges)
            seconds = self.route_baseline.estimate_from_ods(ods)
        return [ServingResponse(
                    seconds=float(s), lower=lo, upper=hi,
                    origin_edge=od.origin_edge,
                    destination_edge=od.destination_edge,
                    degraded=True, source="route", degraded_tier=1)
                for s, (lo, hi), od in zip(seconds,
                                           self.fallback.bands(seconds),
                                           ods)]

    def _fallback_answers(self, queries: List[Query]
                          ) -> List[ServingResponse]:
        self.metrics.counter("fallback_answers").inc(len(queries))
        with self.tracer.span("serve.fallback", queries=len(queries)):
            seconds = self.fallback.estimate_seconds(queries)
            bands = self.fallback.bands(seconds)
        return [ServingResponse(
                    seconds=float(s), lower=lo, upper=hi,
                    origin_edge=-1, destination_edge=-1,
                    degraded=True, source="fallback", degraded_tier=2)
                for s, (lo, hi) in zip(seconds, bands)]

    # -- observability ---------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        snap = self.metrics.snapshot()
        snap["degraded"] = self.degraded
        return snap
