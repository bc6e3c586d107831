"""ServingCluster: sharded multi-process serving with hot model swap.

The single-process :class:`~repro.serving.TravelTimeService` tops out
at one core's worth of model calls.  The cluster scales it horizontally
while keeping its public surface (``query`` / ``query_batch`` /
``submit`` / ``answer`` / ``metrics_snapshot``), so the HTTP front-end
and the JSON-lines loop serve either interchangeably:

* a :class:`ShardRouter` partitions queries by origin region across
  ``num_workers`` worker processes (cache affinity: a popular pickup
  point always hits the same worker's LRU);
* workers are **forked after** the parent loads the deployed predictor
  from its serving-state bundle, so the read-only state is shared
  copy-on-write — the sweep-executor pattern applied to serving;
* each shard has a parent-side :class:`MicroBatcher`, so single queries
  from many concurrent connections coalesce into vectorised batches
  *across* callers before crossing the process boundary;
* workers watch the promotion gate's ``current`` symlink and **hot
  swap** to newly promoted artifacts between batches — queued requests
  wait out the reload in the pipe, none are dropped (see
  ``worker.py``);
* degradation is graceful and layered: a crashed worker is restarted
  and the batch retried; a shard past its restart budget is served
  from the parent's TEMP fallback (``degraded`` responses); a full
  admission queue sheds load with :class:`SaturatedError` (HTTP 503).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, List, Optional, Sequence

from ...obs.instrument import Instrumented
from ...obs.metrics import MetricsRegistry
from ...obs.tracing import Tracer
from ...trajectory.model import Query
from ..artifact import load_artifact
from ..batcher import MicroBatcher
from ..errors import SaturatedError
from ..fallback import HistoricalAverageFallback
from ..service import ServingResponse, fallback_answers
from .router import ROUTING_POLICIES, ShardRouter
from .worker import row_to_response, worker_main

_DISPATCH_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError,
                    TimeoutError, OSError)


@dataclass
class ClusterConfig:
    """Operational knobs of the sharded serving stack.

    ``max_pending`` bounds each shard's admission queue (0 = unbounded);
    a full queue sheds with ``SaturatedError``.
    """

    num_workers: int = 2
    routing: str = "region"
    max_batch: int = 64
    max_pending: int = 2048
    dispatch_timeout_s: float = 30.0
    restart_limit: int = 3

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"routing must be one of {ROUTING_POLICIES}")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if self.dispatch_timeout_s <= 0:
            raise ValueError("dispatch_timeout_s must be > 0")
        if self.restart_limit < 0:
            raise ValueError("restart_limit must be >= 0")


@dataclass
class _ShardHandle:
    """Parent-side state of one worker process."""

    shard_id: int
    process: object = None
    conn: object = None
    lock: Lock = field(default_factory=Lock)
    batcher: Optional[MicroBatcher] = None
    restarts: int = 0
    dead: bool = False
    last_info: Dict = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return (not self.dead and self.process is not None
                and self.process.is_alive())


def _cluster_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ServingCluster(Instrumented):
    """Multi-process front door over a deployed model artifact.

    Parameters
    ----------
    artifact_path:
        An artifact directory or — for hot swap — the promotion gate's
        ``<deploy>/current`` symlink.  Validated fail-closed up front
        (:class:`~repro.serving.ArtifactError` propagates); workers
        watch this path for version changes for as long as they live.
    dataset:
        The training dataset, when the caller holds it: fingerprint-
        checked and attached as the predictor's trip side (see
        :func:`~repro.serving.artifact.load_artifact`).  The serving
        state, TEMP fallback included, comes from the artifact's bundle
        either way.
    """

    def __init__(self, artifact_path: str,
                 dataset=None,
                 config: Optional[ClusterConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.config = config or ClusterConfig()
        self.watch_path = artifact_path
        self.metrics = metrics or MetricsRegistry()
        self.router = ShardRouter(self.config.num_workers,
                                  policy=self.config.routing)

        # Load once in the parent: workers inherit all of this
        # copy-on-write at fork time (zero per-worker load cost).
        self._version = os.path.realpath(artifact_path)
        self._predictor = load_artifact(self._version, dataset=dataset)
        self.dataset = self._predictor.dataset
        self.fallback = HistoricalAverageFallback(self.dataset)

        self._handles: List[_ShardHandle] = [
            _ShardHandle(shard_id=i)
            for i in range(self.config.num_workers)]
        self._pool: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._state_lock = Lock()
        self.metrics.register_gauge("cluster.shards", self._shard_gauge)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ServingCluster":
        """Fork the worker pool and start the per-shard dispatchers."""
        if self._started:
            return self
        ctx = _cluster_context()
        inherit = ctx.get_start_method() == "fork"
        # Fork all workers before starting any thread: forking a
        # threaded process can clone held locks into the children.
        for handle in self._handles:
            self._spawn_worker(handle, ctx, inherit)
        for handle in self._handles:
            handle.batcher = MicroBatcher(
                self._make_dispatcher(handle.shard_id),
                max_batch=self.config.max_batch,
                on_batch=lambda n: self.metrics.histogram(
                    "cluster.batch_size").observe(n))
            handle.batcher.start()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.num_workers,
            thread_name_prefix="cluster-dispatch")
        self._started = True
        return self

    def stop(self) -> None:
        """Drain the dispatchers, then retire the worker pool."""
        if not self._started:
            return
        for handle in self._handles:
            if handle.batcher is not None:
                handle.batcher.stop()    # drains pending through workers
        for handle in self._handles:
            self._retire_worker(handle)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._started = False

    def _spawn_worker(self, handle: _ShardHandle, ctx, inherit: bool
                      ) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        inherited = (self._version, self._predictor) if inherit else None
        process = ctx.Process(
            target=worker_main,
            args=(child_conn, handle.shard_id, self.watch_path,
                  inherited),
            name=f"serving-shard-{handle.shard_id}", daemon=True)
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.dead = False
        handle.last_info = {"shard": handle.shard_id, "pid": process.pid,
                            "alive": True, "restarts": handle.restarts}

    def _retire_worker(self, handle: _ShardHandle) -> None:
        if handle.process is None:
            return
        try:
            if handle.process.is_alive():
                handle.conn.send(("stop",))
        except _DISPATCH_ERRORS:
            pass
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    def _restart_shard(self, handle: _ShardHandle) -> bool:
        """Replace a crashed/hung worker; False once past the budget."""
        with self._state_lock:
            if handle.dead:
                return False
            if handle.restarts >= self.config.restart_limit:
                handle.dead = True
                handle.last_info = {"shard": handle.shard_id,
                                    "alive": False,
                                    "restarts": handle.restarts}
                return False
            self._retire_worker(handle)
            handle.restarts += 1
            self.metrics.counter("cluster.worker_restarts").inc()
            ctx = _cluster_context()
            self._spawn_worker(handle, ctx,
                               ctx.get_start_method() == "fork")
            return True

    # -- dispatch --------------------------------------------------------
    def _make_dispatcher(self, shard_id: int):
        return lambda queries: self._dispatch(shard_id, queries)

    def _dispatch(self, shard_id: int,
                  queries: List[Query]) -> List[ServingResponse]:
        """Ship one batch to a shard; restart-and-retry once on a crash;
        degrade to the parent-side fallback when the shard is gone."""
        handle = self._handles[shard_id]
        rows = [(query.origin_xy, query.destination_xy, query.depart_time)
                for query in queries]
        worker_error = None
        for _attempt in (0, 1):
            if not handle.alive and not self._restart_shard(handle):
                break
            try:
                with handle.lock:
                    handle.conn.send(("batch", rows))
                    if not handle.conn.poll(self.config.dispatch_timeout_s):
                        raise TimeoutError(
                            f"shard {shard_id} did not answer within "
                            f"{self.config.dispatch_timeout_s}s")
                    kind, payload = handle.conn.recv()
            except _DISPATCH_ERRORS:
                self.metrics.counter("cluster.shard_errors").inc()
                if not self._restart_shard(handle):
                    break
                continue
            if kind == "ok":
                return [row_to_response(row) for row in payload]
            # The worker survived but the batch failed inside it; its
            # own service already tried the TEMP fallback, so this is
            # exceptional — answer from the parent fallback instead.
            worker_error = payload
            self.metrics.counter("cluster.shard_errors").inc()
            break
        self.tracer.annotate(shard_failed=shard_id,
                             worker_error=worker_error or "")
        return self._fallback_answers(queries)

    def _fallback_answers(self, queries: Sequence[Query]
                          ) -> List[ServingResponse]:
        self.metrics.counter("cluster.fallback_answers").inc(len(queries))
        return fallback_answers(self.fallback, queries).responses()

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("cluster not started; call start() first")

    # -- live traffic state ----------------------------------------------
    def publish_speeds(self, slices: Dict) -> int:
        """Broadcast freshly estimated speed-matrix slices to every
        shard (see ``TravelTimeService.apply_live_speeds``).

        Returns the number of shards that acknowledged the push.  A
        shard that is dead or mid-restart simply misses this round — it
        catches up on the next publish, and in the meantime answers from
        the training-time store (stale but valid), so a push can never
        take a shard down.
        """
        self._require_started()
        if not slices:
            return 0
        payload = {int(p): m for p, m in slices.items()}
        acknowledged = 0
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                with handle.lock:
                    handle.conn.send(("speeds", payload))
                    if not handle.conn.poll(self.config.dispatch_timeout_s):
                        raise TimeoutError(
                            f"shard {handle.shard_id} did not ack speeds")
                    kind, _ = handle.conn.recv()
                if kind == "ok":
                    acknowledged += 1
                else:
                    self.metrics.counter("cluster.shard_errors").inc()
            except _DISPATCH_ERRORS:
                self.metrics.counter("cluster.shard_errors").inc()
        self.metrics.counter("cluster.speed_publishes").inc(len(payload))
        return acknowledged

    # -- query paths -----------------------------------------------------
    def query(self, query: Query) -> ServingResponse:
        """Answer one :class:`Query` synchronously."""
        return self.query_batch([query])[0]

    def query_batch(self, queries: Sequence[Query]
                    ) -> List[ServingResponse]:
        """Answer many :class:`Query` objects in one pass, fanned out
        across shards.

        Sub-batches dispatch to their shards concurrently (one thread
        per shard), so a closed-loop caller drives every worker at
        once; responses come back in input order.
        """
        self._require_started()
        if not queries:
            return []
        start = time.perf_counter()
        self.metrics.counter("cluster.queries_total").inc(len(queries))
        by_shard: Dict[int, List[int]] = {}
        for i, query in enumerate(queries):
            by_shard.setdefault(self.router.shard_of(query), []).append(i)
        responses: List[Optional[ServingResponse]] = [None] * len(queries)
        with self.tracer.span("cluster.request", queries=len(queries),
                              shards=len(by_shard)):
            futures = {
                self._pool.submit(self._dispatch, shard,
                                  [queries[i] for i in indices]): indices
                for shard, indices in by_shard.items()}
            for future, indices in futures.items():
                for i, response in zip(indices, future.result()):
                    responses[i] = response
        # Every query of a synchronous batch waits for the whole batch,
        # as in ``TravelTimeService.query_batch``.
        self.metrics.histogram("cluster.latency_ms").observe(
            (time.perf_counter() - start) * 1000.0, count=len(responses))
        return responses

    def submit(self, query: Query):
        """Enqueue one :class:`Query` on its shard's micro-batcher;
        returns a future.  Sheds load with ``SaturatedError`` once the
        shard's admission queue holds ``max_pending`` queries.
        """
        self._require_started()
        handle = self._handles[self.router.shard_of(query)]
        limit = self.config.max_pending
        if limit and handle.batcher.pending >= limit:
            self.metrics.counter("cluster.saturated_rejections").inc()
            raise SaturatedError(
                f"shard {handle.shard_id} queue full "
                f"({limit} queries pending)")
        self.metrics.counter("cluster.queries_total").inc()
        enqueued = time.perf_counter()
        future = handle.batcher.submit(query)
        future.add_done_callback(
            lambda f: self.metrics.histogram("cluster.latency_ms").observe(
                (time.perf_counter() - enqueued) * 1000.0))
        return future

    def answer(self, query: Query) -> ServingResponse:
        """Front-end entry point: batched across connections when the
        dispatchers are running (mirrors ``TravelTimeService.answer``)."""
        if self._started:
            return self.submit(query).result()
        return self.query(query)

    # -- health / observability ------------------------------------------
    @property
    def degraded(self) -> bool:
        """True only when every shard is past its restart budget (the
        whole pool answers from the parent-side TEMP fallback)."""
        return all(handle.dead for handle in self._handles)

    def health(self, timeout_s: float = 2.0) -> List[Dict]:
        """Live per-shard health: ping each worker, collect its info.

        Pings also make idle workers re-check the watched artifact, so
        ``health()`` after a promotion deterministically completes the
        swap on every shard.
        """
        infos: List[Dict] = []
        for handle in self._handles:
            info = {"shard": handle.shard_id, "alive": False,
                    "restarts": handle.restarts}
            if handle.alive:
                try:
                    with handle.lock:
                        handle.conn.send(("ping",))
                        if not handle.conn.poll(timeout_s):
                            raise TimeoutError("ping timed out")
                        kind, payload = handle.conn.recv()
                    if kind == "pong":
                        info.update(payload)
                        info["alive"] = True
                except _DISPATCH_ERRORS as exc:
                    info["error"] = repr(exc)
            handle.last_info = info
            infos.append(info)
        return infos

    def health_snapshot(self) -> Dict:
        """Cached shard states (no worker round-trips) for ``/healthz``."""
        shards = [dict(handle.last_info) for handle in self._handles]
        return {"workers": len(self._handles),
                "healthy": sum(1 for handle in self._handles
                               if handle.alive),
                "degraded": self.degraded,
                "shards": shards}

    def _shard_gauge(self) -> List[Dict]:
        return [dict(handle.last_info) for handle in self._handles]

    def metrics_snapshot(self) -> Dict[str, object]:
        snap = self.metrics.snapshot()
        snap["degraded"] = self.degraded
        return snap
