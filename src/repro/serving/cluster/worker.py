"""Shard worker: one process, one :class:`TravelTimeService`, hot swap.

A worker owns a full single-process serving stack (caches, fallback,
metrics) for its shard and answers batches shipped over a
``multiprocessing`` pipe by the parent's dispatcher.  Workers are
forked *after* the parent has loaded the deployed predictor, so it
arrives by copy-on-write — no per-worker weight load on a cold start.
Every other load (a spawned worker, a hot swap) reads the artifact's
serving-state bundle and generates no trip.

**Hot swap.**  The worker watches ``watch_path`` — typically the
promotion gate's ``<deploy>/current`` symlink — by resolving its
realpath before every batch and on every idle poll tick
(``SWAP_POLL_S``).  When the realpath changes (the gate's atomic
symlink flip), the worker has by construction no in-flight work (it
answers one batch at a time; queued requests wait in the pipe), so it
reloads in place and the next batch runs on the new model.  A reload
that fails — mid-copy artifact, checksum mismatch, a model trained on
another dataset (its manifest fingerprint differs from the serving
one) — keeps the old predictor serving and retries on the next tick: a
bad push can never take a shard down, and no request is ever dropped
across a swap.  Live traffic state outlives a swap: the new service
starts with the outgoing service's live speed slices, read from its
speed store before the old dataset is closed.

Each worker serves with a default ``ServiceConfig``: it answers batches
the parent already formed, so no setting of the cluster reaches it.

The wire protocol is deliberately tiny (tuples over a duplex pipe).  A
query row is the field tuple of a :class:`~repro.trajectory.Query`,
rebuilt as one (and so validated again) on the worker side::

    ("batch", [(origin_xy, destination_xy, depart_time), ...])
        -> ("ok", [(seconds, lower, upper, o_edge, d_edge,
                    degraded, source, degraded_tier), ...])
        |  ("err", "<repr of the failure>")
    ("ping",)  -> ("pong", {shard, pid, version, queries, swaps, ...})
    ("speeds", {period: matrix, ...})
        -> ("ok", n_slices)   (live speed-slice push; see
                               ``TravelTimeService.apply_live_speeds``)
    ("stop",)  -> worker exits
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ...serving.artifact import ArtifactError, load_artifact
from ...trajectory.model import Query
from ..service import ServingResponse, TravelTimeService

# How long an idle worker waits on its pipe before re-checking the
# watched artifact for a hot swap.
SWAP_POLL_S = 0.05

ResponseRow = Tuple[float, float, float, int, int, bool, str, int]


def response_to_row(response: ServingResponse) -> ResponseRow:
    return (response.seconds, response.lower, response.upper,
            response.origin_edge, response.destination_edge,
            response.degraded, response.source, response.degraded_tier)


def row_to_response(row: ResponseRow) -> ServingResponse:
    return ServingResponse(seconds=row[0], lower=row[1], upper=row[2],
                           origin_edge=row[3], destination_edge=row[4],
                           degraded=row[5], source=row[6],
                           degraded_tier=row[7])


class _WorkerState:
    """The live model + service of one worker, reloadable in place."""

    def __init__(self, shard_id: int, watch_path: str, version: str,
                 predictor):
        self.shard_id = shard_id
        self.watch_path = watch_path
        self.version = version
        self.swaps = 0
        self.swap_failures = 0
        # The worker answers pre-batched requests synchronously, so its
        # service never starts the internal micro-batcher thread —
        # batching happens once, in the parent, across connections.
        self.service = TravelTimeService(predictor=predictor)

    def maybe_reload(self) -> bool:
        """Reload iff the watched artifact now resolves elsewhere.

        Fail-closed on a broken candidate, or one trained on another
        dataset: the old model keeps serving and the reload is retried
        on the next tick.
        """
        target = os.path.realpath(self.watch_path)
        if target == self.version:
            return False
        try:
            predictor = load_artifact(target)
        except ArtifactError:
            self.swap_failures += 1
            return False
        previous = self.service.dataset
        if predictor.dataset.fingerprint != previous.fingerprint:
            predictor.dataset.close()
            self.swap_failures += 1
            return False
        # The new model must not serve from stale training-time speeds.
        live = self.service.speed_store
        service = TravelTimeService(predictor=predictor)
        service.apply_live_speeds({p: live.matrix_at(p)
                                   for p in live.live_periods})
        self.service = service
        previous.close()        # no batch is in flight across a swap
        self.version = target
        self.swaps += 1
        return True

    def answer(self, rows: List[Tuple]) -> List[ResponseRow]:
        queries = [Query(*row) for row in rows]
        return [response_to_row(r)
                for r in self.service.query_batch(queries)]

    def info(self) -> dict:
        metrics = self.service.metrics
        return {
            "shard": self.shard_id,
            "pid": os.getpid(),
            "version": self.version,
            "queries": metrics.counter("queries_total").value,
            "swaps": self.swaps,
            "swap_failures": self.swap_failures,
            "degraded": self.service.degraded,
            "od_cache_hit_rate": (self.service.od_cache.hit_rate
                                  if self.service.od_cache else 0.0),
        }


def worker_main(conn, shard_id: int, watch_path: str,
                inherited: Optional[Tuple]) -> None:
    """Process entry point: serve batches from ``conn`` until told to stop.

    ``inherited`` is ``(version, predictor)`` under the fork start
    method (copy-on-write, nothing pickled); ``None`` under spawn, in
    which case the worker loads the artifact itself from its
    serving-state bundle.
    """
    if inherited is not None:
        version, predictor = inherited
    else:
        version = os.path.realpath(watch_path)
        predictor = load_artifact(version)
    state = _WorkerState(shard_id, watch_path, version, predictor)
    try:
        while True:
            if not conn.poll(SWAP_POLL_S):
                state.maybe_reload()      # idle tick: pick up swaps
                continue
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "ping":
                state.maybe_reload()
                conn.send(("pong", state.info()))
                continue
            if kind == "batch":
                state.maybe_reload()      # swap lands between batches
                try:
                    conn.send(("ok", state.answer(message[1])))
                except Exception as exc:  # containment: shard survives
                    conn.send(("err", repr(exc)))
                continue
            if kind == "speeds":
                try:
                    conn.send(("ok", state.service.apply_live_speeds(
                        message[1])))
                except Exception as exc:  # containment: shard survives
                    conn.send(("err", repr(exc)))
                continue
            conn.send(("err", f"unknown message kind {kind!r}"))
    except (EOFError, BrokenPipeError, ConnectionResetError, OSError,
            KeyboardInterrupt):
        return                            # parent went away; exit quietly
    finally:
        conn.close()
