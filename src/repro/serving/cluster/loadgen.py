"""Load-test harness: replay synthetic query streams, record the SLOs.

The paper's operating regime is a map-service backend answering
millions of OD queries under a latency budget (Table 5 measures the
per-query estimation cost that budget buys).  This module turns that
into a repeatable measurement:

* :func:`synthetic_queries` — a seeded, deterministic query stream
  drawn from a dataset's held-out trips with jittered departure times;
* :func:`measure_saturation` — closed-loop chunked ``query_batch``
  driving, the maximum sustained throughput of a target;
* :func:`run_open_loop` — controlled-RPS arrivals with per-query
  completion latencies recorded into a ``repro.obs.metrics`` histogram
  (p50/p95/p99 come from its standard summary);
* :func:`run_load_test` — both of them against one artifact: single
  process vs a sharded cluster, and an open-loop replay of the cluster.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...obs.metrics import MetricsRegistry
from ...trajectory.model import Query
from ..artifact import load_artifact, read_manifest
from ..errors import SaturatedError


# ---------------------------------------------------------------------------
def synthetic_queries(dataset, n: int, seed: int = 0) -> List[Query]:
    """A deterministic stream of ``n`` queries sampled from held-out
    trips, with departure times jittered inside the dataset horizon —
    the repetitive-but-not-identical shape of production traffic."""
    trips = dataset.split.test or dataset.split.train
    if not trips:
        raise ValueError("dataset has no trips to sample queries from")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(trips), size=n)
    jitter = rng.uniform(-300.0, 300.0, size=n)
    horizon = dataset.horizon_seconds
    queries = []
    for pick, dt in zip(picks, jitter):
        od = trips[int(pick)].od
        depart = float(np.clip(od.depart_time + dt, 0.0, horizon - 1.0))
        queries.append(Query(origin_xy=od.origin_xy,
                             destination_xy=od.destination_xy,
                             depart_time=depart))
    return queries


# ---------------------------------------------------------------------------
def measure_saturation(target, queries: Sequence[Query],
                       batch_size: int = 128) -> Dict[str, float]:
    """Closed-loop saturation throughput of ``target.query_batch``.

    Chunks of ``batch_size`` are driven back-to-back with no think
    time: the steady-state maximum rate the target sustains.  Works on
    a :class:`TravelTimeService` and a :class:`ServingCluster` alike.
    """
    queries = list(queries)
    degraded = 0
    start = time.perf_counter()
    for lo in range(0, len(queries), batch_size):
        responses = target.query_batch(queries[lo:lo + batch_size])
        degraded += sum(1 for r in responses if r.degraded)
    wall_s = time.perf_counter() - start
    return {"queries": len(queries), "wall_s": wall_s,
            "throughput_qps": len(queries) / wall_s,
            "degraded": degraded}


def run_open_loop(target, queries: Sequence[Query], rps: float,
                  metrics: Optional[MetricsRegistry] = None,
                  timeout_s: float = 120.0) -> Dict[str, object]:
    """Open-loop replay at a controlled arrival rate.

    Arrivals follow the fixed schedule ``start + i/rps`` regardless of
    completions (the open-loop discipline — queueing delay shows up in
    the latencies instead of silently throttling the offered load).
    Completion latency lands in the ``loadtest.latency_ms`` histogram
    of ``metrics`` (or a private registry), whose standard summary
    yields p50/p95/p99.
    """
    if rps <= 0:
        raise ValueError("rps must be > 0")
    registry = metrics or MetricsRegistry()
    hist = registry.histogram("loadtest.latency_ms")
    shed = failed = 0
    futures = []
    start = time.perf_counter()
    for i, query in enumerate(queries):
        due = start + i / rps
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        sent = time.perf_counter()
        try:
            future = target.submit(query)
        except SaturatedError:
            shed += 1
            registry.counter("loadtest.shed").inc()
            continue

        def _record(f, sent=sent):
            hist.observe((time.perf_counter() - sent) * 1000.0)

        future.add_done_callback(_record)
        futures.append(future)
    degraded = 0
    for future in futures:
        try:
            if future.result(timeout=timeout_s).degraded:
                degraded += 1
        except Exception:
            failed += 1
    wall_s = time.perf_counter() - start
    summary = hist.summary()
    answered = len(futures) - failed
    return {
        "rps_target": rps,
        "rps_achieved": answered / wall_s if wall_s > 0 else 0.0,
        "queries": len(queries),
        "answered": answered,
        "shed": shed,
        "failed": failed,
        "degraded": degraded,
        "latency_ms": {"p50": summary["p50"], "p95": summary["p95"],
                       "p99": summary["p99"], "mean": summary["mean"],
                       "max": summary["max"]},
    }


# ---------------------------------------------------------------------------
def run_load_test(artifact_path: str, *, dataset=None, workers: int = 4,
                  queries: int = 256, rps: float = 100.0, seed: int = 0,
                  max_batch: int = 16, routing: str = "region",
                  metrics: Optional[MetricsRegistry] = None) -> Dict:
    """The serving load test of one artifact; returns its report.

    ``model``
        Real-model saturation throughput, single process vs the
        ``workers``-shard cluster: the genuine numbers for this
        machine, with its CPU count in ``cpus``.
    ``open_loop``
        Controlled-RPS replay against the cluster: p50/p95/p99
        completion latency, shed/failed counts.
    """
    from ..service import TravelTimeService
    from .cluster import ClusterConfig, ServingCluster

    predictor = load_artifact(artifact_path, dataset=dataset)
    dataset = predictor.dataset
    stream = synthetic_queries(dataset, queries, seed=seed)

    service = TravelTimeService(predictor=predictor, dataset=dataset)
    single = measure_saturation(service, stream)
    cluster = ServingCluster(
        artifact_path, dataset=dataset,
        config=ClusterConfig(num_workers=workers, routing=routing,
                             max_batch=max_batch))
    cluster.start()
    try:
        scaled = measure_saturation(cluster, stream)
        model = {"workers": workers,
                 "single_qps": single["throughput_qps"],
                 "cluster_qps": scaled["throughput_qps"],
                 "speedup": (scaled["throughput_qps"]
                             / single["throughput_qps"]),
                 "degraded": scaled["degraded"]}
        open_loop = run_open_loop(cluster, stream, rps, metrics=metrics)
    finally:
        cluster.stop()

    return {
        "cpus": len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "config": {"dataset_fingerprint":
                       read_manifest(artifact_path)["dataset"]["fingerprint"],
                   "queries": queries, "seed": seed, "rps": rps,
                   "workers": workers, "max_batch": max_batch,
                   "routing": routing},
        "model": model,
        "open_loop": open_loop,
    }
