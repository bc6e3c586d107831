"""Serving throughput: micro-batched vs one-at-a-time queries.

The paper's Table 5 measures per-query estimation cost; this bench
measures the serving-layer consequence.  Served estimates run the
compiled ``InferencePlan`` (plain numpy, no autograd), so a single
query's model call is a few hundred microseconds; at batch size 1 the
per-call overhead of the whole query path (matching, feature gathering,
response building and the model call's fixed cost) still dominates, and
coalescing queries through ``repro.serving.MicroBatcher`` multiplies
throughput.  The acceptance bar is >= 3x on 1k queries.
"""

import time

import numpy as np

from repro.core import DeepODTrainer, TravelTimePredictor, build_deepod
from repro.datagen import DatasetSpec, build
from repro.serving import ServiceConfig, TravelTimeService

from .conftest import BenchParams, print_header, small_deepod_config

NUM_QUERIES = 1000


def _build_service() -> TravelTimeService:
    params = BenchParams.from_env()
    dataset = build(DatasetSpec("mini-chengdu",
                        num_trips=max(int(800 * params.scale), 200),
                        num_days=7))
    config = small_deepod_config(params, epochs=1)
    model = build_deepod(dataset, config)
    trainer = DeepODTrainer(model, dataset, eval_every=0)
    trainer.fit(track_validation=False)
    predictor = TravelTimePredictor(trainer)
    return TravelTimeService(predictor,
                             config=ServiceConfig(max_batch=128))


def _queries(dataset, n):
    test = dataset.split.test
    return [(test[i % len(test)].od.origin_xy,
             test[i % len(test)].od.destination_xy,
             test[i % len(test)].od.depart_time)
            for i in range(n)]


def test_serving_throughput(benchmark):
    service = benchmark.pedantic(_build_service, rounds=1, iterations=1)
    queries = _queries(service.dataset, NUM_QUERIES)

    # One-at-a-time: every query pays the full model-call overhead.
    start = time.perf_counter()
    singles = [service.query(*q) for q in queries]
    unbatched_s = time.perf_counter() - start

    # Micro-batched: queue everything, let the batcher coalesce into
    # vectorised calls (driven synchronously for determinism).
    futures = [service.batcher.submit(q) for q in queries]
    start = time.perf_counter()
    flushed = service.batcher.drain()
    batched_s = time.perf_counter() - start
    batched = [f.result(timeout=0) for f in futures]

    assert flushed == NUM_QUERIES
    assert len(singles) == len(batched) == NUM_QUERIES
    # Identical answers either way (same model, same matches).
    np.testing.assert_allclose([r.seconds for r in singles],
                               [r.seconds for r in batched])

    speedup = unbatched_s / batched_s
    batch_sizes = service.metrics.histogram("batch_size").summary()

    print_header("Serving throughput — micro-batched vs unbatched")
    print(f"{'mode':14s}{'wall(s)':>10}{'queries/s':>12}")
    print(f"{'unbatched':14s}{unbatched_s:10.2f}"
          f"{NUM_QUERIES / unbatched_s:12.0f}")
    print(f"{'micro-batched':14s}{batched_s:10.2f}"
          f"{NUM_QUERIES / batched_s:12.0f}")
    print(f"speedup: {speedup:.1f}x; realised batch sizes "
          f"p50={batch_sizes['p50']:.0f} max={batch_sizes['max']:.0f}")

    # Acceptance bar: batched serving at least 3x the unbatched rate.
    assert speedup >= 3.0, f"micro-batching speedup only {speedup:.2f}x"


def test_threaded_batcher_serves_concurrent_clients(benchmark):
    """Functional check of the threaded path under concurrent load."""
    import threading

    service = benchmark.pedantic(_build_service, rounds=1, iterations=1)
    service.start()
    queries = _queries(service.dataset, 200)
    results = [None] * len(queries)

    def client(lo, hi):
        futures = [(i, service.submit(*queries[i])) for i in range(lo, hi)]
        for i, future in futures:
            results[i] = future.result(timeout=30)

    try:
        threads = [threading.Thread(target=client,
                                    args=(i * 50, (i + 1) * 50))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        service.stop()

    assert all(r is not None and r.seconds > 0 for r in results)
    snap = service.metrics_snapshot()
    assert snap["counters"]["queries_total"] == len(queries)
    assert snap["histograms"]["latency_ms"]["count"] == len(queries)
