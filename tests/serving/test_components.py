"""Unit tests for the serving building blocks: caches, batcher, metrics."""

import threading

import numpy as np
import pytest

from repro.obs.cache import LRUCache
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.serving import MicroBatcher, ODMatchCache, SpeedSliceCache


class TestLRUCache:
    def test_put_get_and_accounting(self):
        cache = LRUCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # refresh a; b becomes the LRU entry
        cache.put("c", 3)         # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_get_or_compute_computes_once(self):
        cache = LRUCache(capacity=2)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestODMatchCache:
    def test_matches_direct_index_and_counts_hits(self, trained_predictor):
        cache = ODMatchCache(trained_predictor.index, capacity=16)
        point = trained_predictor.dataset.trips[0].od.origin_xy
        direct = trained_predictor.index.nearest_edge(*point)
        assert cache.nearest_edge(*point) == direct
        assert cache.nearest_edge(*point) == direct
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_quantized_keys_coalesce_jitter(self, trained_predictor):
        cache = ODMatchCache(trained_predictor.index, capacity=16,
                             quantize_metres=50.0)
        x, y = trained_predictor.dataset.trips[0].od.origin_xy
        cache.nearest_edge(x, y)
        cache.nearest_edge(x + 1.0, y - 1.0)   # same 50 m key
        assert cache.stats()["hits"] == 1


class TestSpeedSliceCache:
    def test_same_period_shares_one_slice(self, serving_dataset):
        store = serving_dataset.speed_store
        cache = SpeedSliceCache(store, capacity=8)
        period = store.config.period_seconds
        t = 10 * period + 1.0
        a = cache.normalized_matrix_before(t)
        b = cache.normalized_matrix_before(t + period * 0.5)
        assert a is b                       # identical object: cache hit
        assert np.array_equal(a, store.normalized_matrix_before(t))
        assert cache.stats()["hits"] == 1

    def test_different_periods_miss(self, serving_dataset):
        cache = SpeedSliceCache(serving_dataset.speed_store, capacity=8)
        period = serving_dataset.speed_store.config.period_seconds
        cache.normalized_matrix_before(5 * period)
        cache.normalized_matrix_before(9 * period)
        assert cache.stats()["misses"] == 2


class TestMicroBatcher:
    def test_flush_returns_results_in_order(self):
        batcher = MicroBatcher(lambda xs: [x * 2 for x in xs], max_batch=8)
        futures = [batcher.submit(i) for i in range(5)]
        assert batcher.flush() == 5
        assert [f.result(timeout=1) for f in futures] == [0, 2, 4, 6, 8]

    def test_maybe_flush_triggers_on_full_batch(self):
        batcher = MicroBatcher(lambda xs: xs, max_batch=3,
                               max_wait_s=1e9, clock=lambda: 0.0)
        for i in range(2):
            batcher.submit(i)
        assert batcher.maybe_flush() == 0       # neither full nor expired
        batcher.submit(2)
        assert batcher.maybe_flush() == 3       # full

    def test_maybe_flush_triggers_on_timeout(self):
        now = [0.0]
        batcher = MicroBatcher(lambda xs: xs, max_batch=100,
                               max_wait_s=0.010, clock=lambda: now[0])
        future = batcher.submit("q")
        assert batcher.maybe_flush() == 0       # window still open
        now[0] = 0.011                          # oldest waited > max_wait
        assert batcher.maybe_flush() == 1
        assert future.result(timeout=1) == "q"

    def test_batch_size_cap_and_drain(self):
        sizes = []
        batcher = MicroBatcher(lambda xs: xs, max_batch=4,
                               on_batch=sizes.append)
        futures = [batcher.submit(i) for i in range(10)]
        assert batcher.drain() == 10
        assert sizes == [4, 4, 2]
        assert all(f.done() for f in futures)

    def test_handler_error_fails_that_batch_only(self):
        def handler(xs):
            raise RuntimeError("boom")
        batcher = MicroBatcher(handler, max_batch=4)
        future = batcher.submit(1)
        batcher.flush()
        with pytest.raises(RuntimeError, match="boom"):
            future.result(timeout=1)

    def test_threaded_mode_end_to_end(self):
        batcher = MicroBatcher(lambda xs: [x + 1 for x in xs],
                               max_batch=16, max_wait_s=0.002).start()
        try:
            futures = [batcher.submit(i) for i in range(50)]
            results = [f.result(timeout=5) for f in futures]
        finally:
            batcher.stop()
        assert results == [i + 1 for i in range(50)]

    def test_stop_drains_remaining_queue(self):
        batcher = MicroBatcher(lambda xs: xs, max_batch=4)
        future = batcher.submit("left-over")
        batcher.start()
        batcher.stop()
        assert future.result(timeout=1) == "left-over"


class TestMetrics:
    def test_counter(self):
        counter = Counter("queries")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_percentiles(self):
        hist = Histogram("latency")
        for v in range(1, 101):
            hist.observe(float(v))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)
        assert summary["max"] == 100.0
        assert hist.percentile(0) == 1.0

    def test_histogram_window_bounds_memory(self):
        hist = Histogram("latency", window=10)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100                 # lifetime count kept
        assert hist.summary()["max"] == 99.0
        assert hist.percentile(0) == 90.0        # window holds last 10

    def test_registry_snapshot_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("q").inc(3)
        registry.histogram("lat").observe(1.5)
        registry.register_gauge("cache", lambda: {"hit_rate": 0.5})
        snap = registry.snapshot()
        assert snap["counters"]["q"] == 3
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["gauges"]["cache"] == {"hit_rate": 0.5}
        import json
        json.loads(registry.to_json())           # snapshot is JSON-able

    def test_registry_thread_safety_smoke(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000
