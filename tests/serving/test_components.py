"""Unit tests for the serving building blocks: caches, batcher, metrics."""

import sys
import threading

import numpy as np
import pytest

import repro.core.predictor
import repro.serving.cluster
import repro.serving.cluster.worker
from repro.cli import main
from repro.core import TravelTimePredictor
from repro.obs.cache import LRUCache
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.serving import (
    ClusterConfig, HistoricalAverageFallback, MicroBatcher, ODMatchCache,
    ServiceConfig, ServingCluster, SpeedSliceCache, TravelTimeService,
)
from repro.serving.cluster import ShardRouter
from repro.serving.cluster.worker import worker_main
from repro.trajectory import Query


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

    def test_batches_equal_per_point_lookups(self, trained_predictor):
        """Batches with repeated keys, larger than the capacity, partly
        cached and wholly new return the index's columns and leave the
        counts and LRU order of one ``nearest_edge`` per point."""
        index = trained_predictor.index
        pool = [xy for t in trained_predictor.dataset.trips[:15]
                for xy in (t.od.origin_xy, t.od.destination_xy)]
        rng = np.random.default_rng(0)
        batches = [[pool[i] for i in picks] for picks in (
            [0, 1, 0, 2, 1, 1],                    # repeats
            rng.integers(20, size=24).tolist(),    # > capacity, evicting
            [3, 4, 5, 3],                          # partly cached
            list(range(20, 30)))]                  # every key new
        batched = ODMatchCache(index, capacity=8)
        single = ODMatchCache(index, capacity=8)
        for batch in batches:
            xs, ys = [p[0] for p in batch], [p[1] for p in batch]
            got = batched.nearest_edges(xs, ys)
            want = index.nearest_edges(xs, ys)
            assert [c.dtype for c in got] == [c.dtype for c in want]
            assert [c.tolist() for c in got] == [c.tolist() for c in want]
            assert [single.nearest_edge(x, y) for x, y in batch] == \
                list(zip(*(c.tolist() for c in want)))
            assert batched.stats() == single.stats()
            assert list(batched._lru._data) == list(single._lru._data)
        assert batched.stats()["evictions"] > 0


def _counting_encoder(calls):
    """A stand-in for ``InferencePlan.traffic_codes``: each slice's
    flattened cells are its row, so a row is the slice it encoded."""
    def encode(mats):
        calls.append(len(mats))
        return mats.reshape(len(mats), -1).copy()
    return encode


class TestSpeedSliceCache:
    def test_same_period_shares_one_slice(self, serving_dataset):
        store = serving_dataset.speed_store
        calls = []
        cache = SpeedSliceCache(store, _counting_encoder(calls))
        period = store.config.period_seconds
        t = 10 * period + 1.0
        a = cache.traffic_before([t])
        b = cache.traffic_before([t + period * 0.5])
        assert calls == [1]                 # encoded once: a table hit
        assert np.array_equal(a, b)
        assert np.array_equal(a[0],
                              store.normalized_matrix_before(t).ravel())
        assert cache.stats()["hits"] == 1

    def test_different_periods_miss(self, serving_dataset):
        calls = []
        cache = SpeedSliceCache(serving_dataset.speed_store,
                                _counting_encoder(calls))
        period = serving_dataset.speed_store.config.period_seconds
        cache.traffic_before([5 * period])
        cache.traffic_before([9 * period])
        assert cache.stats()["misses"] == 2
        assert calls == [1, 1]

    def test_batch_encodes_distinct_misses_in_one_call(self,
                                                       serving_dataset):
        store = serving_dataset.speed_store
        calls = []
        cache = SpeedSliceCache(store, _counting_encoder(calls))
        period = store.config.period_seconds
        times = [5 * period, 9 * period, 5 * period + 2.0, 30 * period]
        rows = cache.traffic_before(times)
        assert calls == [3]
        for t, row in zip(times, rows):
            assert np.array_equal(
                row, store.normalized_matrix_before(t).ravel())
        cache.traffic_before(times[::-1])
        assert calls == [3]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["filled"]) == (5, 3, 3)
        assert stats["periods"] == store.periods


class TestMicroBatcher:
    def test_flush_returns_results_in_order(self):
        batcher = MicroBatcher(lambda xs: [x * 2 for x in xs], max_batch=8)
        futures = [batcher.submit(i) for i in range(5)]
        assert batcher.flush() == 5
        assert [f.result(timeout=1) for f in futures] == [0, 2, 4, 6, 8]

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
                               max_batch=16).start()
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

    def test_lone_submit_on_idle_worker_runs_alone(self):
        sizes = []
        batcher = MicroBatcher(lambda xs: xs, max_batch=64,
                               on_batch=sizes.append).start()
        try:
            assert batcher.submit("lone").result(timeout=30) == "lone"
        finally:
            batcher.stop()
        assert sizes == [1]

    def test_submits_queued_while_busy_form_the_next_batches(self):
        """Work-conserving policy: while the handler is blocked on
        batch 1, queued submits wait; once it returns they run as the
        next batches, capped at max_batch, in FIFO order."""
        busy, release = threading.Event(), threading.Event()
        batches = []

        def handler(xs):
            batches.append(list(xs))
            if len(batches) == 1:
                busy.set()
                release.wait(timeout=30)
            return xs

        batcher = MicroBatcher(handler, max_batch=4).start()
        try:
            first = batcher.submit("first")
            assert busy.wait(timeout=30)
            futures = [batcher.submit(i) for i in range(10)]
            assert batcher.pending == 10
            release.set()
            assert [f.result(timeout=30) for f in futures] == list(range(10))
            assert first.result(timeout=30) == "first"
        finally:
            release.set()
            batcher.stop()
        assert batches == [["first"], [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_concurrent_submitters_lose_nothing(self):
        sizes = []
        batcher = MicroBatcher(list, max_batch=8,
                               on_batch=sizes.append).start()
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def caller(t):
                futures = [batcher.submit((t, i)) for i in range(200)]
                results[t] = [f.result(timeout=30) for f in futures]

            threads = [threading.Thread(target=caller, args=(t,))
                       for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            batcher.stop()
        assert results == {t: [(t, i) for i in range(200)]
                           for t in range(6)}
        assert sum(sizes) == 1200 and max(sizes) <= 8


class TestRetiredBatchingWindow:
    """The batching window is gone from every layer; its knobs are
    rejected rather than silently ignored."""

    def test_batcher_takes_no_window(self):
        with pytest.raises(TypeError):
            MicroBatcher(lambda xs: xs, max_wait_s=0.005)

    def test_config_fields_removed(self):
        with pytest.raises(TypeError):
            ServiceConfig(max_wait_s=0.005)
        with pytest.raises(TypeError):
            ClusterConfig(max_wait_s=0.002)

    @pytest.mark.parametrize("command", ["serve", "loadtest"])
    def test_cli_flag_removed(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--artifact", str(tmp_path),
                  "--max-wait-ms", "5"])
        assert excinfo.value.code == 2
        assert "--max-wait-ms" in capsys.readouterr().err


SPREAD = ((0.0, 0.0), (1.0, 1.0), 0.0)   # origin, destination, t

# Each deleted serving field, parameter or spread query form, called
# the way a caller of the old one would.  None may be silently ignored.
RETIRED_KNOBS = {
    "ServiceConfig.od_cache_size":
        lambda: ServiceConfig(od_cache_size=8),
    "ServiceConfig.match_quantize_metres":
        lambda: ServiceConfig(match_quantize_metres=50.0),
    "ServiceConfig.fallback_band_ratios":
        lambda: ServiceConfig(fallback_band_ratios=(0.5, 2.0)),
    "ServiceConfig.route_fallback":
        lambda: ServiceConfig(route_fallback=False),
    "ODMatchCache.quantize_metres":
        lambda: ODMatchCache(None, quantize_metres=50.0),
    "HistoricalAverageFallback.band_ratios":
        lambda: HistoricalAverageFallback(None, band_ratios=(0.5, 2.0)),
    "ClusterConfig.cell_metres":
        lambda: ClusterConfig(cell_metres=100.0),
    "ClusterConfig.saturation_fallback":
        lambda: ClusterConfig(saturation_fallback=True),
    "ClusterConfig.swap_poll_s":
        lambda: ClusterConfig(swap_poll_s=0.02),
    "ClusterConfig.service":
        lambda: ClusterConfig(service=ServiceConfig()),
    "ShardRouter.cell_metres":
        lambda: ShardRouter(4, cell_metres=100.0),
    "worker_main.options":
        lambda: worker_main(None, 0, "", None, object()),
    "TravelTimePredictor.estimate_spread":
        lambda: TravelTimePredictor.estimate(None, *SPREAD),
    "TravelTimeService.query_spread":
        lambda: TravelTimeService.query(None, *SPREAD),
    "TravelTimeService.submit_spread":
        lambda: TravelTimeService.submit(None, *SPREAD),
    "ServingCluster.query_spread":
        lambda: ServingCluster.query(None, *SPREAD),
    "ServingCluster.submit_spread":
        lambda: ServingCluster.submit(None, *SPREAD),
}


class TestRetiredServingKnobs:
    """``Query`` is the only query form, and the serving values only
    tests ever set are gone: each is rejected, never ignored."""

    @pytest.mark.parametrize("knob", sorted(RETIRED_KNOBS))
    def test_rejected(self, knob):
        with pytest.raises(TypeError):
            RETIRED_KNOBS[knob]()

    @pytest.mark.parametrize("owner, name", [
        (Query, "coerce"), (Query, "as_tuple"),
        (repro.core.predictor, "QueryLike"),
        (repro.serving.cluster, "WorkerOptions"),
        (repro.serving.cluster.worker, "WorkerOptions"),
        (ClusterConfig, "worker_options"),
    ], ids=lambda value: getattr(value, "__name__", value))
    def test_names_removed(self, owner, name):
        assert not hasattr(owner, name)


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
