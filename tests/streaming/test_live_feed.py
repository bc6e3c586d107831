"""Live speed slices reaching serving: the slice table's invalidation,
the route tier, and the feed's duck-typed fan-out."""

import numpy as np
import pytest

from repro.datagen import LiveSpeedStore
from repro.obs.metrics import MetricsRegistry
from repro.serving import SpeedSliceCache, TravelTimeService, load_artifact
from repro.streaming import LiveSpeedFeed
from repro.trajectory.model import Query


def _counting_flatten(calls):
    """A stand-in encoder whose row is the slice it encoded."""
    def encode(mats):
        calls.append(len(mats))
        return mats.reshape(len(mats), -1).copy()
    return encode


class TestVersionedSliceCache:
    def test_live_update_invalidates_only_touched_period(
            self, stream_dataset):
        live = LiveSpeedStore(stream_dataset.speed_store)
        calls = []
        cache = SpeedSliceCache(live, _counting_flatten(calls))
        dt = live.config.period_seconds
        t = 5 * dt + 1.0
        period = live.period_before(t)
        before = cache.traffic_before([t])
        assert np.array_equal(cache.traffic_before([t]), before)
        assert calls == [1]                                  # cached

        live.update_slice(period, live.matrix_at(period) * 0.5)
        # The table does not watch the store: a stale read persists
        # until the publisher invalidates the touched period.
        assert np.array_equal(cache.traffic_before([t]), before)
        cache.invalidate([period])
        after = cache.traffic_before([t])
        assert calls == [1, 1]
        assert not np.allclose(after, before)
        assert np.array_equal(after[0],
                              live.normalized_matrix_before(t).ravel())
        assert cache.invalidations == 1

        # An untouched period keeps its row across the invalidation.
        other_t = 20 * dt + 1.0
        other = cache.traffic_before([other_t])
        cache.invalidate([period])
        assert np.array_equal(cache.traffic_before([other_t]), other)
        assert calls == [1, 1, 1]


class TestServiceLiveSpeeds:
    @pytest.fixture()
    def service(self, stream_artifact, stream_dataset):
        predictor = load_artifact(stream_artifact, dataset=stream_dataset)
        return TravelTimeService(predictor, metrics=MetricsRegistry())

    @pytest.fixture()
    def queries(self, stream_dataset):
        return [Query(origin_xy=t.od.origin_xy,
                      destination_xy=t.od.destination_xy,
                      depart_time=t.od.depart_time)
                for t in stream_dataset.split.test[:4]]

    def test_route_tier_reads_live_speeds(self, service, queries,
                                          monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("model down")
        monkeypatch.setattr(service.predictor, "estimate_from_ods", boom)

        baseline = service.query_batch(queries)
        assert all(r.source == "route" and r.degraded_tier == 1
                   for r in baseline)

        store = service.dataset.speed_store
        halved = {p: store.matrix_at(p) * 0.5
                  for p in range(store.periods)}
        assert service.apply_live_speeds(halved) == store.periods
        slowed = service.query_batch(queries)
        for slow, fast in zip(slowed, baseline):
            assert slow.seconds > fast.seconds

    def test_tier_ladder_bottoms_out_at_temp(self, service, queries,
                                             monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("down")
        monkeypatch.setattr(service.predictor, "estimate_from_ods", boom)
        monkeypatch.setattr(service.route_baseline, "estimate_from_ods",
                            boom)
        responses = service.query_batch(queries)
        assert all(r.source == "fallback" and r.degraded_tier == 2
                   for r in responses)

    def test_model_tier_reports_tier_zero(self, service, queries):
        responses = service.query_batch(queries)
        assert all(r.source == "model" and r.degraded_tier == 0
                   and not r.degraded for r in responses)


class _ServiceStub:
    def __init__(self):
        self.applied = []

    def apply_live_speeds(self, slices):
        self.applied.append(dict(slices))
        return len(slices)


class _ClusterStub:
    def __init__(self, workers=2):
        self.workers = workers
        self.published = []

    def publish_speeds(self, slices):
        self.published.append(dict(slices))
        return len(slices) * self.workers


class TestLiveSpeedFeed:
    def test_fans_out_to_both_target_kinds(self):
        registry = MetricsRegistry()
        service, cluster = _ServiceStub(), _ClusterStub(workers=2)
        feed = LiveSpeedFeed(metrics=registry)
        feed.add_target(service)
        feed.add_target(cluster)
        slices = {3: np.ones((2, 2)), 4: np.ones((2, 2))}
        assert feed.publish(slices) == 2 + 2 * 2
        assert feed.published_slices == 2
        assert list(service.applied[0]) == [3, 4]
        assert list(cluster.published[0]) == [3, 4]
        assert registry.counter("stream.feed.publishes").value == 2

    def test_empty_publish_is_free(self):
        registry = MetricsRegistry()
        feed = LiveSpeedFeed(targets=[_ServiceStub()], metrics=registry)
        assert feed.publish({}) == 0
        assert registry.counter("stream.feed.publishes").value == 0

    def test_rejects_non_serving_target(self):
        feed = LiveSpeedFeed(metrics=MetricsRegistry())
        with pytest.raises(TypeError):
            feed.add_target(object())
