"""The service's per-period D_traf table against the uncached path.

A served answer must equal ``estimate_from_ods`` fed the speed matrices
of the store the service reads (to 1e-12), whatever happened to the
table first: repeats, live writes, a write landing inside a fill, a
model swap.  Encodes are counted by wrapping
``InferencePlan.traffic_codes``, the call the table makes on a miss.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.inference import InferencePlan
from repro.core.predictor import normalize_depart_time
from repro.obs.metrics import MetricsRegistry
from repro.serving import TravelTimeService
from repro.trajectory.model import Query

from .conftest import external_predictor

QUERIES = 24


@pytest.fixture(scope="module")
def predictors(serving_dataset):
    return [external_predictor(serving_dataset, seed) for seed in (0, 1)]


@pytest.fixture(scope="module")
def queries(serving_dataset):
    """Each trip's OD twice: departing on time and one second later
    (one period, bar the rare boundary)."""
    trips = serving_dataset.trips[:QUERIES // 2]
    return [Query(t.od.origin_xy, t.od.destination_xy, t.od.depart_time + s)
            for s in (0.0, 1.0) for t in trips]


@pytest.fixture()
def encoded(monkeypatch):
    """Rows encoded through ``traffic_codes`` since the test began."""
    rows = []
    original = InferencePlan.traffic_codes

    def counting(plan, mats):
        rows.append(len(mats))
        return original(plan, mats)

    monkeypatch.setattr(InferencePlan, "traffic_codes", counting)
    return rows


def _periods(service, queries):
    horizon = service.dataset.horizon_seconds
    return service.speed_store.periods_before(
        [normalize_depart_time(q.depart_time, horizon) for q in queries])


def _uncached(service, predictor, queries):
    """``estimate_from_ods`` fed the service store's matrices."""
    ods = [predictor.match_query(*q) for q in queries]
    store = service.speed_store
    mats = np.stack([store.normalized_matrix_before(od.depart_time)
                     for od in ods])
    return np.array([e.seconds
                     for e in predictor.estimate_from_ods(ods, mats)])


def _served(service, queries):
    responses = service.query_batch(queries)
    assert all(r.source == "model" for r in responses)
    return np.array([r.seconds for r in responses])


def test_a_batch_encodes_each_distinct_period_once(predictors, queries,
                                                   encoded):
    service = TravelTimeService(predictors[0], metrics=MetricsRegistry())
    k = len(set(_periods(service, queries).tolist()))
    assert 1 < k < len(queries)
    first = _served(service, queries)
    assert sum(encoded) == k and len(encoded) == 1
    again = _served(service, queries)
    assert sum(encoded) == k                    # a warm table encodes 0
    np.testing.assert_array_equal(first, again)
    np.testing.assert_allclose(first,
                               _uncached(service, predictors[0], queries),
                               rtol=1e-12, atol=0.0)
    stats = service.slice_cache.stats()
    assert (stats["misses"], stats["hits"]) == (k, 2 * len(queries) - k)


def test_live_write_reencodes_only_the_touched_periods(predictors, queries,
                                                       encoded):
    service = TravelTimeService(predictors[0], metrics=MetricsRegistry())
    _served(service, queries)
    periods = sorted(set(_periods(service, queries).tolist()))
    slices = {p: service.speed_store.matrix_at(p) * 0.4 for p in periods[:2]}
    before = sum(encoded)
    # A write clears only its periods' rows: every other row survives.
    service.apply_live_speeds(slices)
    got = _served(service, queries)
    assert sum(encoded) - before == len(slices)
    np.testing.assert_allclose(got,
                               _uncached(service, predictors[0], queries),
                               rtol=1e-12, atol=0.0)
    fresh = TravelTimeService(predictors[0], metrics=MetricsRegistry())
    fresh.apply_live_speeds(slices)
    np.testing.assert_array_equal(got, _served(fresh, queries))


def test_a_rejected_push_changes_nothing(predictors, queries, encoded):
    """A push with one good slice and one of the wrong shape raises and
    leaves the store, the table and the counters as they were."""
    service = TravelTimeService(predictors[0], metrics=MetricsRegistry())
    before = _served(service, queries)
    store = service.speed_store
    period = int(_periods(service, queries)[0])
    good = store.matrix_at(period) * 0.4
    other = (period + 1) % store.periods
    encodes = sum(encoded)
    with pytest.raises(ValueError, match="shape"):
        service.apply_live_speeds({period: good, other: np.ones((1, 1))})
    assert service.speed_store.live_periods == []
    assert service.metrics.counter("serve.speed_updates").value == 0
    assert service.metrics.counter(
        "serve.cache.speed.invalidations").value == 0
    np.testing.assert_array_equal(_served(service, queries), before)
    assert sum(encoded) == encodes                  # no row was cleared

    service.apply_live_speeds({period: good})
    after = _served(service, queries)
    assert sum(encoded) - encodes == 1
    np.testing.assert_allclose(after,
                               _uncached(service, predictors[0], queries),
                               rtol=1e-12, atol=0.0)
    assert not np.array_equal(after, before)


def test_swap_answers_with_the_new_models_codes(predictors, queries):
    old, new = predictors
    service = TravelTimeService(old, metrics=MetricsRegistry())
    service.apply_live_speeds({int(_periods(service, queries)[0]):
                               service.speed_store.matrix_at(0) * 0.7})
    before = _served(service, queries)
    service.swap_predictor(new)
    after = _served(service, queries)
    np.testing.assert_allclose(after, _uncached(service, new, queries),
                               rtol=1e-12, atol=0.0)
    assert not np.allclose(after, before)


def test_write_inside_a_fill_leaves_no_stale_code(predictors, queries,
                                                  monkeypatch):
    """The write's slice lands while the fill is encoding the old one;
    its invalidation must not be lost when the fill stores its rows."""
    original = InferencePlan.traffic_codes
    writers = []

    def encode_during_a_write(plan, mats):
        if not writers:
            writer = threading.Thread(
                target=service.apply_live_speeds, args=({target: slowed},))
            writers.append(writer)
            writer.start()
            deadline = time.monotonic() + 10.0
            while not np.array_equal(
                    service.speed_store.matrix_at(target), slowed):
                assert time.monotonic() < deadline, "write never landed"
                time.sleep(0.001)
        return original(plan, mats)

    # The table binds ``traffic_codes`` when the service builds it.
    monkeypatch.setattr(InferencePlan, "traffic_codes",
                        encode_during_a_write)
    service = TravelTimeService(predictors[0], metrics=MetricsRegistry())
    target = int(_periods(service, queries)[0])
    slowed = service.speed_store.matrix_at(target) * 0.3
    _served(service, queries)
    writers[0].join(timeout=10.0)
    assert not writers[0].is_alive()
    np.testing.assert_allclose(_served(service, queries),
                               _uncached(service, predictors[0], queries),
                               rtol=1e-12, atol=0.0)


def test_no_table_without_external_features(trained_predictor, predictors,
                                            queries):
    assert not trained_predictor.model.config.use_external_features
    service = TravelTimeService(trained_predictor,
                                metrics=MetricsRegistry())
    assert service.slice_cache is None
    _served(service, queries)
    gauges = service.metrics_snapshot()["gauges"]
    assert gauges["serve.cache.speed.hit_rate"] == 0.0
    # A swap builds the table for a model that reads traffic, and drops
    # it again for one that does not.
    service.swap_predictor(predictors[0])
    assert service.slice_cache is not None
    service.swap_predictor(trained_predictor)
    assert service.slice_cache is None
