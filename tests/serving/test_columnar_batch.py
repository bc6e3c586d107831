"""A served batch carried as columns, against the per-row forms.

``match_queries`` returns one ``ODBatch``; the service's tiers read its
columns and build ``ServingResponse`` rows only at the end.  Each
columnar step must equal its scalar or per-row form exactly: the
clamp, the weather lookup, snapping, the model tier against
``estimate_from_ods`` on ``ODInput`` rows, the route tier against
``RouteTimeBaseline.estimate_od``, and TEMP; a ``submit`` burst
answers as ``query_batch`` does.
"""

import numpy as np
import pytest

from repro.core import DeepODTrainer, TravelTimePredictor, build_deepod
from repro.core.predictor import (
    clamp_depart_times, match_queries, normalize_depart_time,
)
from repro.serving import TravelTimeService
from repro.serving.cluster.loadgen import synthetic_queries
from repro.trajectory.model import ODBatch, ODInput, Query

from .conftest import TINY_CFG


@pytest.fixture(scope="module")
def queries(serving_dataset):
    """Seeded queries, the same jittered by 8 m GPS noise, three with an
    end far off the grid, and last four departing past the horizon."""
    seeded = synthetic_queries(serving_dataset, 40, seed=7)
    noise = np.random.default_rng(8).normal(0.0, 8.0, size=(40, 4))
    jittered = [Query((q.origin_xy[0] + n[0], q.origin_xy[1] + n[1]),
                      (q.destination_xy[0] + n[2],
                       q.destination_xy[1] + n[3]), q.depart_time)
                for q, n in zip(seeded, noise.tolist())]
    far = [Query((-5000.0, -5000.0), seeded[0].destination_xy, 612000.0),
           Query(seeded[1].origin_xy, (9e4, 200.0), 612000.0),
           Query((-3e6, 4e6), (7e9, -2e9), 612000.0)]
    horizon = serving_dataset.horizon_seconds
    late = [Query(q.origin_xy, q.destination_xy, horizon + 3600.0 * i)
            for i, q in enumerate(seeded[:4])]
    return seeded + jittered + far + late


@pytest.fixture(scope="module")
def external_predictors(serving_dataset):
    """Two models that read the traffic condition (a swap target)."""
    out = []
    for seed in (0, 1):
        config = TINY_CFG.with_overrides(use_external_features=True,
                                         seed=seed)
        trainer = DeepODTrainer(build_deepod(serving_dataset, config),
                                serving_dataset, eval_every=0)
        trainer.fit(max_steps=3, track_validation=False)
        out.append(TravelTimePredictor(trainer, quantiles=(0.8, 1.2)))
    return out


def _scalar_match(predictor, query):
    """The per-query recipe: clamp, snap each end, look up the weather."""
    dataset = predictor.dataset
    t = normalize_depart_time(query.depart_time, dataset.horizon_seconds)
    o_edge, _, o_ratio = predictor.index.nearest_edge(*query.origin_xy)
    d_edge, _, d_ratio = predictor.index.nearest_edge(*query.destination_xy)
    return ODInput(origin_xy=query.origin_xy,
                   destination_xy=query.destination_xy, depart_time=t,
                   origin_edge=o_edge, destination_edge=d_edge,
                   ratio_start=o_ratio, ratio_end=d_ratio,
                   weather=dataset.weather.category(t))


class TestMatchQueries:
    def test_rows_equal_per_query_match(self, trained_predictor,
                                        serving_dataset, queries):
        batch = match_queries(queries, serving_dataset,
                              trained_predictor.index.nearest_edges)
        assert isinstance(batch, ODBatch) and len(batch) == len(queries)
        rows = list(batch)
        assert rows == [trained_predictor.match_query(*q) for q in queries]
        assert rows == [_scalar_match(trained_predictor, q)
                        for q in queries]
        horizon = serving_dataset.horizon_seconds
        assert (batch.depart_time[-4:] == horizon - 1.0).all()

    def test_column_shapes_and_types(self, trained_predictor,
                                     serving_dataset, queries):
        batch = match_queries(queries, serving_dataset,
                              trained_predictor.index.nearest_edges)
        n = len(queries)
        assert batch.origin_xy.shape == batch.destination_xy.shape == (n, 2)
        for name in ("depart_time", "ratio_start", "ratio_end"):
            column = getattr(batch, name)
            assert column.shape == (n,) and column.dtype == np.float64
        for name in ("origin_edge", "destination_edge", "weather"):
            column = getattr(batch, name)
            assert column.shape == (n,) and column.dtype == np.int64
        np.testing.assert_array_equal(
            batch.origin_xy, [q.origin_xy for q in queries])

    def test_rows_round_trip_through_a_batch(self, serving_dataset):
        rows = [t.od for t in serving_dataset.trips[:20]]
        batch = ODBatch.from_rows(rows)
        assert list(batch) == rows
        assert batch[3] == rows[3] and batch[-1] == rows[-1]
        assert ODBatch.from_rows(batch) is batch
        assert len(ODBatch.from_rows([])) == 0


class TestScalarForms:
    def test_clamp_equals_scalar_clamp(self, serving_dataset):
        horizon = serving_dataset.horizon_seconds
        times = [0.0, 1.5, horizon - 3600.0, horizon - 1.0, horizon - 0.5,
                 horizon, horizon + 1.0, 1e12]
        clamped = clamp_depart_times(np.array(times), horizon)
        assert clamped.tolist() == [normalize_depart_time(t, horizon)
                                    for t in times]

    def test_categories_equal_category(self, serving_dataset):
        weather = serving_dataset.weather
        hour = weather.config.hour_seconds
        last = (len(weather.hourly_categories) - 1) * hour
        times = np.concatenate([
            np.arange(0.0, weather.horizon_seconds, 1234.5),
            [last - 1e-6, last, last + hour - 1e-6, last + hour,
             weather.horizon_seconds - 1.0, weather.horizon_seconds + 1e6,
             1e15]])
        got = weather.categories(times)
        assert got.dtype == np.int64
        assert got.tolist() == [weather.category(t) for t in times]
        for bad in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                weather.categories([0.0, bad])


def _rows_and_traffic(service, queries):
    """``ODInput`` rows by per-query matching, and the service table's
    D_traf rows for them (what the model tier reads)."""
    predictor = service.predictor
    rows = [predictor.match_query(*q) for q in queries]
    traffic = service.slice_cache.traffic_before(
        [od.depart_time for od in rows])
    return rows, traffic


def _assert_same(responses, estimates, source="model"):
    assert [r.source for r in responses] == [source] * len(estimates)
    assert [(r.seconds, r.lower, r.upper, r.origin_edge,
             r.destination_edge) for r in responses] == \
        [(e.seconds, e.lower, e.upper, e.origin_edge, e.destination_edge)
         for e in estimates]


class TestServedColumns:
    def test_model_answers_equal_row_path(self, external_predictors,
                                          queries):
        service = TravelTimeService(external_predictors[0])

        def check():
            rows, traffic = _rows_and_traffic(service, queries)
            want = service.predictor.estimate_from_ods(rows, traffic=traffic)
            _assert_same(service.query_batch(queries), want)

        check()
        store = service.speed_store
        periods = sorted(set(store.periods_before(
            [od.depart_time for od in
             _rows_and_traffic(service, queries)[0]]).tolist()))[:3]
        rng = np.random.default_rng(0)
        service.apply_live_speeds(
            {p: store.matrix_at(p) * rng.uniform(0.6, 1.4, store.shape)
             for p in periods})
        check()
        service.swap_predictor(external_predictors[1])
        check()

    def test_submit_burst_equals_query_batch(self, external_predictors,
                                             queries):
        service = TravelTimeService(external_predictors[0]).start()
        try:
            futures = [service.submit(q) for q in queries]
            burst = [f.result(timeout=60) for f in futures]
        finally:
            service.stop()
        assert burst == service.query_batch(queries)
        assert {r.source for r in burst} == {"model"}

    def test_route_tier_equals_estimate_od(self, external_predictors,
                                           queries, monkeypatch):
        service = TravelTimeService(external_predictors[0])

        def explode(*args, **kwargs):
            raise RuntimeError("injected model failure")
        monkeypatch.setattr(service.predictor, "estimate_from_ods", explode)
        responses = service.query_batch(queries)
        route = service.route_baseline
        seconds = [route.estimate_od(service.predictor.match_query(*q))
                   for q in queries]
        assert [r.source for r in responses] == ["route"] * len(queries)
        assert [r.seconds for r in responses] == seconds
        assert [(r.lower, r.upper) for r in responses] == \
            [(s * 0.5, s * 2.0) for s in seconds]
        assert [(r.origin_edge, r.destination_edge) for r in responses] == \
            [(od.origin_edge, od.destination_edge) for od in
             (service.predictor.match_query(*q) for q in queries)]

    def test_temp_answers_do_not_move(self, external_predictors,
                                      serving_dataset, queries,
                                      monkeypatch):
        service = TravelTimeService(external_predictors[0])

        def explode(*args, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr(service.predictor, "estimate_from_ods", explode)
        monkeypatch.setattr(service.route_baseline, "estimate_from_ods",
                            explode)
        temp = service.query_batch(queries)
        only = TravelTimeService(dataset=serving_dataset).query_batch(queries)
        assert temp == only
        singles = [float(service.fallback.estimate_seconds([q])[0])
                   for q in queries]
        assert [r.seconds for r in temp] == singles
        assert all(r.source == "fallback" and r.origin_edge == -1
                   and r.lower == r.seconds * 0.5 for r in temp)
