"""Tests for the serving-style TravelTimePredictor facade."""

import numpy as np
import pytest

from repro.core import (
    DeepODConfig, DeepODTrainer, Estimate, TravelTimePredictor,
    build_deepod,
)
from repro.trajectory import Query


SMALL_CFG = DeepODConfig(
    d_s=8, d_t=8, d1_m=16, d2_m=8, d3_m=16, d4_m=8, d5_m=16, d6_m=8,
    d7_m=16, d9_m=16, d_h=16, d_traf=8, batch_size=16, epochs=2,
    use_external_features=False, seed=0)


@pytest.fixture(scope="module")
def predictor(tiny_dataset):
    model = build_deepod(tiny_dataset, SMALL_CFG)
    trainer = DeepODTrainer(model, tiny_dataset, eval_every=0)
    trainer.fit(track_validation=False)
    return TravelTimePredictor(trainer, coverage=0.8)


class TestQueries:
    def test_single_estimate(self, predictor, tiny_dataset):
        trip = tiny_dataset.split.test[0]
        est = predictor.estimate(Query(trip.od.origin_xy,
                                       trip.od.destination_xy,
                                       trip.od.depart_time))
        assert isinstance(est, Estimate)
        assert est.lower <= est.seconds <= est.upper
        assert est.seconds > 0

    def test_batch_matches_single(self, predictor, tiny_dataset):
        trips = tiny_dataset.split.test[:3]
        queries = [Query(t.od.origin_xy, t.od.destination_xy,
                         t.od.depart_time) for t in trips]
        batch = predictor.estimate_batch(queries)
        single = [predictor.estimate(q) for q in queries]
        for b, s in zip(batch, single):
            assert b.seconds == pytest.approx(s.seconds)

    def test_empty_batch(self, predictor):
        assert predictor.estimate_batch([]) == []

    def test_matching_snaps_to_edges(self, predictor, tiny_dataset):
        trip = tiny_dataset.split.test[0]
        od = predictor.match_query(trip.od.origin_xy,
                                   trip.od.destination_xy,
                                   trip.od.depart_time)
        assert od.is_matched
        assert 0 <= od.ratio_start <= 1
        # Snapping a point that lies exactly on the trip's origin edge
        # should recover an edge close to the original.
        assert od.origin_edge >= 0

    def test_negative_departure_rejected(self, predictor):
        with pytest.raises(ValueError):
            predictor.match_query((0, 0), (100, 100), -5.0)


class TestCalibration:
    def test_band_coverage_roughly_nominal(self, predictor):
        """The conformal band should cover roughly its nominal fraction
        of test trips (loose check: tiny validation sets are noisy)."""
        coverage = predictor.band_coverage_on_test()
        assert 0.4 <= coverage <= 1.0

    def test_band_widens_with_coverage(self, tiny_dataset):
        model = build_deepod(tiny_dataset, SMALL_CFG)
        trainer = DeepODTrainer(model, tiny_dataset, eval_every=0)
        trainer.fit(max_steps=2, track_validation=False)
        narrow = TravelTimePredictor(trainer, coverage=0.5)
        wide = TravelTimePredictor(trainer, coverage=0.95)
        trip = tiny_dataset.split.test[0]
        q = Query(trip.od.origin_xy, trip.od.destination_xy,
                  trip.od.depart_time)
        n = narrow.estimate(q)
        w = wide.estimate(q)
        assert (w.upper - w.lower) >= (n.upper - n.lower)

    def test_invalid_coverage(self, tiny_dataset):
        model = build_deepod(tiny_dataset, SMALL_CFG)
        trainer = DeepODTrainer(model, tiny_dataset, eval_every=0)
        trainer.fit(max_steps=1, track_validation=False)
        with pytest.raises(ValueError):
            TravelTimePredictor(trainer, coverage=1.0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            Estimate(seconds=10.0, lower=20.0, upper=30.0,
                     origin_edge=0, destination_edge=1)
