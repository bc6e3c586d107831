"""Serving from an artifact's bundle generates no trip.

``load_artifact(dir)`` without a dataset serves every tier from the
serving-state bundle alone, at any training-set size.  Trip generation
is made to raise and is counted (the service's tier ladder would swallow
the raise, the count cannot), and every answer must equal, bit for bit,
the in-memory predictor's service and a ``load_artifact(dir,
dataset=ds)`` service.
"""

import numpy as np
import pytest

from repro.core import DeepODTrainer, TravelTimePredictor, build_deepod
from repro.core.predictor import normalize_depart_time
from repro.datagen import DatasetSpec, build
from repro.datagen.trips import TripGenerator
from repro.serving import (
    RouteTimeBaseline, TravelTimeService, load_artifact, save_artifact,
)
from repro.serving import artifact as artifact_mod
from repro.serving.cluster import synthetic_queries

from .conftest import TINY_CFG

CFG = TINY_CFG.with_overrides(use_external_features=True,
                              init_road_embedding="onehot",
                              init_slot_embedding="onehot")


@pytest.fixture(scope="module", params=[800, 4000])
def saved(request, tmp_path_factory):
    """(dataset, in-memory predictor, artifact dir) of an untrained
    model — answers need not be good, only identical."""
    dataset = build(DatasetSpec("mini-beijing", num_trips=request.param))
    trainer = DeepODTrainer(build_deepod(dataset, CFG), dataset,
                            eval_every=0)
    predictor = TravelTimePredictor(trainer, quantiles=(0.7, 1.4))
    directory = save_artifact(str(tmp_path_factory.mktemp("bundle")),
                              predictor)
    return dataset, predictor, directory


@pytest.fixture()
def trip_generation_calls(monkeypatch):
    calls = []

    def refuse(name):
        def refused(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called while serving")
        return refused
    monkeypatch.setattr(artifact_mod, "build", refuse("build"))
    monkeypatch.setattr(TripGenerator, "generate_chunks",
                        refuse("generate_chunks"))
    return calls


def _rows(responses):
    return [(r.seconds, r.lower, r.upper, r.origin_edge,
             r.destination_edge, r.source) for r in responses]


def _same(services, answer):
    """Every service's answers, asserted identical; returns them."""
    rows = [_rows(answer(service)) for service in services]
    assert all(r == rows[0] for r in rows[1:])
    return rows[0]


def test_every_tier_serves_from_the_bundle_alone(saved, monkeypatch,
                                                 trip_generation_calls):
    dataset, original, directory = saved
    queries = synthetic_queries(dataset, 48, seed=7)
    bundle = load_artifact(directory)
    attached = load_artifact(directory, dataset=dataset)
    predictors = (bundle, original, attached)
    services = [TravelTimeService(p).start() for p in predictors]
    try:
        batch = _same(services, lambda s: s.query_batch(queries))
        assert {row[-1] for row in batch} == {"model"}
        # One query at a time, so each service runs batches of one.
        _same(services, lambda s: [s.submit(q).result(timeout=30)
                                   for q in queries[:8]])

        store = dataset.speed_store
        periods = sorted({store.period_before(normalize_depart_time(
            q.depart_time, dataset.horizon_seconds)) for q in queries})
        rng = np.random.default_rng(3)
        slices = {p: store.matrix_at(p) * rng.uniform(0.5, 1.5,
                                                      size=store.shape)
                  for p in periods[:6]}
        for service in services:
            assert service.apply_live_speeds(slices) == len(slices)
        live = _same(services, lambda s: s.query_batch(queries))
        assert live != batch

        def broken(*args, **kwargs):
            raise RuntimeError("model path down")
        monkeypatch.setattr(TravelTimePredictor, "estimate_from_ods",
                            broken)
        route = _same(services, lambda s: s.query_batch(queries))
        assert {row[-1] for row in route} == {"route"}
        monkeypatch.setattr(RouteTimeBaseline, "estimate_from_ods", broken)
        temp = _same(services, lambda s: s.query_batch(queries))
        assert {row[-1] for row in temp} == {"fallback"}
    finally:
        for service in services:
            service.stop()
        bundle.dataset.close()
        attached.dataset.close()
    assert trip_generation_calls == []
