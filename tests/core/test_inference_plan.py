"""The frozen inference plan against its oracle, ``DeepOD.predict``.

The plan folds eval-mode BatchNorm into the traffic CNN and reorders the
convolution columns, so it may move the last bits; everything else
(errors, snapshot semantics, thread safety, artifact round trips) must
behave exactly as the module path and the serving contract say.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    DeepODConfig, DeepODTrainer, TravelTimePredictor, build_deepod,
)
from repro.core.inference import InferencePlan
from repro.serving.artifact import load_artifact, save_artifact

BATCHES = (1, 48, 128)

BASE = DeepODConfig(
    d_s=8, d_t=8, d1_m=16, d2_m=8, d3_m=16, d4_m=8, d5_m=16, d6_m=8,
    d7_m=16, d9_m=16, d_h=16, d_traf=8, batch_size=16, epochs=1, seed=0,
    init_road_embedding="onehot", init_slot_embedding="onehot")

CONFIGS = {
    **{f"{enc}-ext{int(ext)}": BASE.with_overrides(
        sequence_encoder=enc, use_external_features=ext)
       for enc in ("lstm", "gru", "mean") for ext in (False, True)},
    "no-spatial": BASE.with_overrides(use_spatial_encoding=False),
    "no-temporal": BASE.with_overrides(use_temporal_encoding=False),
    "T-stamp": BASE.with_overrides(use_timestamp_directly=True),
    "T-day": BASE.with_overrides(temporal_graph="daily"),
    "raw-targets": BASE.with_overrides(normalize_targets=False),
}


def _trainer(dataset, config):
    """A few Adam steps, so BatchNorm's running stats are not the
    identity and folding them in is actually exercised."""
    trainer = DeepODTrainer(build_deepod(dataset, config), dataset,
                            eval_every=0)
    trainer.fit(max_steps=3, track_validation=False)
    return trainer


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    return {name: _trainer(tiny_dataset, cfg)
            for name, cfg in CONFIGS.items()}


def _batch(dataset, size):
    """``size`` OD inputs cycled over every trip, and their slices."""
    trips = dataset.trips
    ods = [trips[i % len(trips)].od for i in range(size)]
    store = dataset.speed_store
    mats = np.stack([store.normalized_matrix_before(od.depart_time)
                     for od in ods])
    return ods, mats


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("size", BATCHES)
def test_plan_matches_oracle(trained, tiny_dataset, name, size):
    model = trained[name].model
    ods, mats = _batch(tiny_dataset, size)
    plan = InferencePlan.compile(model)
    want = model.predict(ods, mats)
    got = plan.predict(ods, mats)
    assert got.shape == want.shape == (size,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_batchnorm_statistics_are_trained(trained):
    bn = trained["lstm-ext1"].model.od_encoder.external_encoder.cnn \
        .block1.bn
    assert not np.allclose(bn.running_mean, 0.0)
    assert not np.allclose(bn.running_var, 1.0)


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestErrorsMatchOracle:
    @pytest.fixture
    def model(self, trained):
        return trained["lstm-ext1"].model

    def _same(self, model, ods, mats):
        plan = InferencePlan.compile(model)
        oracle = _raised(lambda: model.predict(ods, mats))
        assert oracle[0] is ValueError
        assert _raised(lambda: plan.predict(ods, mats)) == oracle

    def test_empty_batch(self, model):
        self._same(model, [], None)

    def test_unmatched_od(self, model, tiny_dataset):
        ods, mats = _batch(tiny_dataset, 4)
        ods[2] = replace(ods[2], destination_edge=-1)
        self._same(model, ods, mats)

    @pytest.mark.parametrize("weather", (-1, 16))
    def test_weather_out_of_range(self, model, tiny_dataset, weather):
        ods, mats = _batch(tiny_dataset, 3)
        ods[1] = replace(ods[1], weather=weather)
        self._same(model, ods, mats)

    def test_missing_matrices(self, model, tiny_dataset):
        ods, _ = _batch(tiny_dataset, 3)
        self._same(model, ods, None)


def test_concurrent_threads_get_serial_answers(trained, tiny_dataset):
    """More threads than cores and a short switch interval: a plan that
    shared scratch buffers between calls would mix answers."""
    predictor = TravelTimePredictor(trained["lstm-ext1"],
                                    quantiles=(0.8, 1.2))
    work = [_batch(tiny_dataset, size) for size in (1, 7, 48, 128)]
    serial = [[e.seconds for e in predictor.estimate_from_ods(ods, mats)]
              for ods, mats in work]
    results = {}

    def client(k):
        out = []
        for _ in range(10):
            for ods, mats in work:
                out.append([e.seconds
                            for e in predictor.estimate_from_ods(ods, mats)])
        results[k] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for out in results.values():
        assert out == serial * 10


def test_artifact_round_trip_is_bitwise(trained, tiny_dataset, tmp_path):
    predictor = TravelTimePredictor(trained["lstm-ext1"])
    save_artifact(str(tmp_path / "model"), predictor)
    loaded = load_artifact(str(tmp_path / "model"), dataset=tiny_dataset)
    ods, mats = _batch(tiny_dataset, 48)
    a = predictor.estimate_from_ods(ods, mats)
    b = loaded.estimate_from_ods(ods, mats)
    assert [(e.seconds, e.lower, e.upper) for e in a] == \
        [(e.seconds, e.lower, e.upper) for e in b]


def test_predictor_is_a_weight_snapshot(tiny_dataset):
    trainer = _trainer(tiny_dataset, BASE)
    predictor = TravelTimePredictor(trainer, quantiles=(0.8, 1.2))
    ods, mats = _batch(tiny_dataset, 16)
    before = [e.seconds for e in predictor.estimate_from_ods(ods, mats)]
    model = trainer.model
    model.estimator.mlp2.fc2.bias.data += 3.0
    model.od_encoder.external_encoder.cnn.block2.bn.running_mean[:] += 1.0
    model.road_embedding.weight.data *= 2.0
    model.set_target_stats(10.0, 2.0)
    assert [e.seconds
            for e in predictor.estimate_from_ods(ods, mats)] == before
    # A predictor built now sees the edits.
    fresh = TravelTimePredictor(trainer, quantiles=(0.8, 1.2))
    assert [e.seconds
            for e in fresh.estimate_from_ods(ods, mats)] != before
