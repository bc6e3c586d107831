"""Fused-vs-reference nn parity through the full DeepOD stack.

The fused kernels of ``repro.nn.engine`` are drop-in replacements for
the per-op oracles: a same-seed short ``fit`` of a model switched onto
the oracles with ``_as_reference`` must land on the same losses,
validation MAE and predictions as the production model, for every
sequence encoder with and without the external-features encoder.
"""

import numpy as np
import pytest

from repro.core import DeepODConfig, DeepODTrainer, build_deepod
from repro.nn.engine import _as_reference


def engine_config(**overrides):
    base = dict(d_s=8, d_t=8, d1_m=16, d2_m=8, d3_m=16, d4_m=8,
                d5_m=16, d6_m=8, d7_m=16, d9_m=16, d_h=16, d_traf=8,
                batch_size=16, epochs=1, seed=0,
                use_external_features=False)
    base.update(overrides)
    return DeepODConfig(**base)


def _fit(dataset, reference, **overrides):
    model = build_deepod(dataset, engine_config(**overrides))
    if reference:
        _as_reference(model)
    trainer = DeepODTrainer(model, dataset, eval_every=1000)
    history = trainer.fit(track_validation=False)
    return model, trainer, history


class TestConfigWiring:
    def test_validation(self):
        # The engine selectors are gone from the config.
        for field in ("nn_engine", "embed_engine"):
            with pytest.raises(TypeError, match=field):
                engine_config(**{field: "fast"})

    def test_engine_reaches_all_layers(self, tiny_dataset):
        model = build_deepod(tiny_dataset, engine_config())
        enc = model.trajectory_encoder
        resnet = enc.interval_encoder.resnet
        layers = (model, enc.lstm, enc.mlp, resnet.conv1, resnet.bn2)
        assert all(layer.engine == "fast" for layer in layers)
        _as_reference(model)
        assert all(layer.engine == "reference" for layer in layers)
        assert all(m.engine == "reference" for m in model.modules())

    def test_sequence_encoder_variants_get_engine(self, tiny_dataset):
        for seq in ("gru", "mean"):
            model = _as_reference(build_deepod(
                tiny_dataset, engine_config(sequence_encoder=seq)))
            assert model.trajectory_encoder.lstm.engine == "reference"


def assert_fit_parity(dataset, **overrides):
    _, trainer_f, hist_f = _fit(dataset, False, **overrides)
    _, trainer_r, hist_r = _fit(dataset, True, **overrides)
    # The paths differ only in GEMM association order, so losses agree
    # to high precision and the final MAE to rounding noise.
    np.testing.assert_allclose(hist_f.train_loss, hist_r.train_loss,
                               rtol=1e-6)
    np.testing.assert_allclose(trainer_f.validation_mae(),
                               trainer_r.validation_mae(), rtol=1e-5)


class TestFitParity:
    """Full-fit parity over sequence encoder x external features: the
    two named tests cover lstm and gru without external features, the
    matrix the remaining four cells."""

    def test_same_seed_fit_matches(self, tiny_dataset):
        assert_fit_parity(tiny_dataset)

    def test_same_seed_fit_matches_gru(self, tiny_dataset):
        assert_fit_parity(tiny_dataset, sequence_encoder="gru")

    @pytest.mark.parametrize("sequence_encoder,external", [
        ("lstm", True), ("gru", True), ("mean", False), ("mean", True)])
    def test_same_seed_fit_matches_matrix(self, tiny_dataset,
                                          sequence_encoder, external):
        assert_fit_parity(tiny_dataset, sequence_encoder=sequence_encoder,
                          use_external_features=external)

    def test_predictions_match(self, tiny_dataset):
        model_f, _, _ = _fit(tiny_dataset, False)
        model_r, _, _ = _fit(tiny_dataset, True)
        trips = tiny_dataset.split.test[:8]
        pred_f = model_f.predict([t.od for t in trips])
        pred_r = model_r.predict([t.od for t in trips])
        np.testing.assert_allclose(pred_f, pred_r, rtol=1e-5)
