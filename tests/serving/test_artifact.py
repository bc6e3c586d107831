"""Artifact save/load round-trip and fail-closed validation."""

import json
import os

import numpy as np
import pytest

from repro.core import DeepODTrainer, build_deepod
from repro.datagen import DatasetSpec, build, strip_trajectories
from repro.experiments import RegistryError, RunRegistry
from repro.nn import load_state, save_state
from repro.serving import (
    ArtifactError, load_artifact, save_artifact, validate_artifact,
)

from .conftest import TINY_CFG, TINY_DAYS, TINY_TRIPS


class TestRoundTrip:
    def test_bitwise_equal_predictions(self, artifact_dir, trained_trainer,
                                       serving_dataset):
        restored = load_artifact(artifact_dir, dataset=serving_dataset)
        test = strip_trajectories(serving_dataset.split.test)
        original = trained_trainer.predict(test)
        reloaded = restored.trainer.predict(test)
        assert np.array_equal(original, reloaded)

    def test_calibration_restored_not_recomputed(self, artifact_dir,
                                                 trained_predictor,
                                                 serving_dataset):
        restored = load_artifact(artifact_dir, dataset=serving_dataset)
        assert restored.quantiles == trained_predictor.quantiles
        assert restored.coverage == trained_predictor.coverage

    def test_config_round_trips(self, artifact_dir, trained_predictor,
                                serving_dataset):
        restored = load_artifact(artifact_dir, dataset=serving_dataset)
        assert restored.model.config == trained_predictor.model.config

    def test_load_regenerates_dataset_from_manifest(self, artifact_dir,
                                                    trained_trainer,
                                                    serving_dataset):
        # No dataset passed: the artifact must rebuild it from its
        # recorded preset parameters and still match bitwise.
        restored = load_artifact(artifact_dir)
        assert restored.dataset.name == serving_dataset.name
        test = strip_trajectories(restored.dataset.split.test)
        assert np.array_equal(trained_trainer.predict(test),
                              restored.trainer.predict(test))

    def test_fresh_build_deepod_plus_load_state(self, artifact_dir,
                                                trained_trainer,
                                                serving_dataset):
        # The low-level contract: a fresh build_deepod instance loaded
        # from the artifact's weights file predicts identically.
        fresh = build_deepod(serving_dataset, TINY_CFG)
        load_state(fresh, os.path.join(artifact_dir, "weights.npz"))
        trainer = DeepODTrainer(fresh, serving_dataset, eval_every=0)
        test = strip_trajectories(serving_dataset.split.test)
        assert np.array_equal(trained_trainer.predict(test),
                              trainer.predict(test))


class TestValidation:
    def test_missing_directory(self):
        with pytest.raises(ArtifactError, match="not found"):
            validate_artifact("/nonexistent/artifact")

    def test_missing_weights(self, tmp_path, trained_predictor):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        os.remove(os.path.join(directory, "weights.npz"))
        with pytest.raises(ArtifactError, match="missing"):
            validate_artifact(directory)

    def test_tampered_weights_rejected(self, tmp_path, trained_predictor):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        with open(os.path.join(directory, "weights.npz"), "ab") as handle:
            handle.write(b"corruption")
        with pytest.raises(ArtifactError, match="checksum"):
            validate_artifact(directory)

    def test_schema_bump_rejected(self, tmp_path, trained_predictor):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = 999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="schema"):
            load_artifact(directory)

    def test_dataset_fingerprint_mismatch(self, artifact_dir):
        other = build(DatasetSpec("mini-chengdu", num_trips=TINY_TRIPS + 10,
                          num_days=TINY_DAYS))
        with pytest.raises(ArtifactError, match="fingerprint"):
            load_artifact(artifact_dir, dataset=other)

    def test_bad_config_rejected(self, tmp_path, trained_predictor):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        config_path = os.path.join(directory, "config.json")
        with open(config_path) as handle:
            payload = json.load(handle)
        payload["not_a_real_field"] = 1
        with open(config_path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ArtifactError, match="unknown fields"):
            load_artifact(directory)

    def test_configs_with_retired_engine_keys_still_load(
            self, tmp_path, trained_predictor, serving_dataset):
        # Artifacts and registry runs written while the config carried
        # the nn/embedding engine selectors still load; any other
        # unknown key still fails closed in both loaders.
        config = trained_predictor.model.config
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        registry = RunRegistry(str(tmp_path / "runs"))
        run = registry.create_run("mini-chengdu", config, 0)
        paths = [os.path.join(directory, "config.json"),
                 os.path.join(run.directory, "config.json")]

        def rewrite(**extra):
            for path in paths:
                with open(path) as handle:
                    payload = json.load(handle)
                payload.update(extra)
                with open(path, "w") as handle:
                    json.dump(payload, handle)

        rewrite(nn_engine="reference", embed_engine="vectorized")
        restored = load_artifact(directory, dataset=serving_dataset)
        assert restored.model.config == config
        assert registry.load_config(run.run_id) == config

        rewrite(engine="fast")
        with pytest.raises(ArtifactError, match="unknown fields"):
            load_artifact(directory, dataset=serving_dataset)
        with pytest.raises(RegistryError, match="unknown fields"):
            registry.load_config(run.run_id)


class TestSaveTarget:
    def test_replaces_an_existing_artifact(self, tmp_path,
                                           trained_predictor):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor,
                                  extra_manifest={"run_id": "old"})
        save_artifact(directory, trained_predictor,
                      extra_manifest={"run_id": "new"})
        manifest = validate_artifact(directory)
        assert manifest["provenance"] == {"run_id": "new"}

    def test_refuses_to_replace_a_non_artifact_directory(
            self, tmp_path, trained_predictor):
        target = tmp_path / "notes"
        target.mkdir()
        (target / "keep.txt").write_text("mine")
        with pytest.raises(ArtifactError, match="not an artifact"):
            save_artifact(str(target), trained_predictor)
        assert os.listdir(target) == ["keep.txt"]
        assert (target / "keep.txt").read_text() == "mine"


class TestSaveStatePath:
    def test_returns_real_path_when_suffix_missing(self, tmp_path,
                                                   trained_trainer):
        target = str(tmp_path / "weights")
        written = save_state(trained_trainer.model, target)
        assert written == target + ".npz"
        assert os.path.exists(written)
        assert not os.path.exists(target)

    def test_returns_given_path_with_suffix(self, tmp_path,
                                            trained_trainer):
        target = str(tmp_path / "weights.npz")
        written = save_state(trained_trainer.model, target)
        assert written == target
        assert os.path.exists(written)
