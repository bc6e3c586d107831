"""Artifact save/load round-trip and fail-closed validation."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.baselines.temp import TEMPEstimator
from repro.core import DeepODTrainer, build_deepod
from repro.datagen import DatasetSpec, build, strip_trajectories
from repro.datagen.cities import PRESETS, preset_processes
from repro.experiments import RegistryError, RunRegistry
from repro.nn import load_state, save_state
from repro.serving import (
    ArtifactError, RouteTimeBaseline, load_artifact, save_artifact,
    validate_artifact,
)
from repro.serving import artifact as artifact_mod

from .conftest import (
    BUNDLE_FILES, TINY_CFG, TINY_DAYS, TINY_TRIPS, downgrade_to_schema_1,
)


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

    def test_trip_side_regenerates_once_on_first_read(
            self, artifact_dir, serving_dataset, monkeypatch):
        calls = []
        real_build = artifact_mod.build

        def counting_build(spec):
            calls.append(spec)
            return real_build(spec)
        monkeypatch.setattr(artifact_mod, "build", counting_build)
        restored = load_artifact(artifact_dir)
        assert calls == []
        assert restored.dataset.split.sizes == serving_dataset.split.sizes
        assert len(restored.dataset.trips) == len(serving_dataset.trips)
        restored.trainer
        assert len(calls) == 1

    def test_regenerated_trip_side_is_fingerprint_checked(
            self, artifact_dir, monkeypatch):
        other = build(DatasetSpec("mini-chengdu", num_trips=TINY_TRIPS + 10,
                                  num_days=TINY_DAYS))
        monkeypatch.setattr(artifact_mod, "build", lambda spec: other)
        restored = load_artifact(artifact_dir)
        with pytest.raises(ArtifactError, match="fingerprint"):
            restored.dataset.split

    def test_serving_state_equals_the_training_dataset(
            self, artifact_dir, serving_dataset):
        restored = load_artifact(artifact_dir)
        state, store = restored.dataset, serving_dataset.speed_store
        try:
            assert np.array_equal(state.speed_store.matrices, store.matrices)
            assert (state.speed_store.global_mean_speed
                    == store.global_mean_speed)
            assert state.slot_config == serving_dataset.slot_config
            assert state.horizon_seconds == serving_dataset.horizon_seconds
            assert np.array_equal(
                state.temp.records,
                TEMPEstimator().fit(serving_dataset).records)
        finally:
            state.close()

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


class TestBundleValidation:
    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_tampered_bundle_file(self, tmp_path, trained_predictor, name):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(directory)

    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_truncated_bundle_file(self, tmp_path, trained_predictor, name):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        path = os.path.join(directory, name)
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(directory)

    def test_network_drift_fails_closed(self, tmp_path, trained_predictor,
                                        monkeypatch):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        preset = PRESETS["mini-chengdu"]
        drifted = dataclasses.replace(preset, seed=preset.seed + 100)
        monkeypatch.setattr(
            artifact_mod, "preset_processes",
            lambda p, horizon: preset_processes(drifted, horizon))
        with pytest.raises(ArtifactError, match="road network digest"):
            load_artifact(directory)

    def test_weather_drift_fails_closed(self, tmp_path, trained_predictor):
        directory = save_artifact(str(tmp_path / "a"), trained_predictor)
        path = os.path.join(directory, "manifest.json")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["serving_state"]["weather_sha256"] = "0" * 64
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="weather series digest"):
            load_artifact(directory)

    def test_schema_1_names_the_upgrade_command(self, tmp_path,
                                                trained_predictor):
        directory = downgrade_to_schema_1(
            save_artifact(str(tmp_path / "a"), trained_predictor))
        with pytest.raises(ArtifactError, match="cli artifact upgrade"):
            load_artifact(directory)


class TestLoadPathCleanups:
    def test_onehot_build_deepod_reads_no_trip(self, serving_dataset):
        # The artifact loader's build: no trajectory read, and the same
        # RNG draws (so the same initial weights) as a build that could.
        class NoTrips:
            net = serving_dataset.net
            slot_config = serving_dataset.slot_config

            @property
            def split(self):
                raise AssertionError("onehot build read the trip side")
        config = TINY_CFG.with_overrides(init_road_embedding="onehot",
                                         init_slot_embedding="onehot")
        a = build_deepod(serving_dataset, config).state_dict()
        b = build_deepod(NoTrips(), config).state_dict()
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_route_baseline_edge_lengths(self, serving_dataset):
        net = serving_dataset.net
        baseline = RouteTimeBaseline(net, serving_dataset.speed_store)
        loop = np.array([net.edge(e).length for e in range(net.num_edges)])
        assert np.array_equal(baseline._lengths, loop)


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
