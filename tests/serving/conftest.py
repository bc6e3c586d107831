"""Shared fixtures for the serving test suite: one tiny trained model."""

import json
import os

import pytest

from repro.core import (
    DeepODConfig, DeepODTrainer, TravelTimePredictor, build_deepod,
)
from repro.datagen import DatasetSpec, build

TINY_TRIPS = 60
BUNDLE_FILES = ("speed_matrices.npy", "temp_records.npy")
TINY_DAYS = 7

TINY_CFG = DeepODConfig(
    d_s=8, d_t=8, d1_m=16, d2_m=8, d3_m=16, d4_m=8, d5_m=16, d6_m=8,
    d7_m=16, d9_m=16, d_h=16, d_traf=8, batch_size=16, epochs=1,
    use_external_features=False, seed=0)


@pytest.fixture(scope="session")
def serving_dataset():
    """A preset-built dataset, so artifacts can regenerate it by params."""
    return build(DatasetSpec("mini-chengdu", num_trips=TINY_TRIPS,
                     num_days=TINY_DAYS))


@pytest.fixture(scope="session")
def trained_trainer(serving_dataset):
    model = build_deepod(serving_dataset, TINY_CFG)
    trainer = DeepODTrainer(model, serving_dataset, eval_every=0)
    trainer.fit(track_validation=False)
    return trainer


@pytest.fixture(scope="session")
def trained_predictor(trained_trainer):
    return TravelTimePredictor(trained_trainer, coverage=0.8)


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory, trained_predictor):
    from repro.serving import save_artifact
    directory = tmp_path_factory.mktemp("artifact")
    return save_artifact(str(directory), trained_predictor)


def downgrade_to_schema_1(directory):
    """Rewrite a saved artifact the way a schema-1 writer left it: no
    serving-state bundle files and no ``serving_state`` manifest entry."""
    path = os.path.join(directory, "manifest.json")
    with open(path) as handle:
        manifest = json.load(handle)
    del manifest["serving_state"]
    manifest["schema_version"] = 1
    for name in BUNDLE_FILES:
        os.remove(os.path.join(directory, name))
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return directory
