"""Self-contained model artifacts: save/load a ready-to-query predictor.

The paper's deployment split (Algorithm 1) is offline training vs online
estimation: at prediction time only M_O and M_E run.  An *artifact* is
everything the online side needs, bundled in one directory::

    <artifact>/
        manifest.json      schema version, dataset fingerprint, weights
                           checksum, model size
        config.json        the exact DeepODConfig the model was built with
        weights.npz        full state dict (parameters + buffers, incl.
                           target-normalisation stats and BatchNorm state)
        calibration.json   the predictor's conformal band quantiles

``load_artifact`` round-trips to a working :class:`TravelTimePredictor`
with bitwise-identical predictions and *no retraining and no
recalibration*: the dataset is regenerated from its recorded preset
parameters (synthetic data is deterministic), the model is rebuilt with
cheap random initialisation (pre-trained embeddings would be overwritten
anyway) and the saved state restored on top.

Validation is fail-closed: a missing file, checksum mismatch, schema
bump or dataset-fingerprint drift raises :class:`ArtifactError` — the
service layer catches that and degrades to the historical fallback
rather than serving a silently wrong model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.config import DeepODConfig
from ..core.predictor import TravelTimePredictor
from ..core.trainer import DeepODTrainer, build_deepod
from ..datagen.dataset import BuildInfo, TaxiDataset, dataset_fingerprint
from ..datagen.pipeline import DatasetSpec, build

SCHEMA_VERSION = 1

MANIFEST_FILE = "manifest.json"
CONFIG_FILE = "config.json"
WEIGHTS_FILE = "weights.npz"
CALIBRATION_FILE = "calibration.json"


class ArtifactError(Exception):
    """The artifact is missing, malformed, or fails validation."""


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_json(path: str) -> Dict:
    if not os.path.exists(path):
        raise ArtifactError(f"missing artifact file: {path}")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"unreadable artifact file {path}: {exc}")


# ---------------------------------------------------------------------------
def save_artifact(directory: str, predictor: TravelTimePredictor,
                  extra_manifest: Optional[Dict] = None) -> str:
    """Persist a predictor as a self-contained artifact directory.

    ``extra_manifest`` is recorded verbatim under the manifest's
    ``provenance`` key — the experiment pipeline uses it to stamp
    artifacts with the run id and config hash that produced them, so a
    deployed model is always traceable back to its registry entry.

    Returns the artifact directory path.
    """
    os.makedirs(directory, exist_ok=True)
    model = predictor.model
    dataset = predictor.dataset

    config_payload = dataclasses.asdict(model.config)
    _write_json(os.path.join(directory, CONFIG_FILE), config_payload)

    weights_path = os.path.join(directory, WEIGHTS_FILE)
    np.savez_compressed(weights_path, **model.state_dict())

    lo, hi = predictor.quantiles
    _write_json(os.path.join(directory, CALIBRATION_FILE), {
        "coverage": predictor.coverage,
        "lo_quantile": lo,
        "hi_quantile": hi,
    })

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "model": "DeepOD",
        "weights_sha256": _sha256_file(weights_path),
        "model_size_bytes": model.size_bytes(),
        "num_parameters": model.num_parameters(),
        "dataset": {
            "name": dataset.name,
            "fingerprint": dataset_fingerprint(dataset),
            "build_params": dataset.build_params.to_dict()
            if dataset.build_params is not None else None,
        },
    }
    if extra_manifest:
        manifest["provenance"] = dict(extra_manifest)
    _write_json(os.path.join(directory, MANIFEST_FILE), manifest)
    return directory


# ---------------------------------------------------------------------------
def read_manifest(directory: str) -> Dict:
    """Load and schema-check an artifact manifest."""
    manifest = _read_json(os.path.join(directory, MANIFEST_FILE))
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema {version!r} "
            f"(this build reads {SCHEMA_VERSION})")
    if manifest.get("model") != "DeepOD":
        raise ArtifactError(
            f"unsupported model type {manifest.get('model')!r}")
    return manifest


def validate_artifact(directory: str) -> Dict:
    """Structural + checksum validation; returns the manifest.

    Does not touch the dataset — full fingerprint validation happens in
    :func:`load_artifact` once the dataset is available.
    """
    if not os.path.isdir(directory):
        raise ArtifactError(f"artifact directory not found: {directory}")
    manifest = read_manifest(directory)
    weights_path = os.path.join(directory, WEIGHTS_FILE)
    if not os.path.exists(weights_path):
        raise ArtifactError(f"missing artifact file: {weights_path}")
    actual = _sha256_file(weights_path)
    expected = manifest.get("weights_sha256")
    if actual != expected:
        raise ArtifactError(
            f"weights checksum mismatch: manifest says {expected}, "
            f"file hashes to {actual}")
    # These must parse even though their contents are consumed later.
    _read_json(os.path.join(directory, CONFIG_FILE))
    _read_json(os.path.join(directory, CALIBRATION_FILE))
    return manifest


def _load_config(directory: str) -> DeepODConfig:
    payload = _read_json(os.path.join(directory, CONFIG_FILE))
    try:
        return DeepODConfig.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"invalid config.json: {exc}")


def _rebuild_dataset(manifest: Dict) -> TaxiDataset:
    info = manifest.get("dataset") or {}
    params = info.get("build_params")
    if not params:
        raise ArtifactError(
            "artifact records no dataset build parameters; pass the "
            "training dataset to load_artifact(dataset=...)")
    try:
        spec = DatasetSpec.from_build_info(BuildInfo.from_dict(params))
        return build(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"cannot regenerate dataset: {exc}")


def load_artifact(directory: str,
                  dataset: Optional[TaxiDataset] = None
                  ) -> TravelTimePredictor:
    """Restore a ready-to-query predictor from an artifact directory.

    ``dataset`` skips regeneration when the caller already holds the
    training dataset (tests, long-lived processes); it is fingerprint-
    checked either way.
    """
    manifest = validate_artifact(directory)
    config = _load_config(directory)

    if dataset is None:
        dataset = _rebuild_dataset(manifest)
    expected_fp = (manifest.get("dataset") or {}).get("fingerprint")
    actual_fp = dataset_fingerprint(dataset)
    if expected_fp != actual_fp:
        raise ArtifactError(
            f"dataset fingerprint mismatch: model was trained on "
            f"{expected_fp}, serving dataset is {actual_fp}")

    # Pre-trained embedding initialisation is pure wasted work here —
    # every weight is overwritten by the saved state — so build with the
    # 'onehot' (random-init) variant.  The artifact's config is attached
    # to the model unchanged afterwards.
    build_config = config.with_overrides(init_road_embedding="onehot",
                                         init_slot_embedding="onehot")
    model = build_deepod(dataset, build_config)
    model.config = config
    trainer = DeepODTrainer(model, dataset, eval_every=0)

    weights_path = os.path.join(directory, WEIGHTS_FILE)
    try:
        with np.load(weights_path) as data:
            state = {key: data[key] for key in data.files}
        model.load_state_dict(state)
    except (OSError, KeyError, ValueError) as exc:
        raise ArtifactError(f"cannot restore weights: {exc}")

    calibration = _read_json(os.path.join(directory, CALIBRATION_FILE))
    try:
        coverage = float(calibration["coverage"])
        quantiles: Tuple[float, float] = (
            float(calibration["lo_quantile"]),
            float(calibration["hi_quantile"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"invalid calibration.json: {exc}")
    return TravelTimePredictor(trainer, coverage=coverage,
                               quantiles=quantiles)
