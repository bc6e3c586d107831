"""Self-contained model artifacts: save/load a ready-to-query predictor.

The paper's deployment split (Algorithm 1) is offline training vs online
estimation: at prediction time only M_O and M_E run, and they read the
road network, the speed matrices, the time slots and the weather — no
trip.  An *artifact* is everything the online side needs, in one
directory::

    <artifact>/
        manifest.json       schema version, weights checksum, model size,
                            the serving-state section, and the training
                            dataset's fingerprint and build parameters
                            (provenance)
        config.json         the exact DeepODConfig the model was built with
        weights.npz         full state dict (parameters + buffers, incl.
                            target-normalisation stats and BatchNorm state)
        calibration.json    the predictor's conformal band quantiles
        speed_matrices.npy  serving-state bundle: the (periods, rows, cols)
                            raw mean-speed stack, memory-mapped on load
        temp_records.npy    serving-state bundle: TEMP's fitted (N, 6)
                            trip table, the degraded tier's model

The manifest's ``serving_state`` section records the sha256 and size of
each bundle file, the speed grid with its normalisation scale, the
horizon and slot size, and digests of the network's edge arrays and of
the hourly weather categories.

``load_artifact`` round-trips to a working :class:`TravelTimePredictor`
with bitwise-identical answers and no retraining, no recalibration and
no trip in memory.  The network, weather and traffic processes are
regenerated from the city preset's seeds (as disk datasets do) and
must match the manifest digests; the model is rebuilt with cheap random
initialisation (every weight is overwritten) and the saved state
restored on top.  The trip side — ``predictor.dataset.split``,
``predictor.trainer`` — is the training dataset passed as
``load_artifact(dir, dataset=ds)``, or else regenerated from the
recorded build parameters on first read and fingerprint-checked.

Validation is fail-closed: a missing file, checksum mismatch, schema
bump, network or weather drift, or dataset-fingerprint drift raises
:class:`ArtifactError` — the service layer catches that and degrades to
the historical fallback rather than serving a silently wrong model.  A
schema-1 artifact (written before the bundle existed) fails closed too;
``python -m repro.cli artifact upgrade <dir>`` regenerates its dataset
once and writes the bundle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from typing import Dict, Optional, Tuple

import numpy as np

from ..atomic import atomic_file, replace_dir, write_json
from ..baselines.temp import TEMPEstimator
from ..core.config import DeepODConfig
from ..core.predictor import TravelTimePredictor
from ..core.trainer import build_deepod
from ..datagen.cities import PRESETS, preset_processes, preset_slot_config
from ..datagen.dataset import BuildInfo, TaxiDataset, dataset_fingerprint
from ..datagen.pipeline import DatasetSpec, build
from ..datagen.speed_matrix import SpeedGridConfig, SpeedMatrixStore
from ..datagen.weather import WeatherProcess
from ..nn.serialization import load_arrays, save_arrays
from .state import ServingDataset, fitted_temp

SCHEMA_VERSION = 2

MANIFEST_FILE = "manifest.json"
CONFIG_FILE = "config.json"
WEIGHTS_FILE = "weights.npz"
CALIBRATION_FILE = "calibration.json"
SPEED_FILE = "speed_matrices.npy"
TEMP_FILE = "temp_records.npy"
UPGRADE_COMMAND = "python -m repro.cli artifact upgrade"


class ArtifactError(Exception):
    """The artifact is missing, malformed, or fails validation."""


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_json(path: str) -> Dict:
    if not os.path.exists(path):
        raise ArtifactError(f"missing artifact file: {path}")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"unreadable artifact file {path}: {exc}")


def _array_digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def network_digest(net) -> str:
    """sha256 of the network's (starts, ends, lengths) edge arrays."""
    return _array_digest(*net.edge_arrays())


def weather_digest(weather: WeatherProcess) -> str:
    """sha256 of the weather process's hourly categories."""
    return _array_digest(weather.hourly_categories)


def _fingerprint(dataset) -> str:
    """A bundle-loaded dataset carries its training dataset's
    fingerprint; any other dataset is hashed."""
    if isinstance(dataset, ServingDataset):
        return dataset.fingerprint
    return dataset_fingerprint(dataset)


# ---------------------------------------------------------------------------
def _write_bundle(directory: str, dataset) -> Dict:
    """Write the serving-state files into ``directory``; returns the
    manifest's ``serving_state`` section."""
    store = dataset.speed_store
    temp = fitted_temp(dataset)
    files = {}
    for name, array in ((SPEED_FILE, store.matrices),
                        (TEMP_FILE, temp.records)):
        path = os.path.join(directory, name)
        with atomic_file(path, "wb") as handle:
            np.save(handle, np.asarray(array, dtype=np.float64))
        files[name] = {"sha256": _sha256_file(path),
                       "bytes": os.path.getsize(path)}
    slot = dataset.slot_config
    return {
        "files": files,
        "horizon_seconds": float(dataset.horizon_seconds),
        "slot": {"base_timestamp": float(slot.base_timestamp),
                 "slot_seconds": float(slot.slot_seconds)},
        "speed_grid": {
            "min_x": float(store.min_x), "min_y": float(store.min_y),
            "cell_metres": float(store.config.cell_metres),
            "period_seconds": float(store.config.period_seconds),
            "global_mean_speed": float(store.global_mean_speed)},
        "temp_slot_minutes": float(temp.slot_minutes),
        "network_sha256": network_digest(dataset.net),
        "weather_sha256": weather_digest(dataset.weather),
    }


def save_artifact(directory: str, predictor: TravelTimePredictor,
                  extra_manifest: Optional[Dict] = None) -> str:
    """Persist a predictor as a self-contained artifact directory.

    ``extra_manifest`` is recorded verbatim under the manifest's
    ``provenance`` key — the experiment pipeline uses it to stamp
    artifacts with the run id and config hash that produced them, so a
    deployed model is always traceable back to its registry entry.

    Written as one :func:`repro.atomic.replace_dir` snapshot; refuses
    (:class:`ArtifactError`) a non-empty directory with no manifest.

    Returns the artifact directory path.
    """
    if (os.path.isdir(directory) and os.listdir(directory)
            and not os.path.exists(os.path.join(directory, MANIFEST_FILE))):
        raise ArtifactError(
            f"{directory} is not an artifact; refusing to clobber")
    model = predictor.model
    dataset = predictor.dataset

    with replace_dir(directory) as tmp:
        serving_state = _write_bundle(tmp, dataset)
        config_payload = dataclasses.asdict(model.config)
        write_json(os.path.join(tmp, CONFIG_FILE), config_payload)

        weights_path = save_arrays(os.path.join(tmp, WEIGHTS_FILE),
                                   model.state_dict())

        lo, hi = predictor.quantiles
        write_json(os.path.join(tmp, CALIBRATION_FILE), {
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
            "serving_state": serving_state,
            "dataset": {
                "name": dataset.name,
                "fingerprint": _fingerprint(dataset),
                "build_params": dataset.build_params.to_dict()
                if dataset.build_params is not None else None,
            },
        }
        if extra_manifest:
            manifest["provenance"] = dict(extra_manifest)
        write_json(os.path.join(tmp, MANIFEST_FILE), manifest)
    return directory


# ---------------------------------------------------------------------------
def _read_any_manifest(directory: str) -> Dict:
    manifest = _read_json(os.path.join(directory, MANIFEST_FILE))
    if manifest.get("model") != "DeepOD":
        raise ArtifactError(
            f"unsupported model type {manifest.get('model')!r}")
    return manifest


def read_manifest(directory: str) -> Dict:
    """Load and schema-check an artifact manifest."""
    manifest = _read_any_manifest(directory)
    version = manifest.get("schema_version")
    if version == 1:
        raise ArtifactError(
            f"artifact schema 1 has no serving-state bundle; run "
            f"`{UPGRADE_COMMAND} {directory}` once to write it")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema {version!r} "
            f"(this build reads {SCHEMA_VERSION})")
    return manifest


def _check_file(directory: str, name: str, expected: object) -> None:
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise ArtifactError(f"missing artifact file: {path}")
    actual = _sha256_file(path)
    if actual != expected:
        raise ArtifactError(
            f"{name} checksum mismatch: manifest says {expected}, "
            f"file hashes to {actual}")


def _bundle_files(manifest: Dict) -> Dict[str, Dict]:
    files = (manifest.get("serving_state") or {}).get("files")
    if (not isinstance(files, dict) or set(files) != {SPEED_FILE, TEMP_FILE}
            or not all(isinstance(e, dict) for e in files.values())):
        raise ArtifactError(
            f"manifest serving_state must list {SPEED_FILE} and "
            f"{TEMP_FILE}")
    return files


def validate_artifact(directory: str) -> Dict:
    """Structural + checksum validation of every file; returns the
    manifest.

    Does not touch the dataset — the network and weather digests and the
    fingerprint are checked in :func:`load_artifact`.
    """
    if not os.path.isdir(directory):
        raise ArtifactError(f"artifact directory not found: {directory}")
    manifest = read_manifest(directory)
    _check_file(directory, WEIGHTS_FILE, manifest.get("weights_sha256"))
    for name, entry in _bundle_files(manifest).items():
        _check_file(directory, name, entry.get("sha256"))
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


def _load_calibration(directory: str) -> Tuple[float, Tuple[float, float]]:
    calibration = _read_json(os.path.join(directory, CALIBRATION_FILE))
    try:
        return (float(calibration["coverage"]),
                (float(calibration["lo_quantile"]),
                 float(calibration["hi_quantile"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"invalid calibration.json: {exc}")


def _check_fingerprint(manifest: Dict, dataset) -> None:
    expected = (manifest.get("dataset") or {}).get("fingerprint")
    actual = _fingerprint(dataset)
    if expected != actual:
        raise ArtifactError(
            f"dataset fingerprint mismatch: model was trained on "
            f"{expected}, serving dataset is {actual}")


def _build_info(manifest: Dict) -> BuildInfo:
    params = (manifest.get("dataset") or {}).get("build_params")
    if not params:
        raise ArtifactError(
            "artifact records no dataset build parameters; pass the "
            "training dataset to load_artifact(dataset=...)")
    try:
        return BuildInfo.from_dict(params)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"invalid dataset build parameters: {exc}")


def _regenerate(manifest: Dict) -> TaxiDataset:
    """Rebuild the training dataset from the recorded build parameters
    (synthetic data is deterministic) and fingerprint-check it."""
    try:
        dataset = build(DatasetSpec.from_build_info(_build_info(manifest)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"cannot regenerate dataset: {exc}")
    _check_fingerprint(manifest, dataset)
    return dataset


def _preset_processes(manifest: Dict, horizon: float):
    """The preset's network, weather, traffic and slot config,
    regenerated from its seeds as disk datasets do."""
    city = _build_info(manifest).city
    if city not in PRESETS:
        raise ArtifactError(f"artifact references unknown city {city!r}")
    preset = PRESETS[city]
    return (*preset_processes(preset, horizon), preset_slot_config(preset))


def _open_serving_state(directory: str, manifest: Dict,
                        dataset: Optional[TaxiDataset]) -> ServingDataset:
    """The bundle as a :class:`ServingDataset` (files already checksummed
    by :func:`validate_artifact`).  Its processes come from ``dataset``
    when given, else from the preset; either way they must match the
    manifest digests.  Its trip side is ``dataset``, else a regeneration
    on first read."""
    state = manifest["serving_state"]
    info = manifest.get("dataset") or {}
    try:
        build_params = (_build_info(manifest)
                        if info.get("build_params") else None)
        horizon = float(state["horizon_seconds"])
        slot = (float(state["slot"]["base_timestamp"]),
                float(state["slot"]["slot_seconds"]))
        grid = state["speed_grid"]
        grid_config = SpeedGridConfig(
            cell_metres=float(grid["cell_metres"]),
            period_seconds=float(grid["period_seconds"]))
        origin = (float(grid["min_x"]), float(grid["min_y"]))
        global_mean_speed = float(grid["global_mean_speed"])
        temp = TEMPEstimator(
            slot_minutes=float(state["temp_slot_minutes"])).fit_records(
                np.load(os.path.join(directory, TEMP_FILE)))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ArtifactError(f"invalid serving state: {exc}")

    if dataset is not None:
        net, weather, traffic, slot_config = (
            dataset.net, dataset.weather, dataset.traffic,
            dataset.slot_config)
    else:
        net, weather, traffic, slot_config = _preset_processes(
            manifest, horizon)
    if (slot_config.base_timestamp, slot_config.slot_seconds) != slot:
        raise ArtifactError(
            f"time-slot mismatch: the artifact was saved with (t0, slot "
            f"seconds) {slot}, the serving slots are "
            f"{(slot_config.base_timestamp, slot_config.slot_seconds)}")
    for what, actual, key in (
            ("road network", network_digest(net), "network_sha256"),
            ("weather series", weather_digest(weather), "weather_sha256")):
        if actual != state.get(key):
            raise ArtifactError(
                f"{what} digest mismatch: the artifact was saved with "
                f"{state.get(key)}, the serving {what} hashes to {actual}")

    try:
        matrices = np.load(os.path.join(directory, SPEED_FILE),
                           mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"invalid serving state: {exc}")
    if matrices.ndim != 3:
        matrices._mmap.close()
        raise ArtifactError(f"{SPEED_FILE} must be (periods, rows, cols), "
                            f"got shape {matrices.shape}")
    speed_store = SpeedMatrixStore.from_arrays(
        matrices, min_x=origin[0], min_y=origin[1], config=grid_config,
        global_mean_speed=global_mean_speed)
    return ServingDataset(
        name=str(info.get("name")), net=net, slot_config=slot_config,
        weather=weather, traffic=traffic, speed_store=speed_store,
        horizon_seconds=horizon, build_params=build_params,
        fingerprint=info.get("fingerprint"), temp=temp,
        trip_side=((lambda: dataset) if dataset is not None
                   else (lambda: _regenerate(manifest))))


def load_artifact(directory: str,
                  dataset: Optional[TaxiDataset] = None
                  ) -> TravelTimePredictor:
    """Restore a ready-to-query predictor from an artifact directory.

    The serving state always comes from the bundle.  ``dataset`` is the
    training dataset when the caller holds it (tests, promotion, long-
    lived processes): it is fingerprint-checked now and becomes the
    predictor's trip side, so reading ``predictor.dataset.split`` or
    ``predictor.trainer`` regenerates nothing.  Release the bundle's
    memory map with ``predictor.dataset.close()``.
    """
    manifest = validate_artifact(directory)
    config = _load_config(directory)
    coverage, quantiles = _load_calibration(directory)
    if dataset is not None:
        _check_fingerprint(manifest, dataset)
    state = _open_serving_state(directory, manifest, dataset)
    try:
        # Pre-trained embedding initialisation is pure wasted work here
        # — every weight is overwritten by the saved state — so build
        # with the 'onehot' (random-init) variant.  The artifact's
        # config is attached to the model unchanged afterwards.
        build_config = config.with_overrides(init_road_embedding="onehot",
                                             init_slot_embedding="onehot")
        model = build_deepod(state, build_config)
        model.config = config
        try:
            model.load_state_dict(
                load_arrays(os.path.join(directory, WEIGHTS_FILE)))
        except (OSError, KeyError, ValueError) as exc:
            raise ArtifactError(f"cannot restore weights: {exc}")
    except BaseException:
        state.close()
        raise
    return TravelTimePredictor.from_model(model, state, quantiles,
                                          coverage=coverage)


# ---------------------------------------------------------------------------
def upgrade_artifact(directory: str) -> bool:
    """Give a schema-1 artifact its serving-state bundle, in place.

    Regenerates the training dataset once from the recorded build
    parameters and fingerprint-checks it.  The weights, config and
    calibration files are copied byte for byte and the manifest keeps
    every schema-1 entry.  Written as one :func:`repro.atomic.replace_dir`
    snapshot.  Returns ``False``, writing nothing, when the artifact is
    already current (after validating it).
    """
    directory = os.path.realpath(directory)
    if not os.path.isdir(directory):
        raise ArtifactError(f"artifact directory not found: {directory}")
    manifest = _read_any_manifest(directory)
    version = manifest.get("schema_version")
    if version == SCHEMA_VERSION:
        validate_artifact(directory)
        return False
    if version != 1:
        raise ArtifactError(
            f"unsupported artifact schema {version!r} "
            f"(this build upgrades 1 to {SCHEMA_VERSION})")
    _check_file(directory, WEIGHTS_FILE, manifest.get("weights_sha256"))
    _load_config(directory)
    _load_calibration(directory)
    dataset = _regenerate(manifest)
    with replace_dir(directory) as tmp:
        for name in (CONFIG_FILE, WEIGHTS_FILE, CALIBRATION_FILE):
            shutil.copyfile(os.path.join(directory, name),
                            os.path.join(tmp, name))
        write_json(os.path.join(tmp, MANIFEST_FILE), dict(
            manifest, schema_version=SCHEMA_VERSION,
            serving_state=_write_bundle(tmp, dataset)))
    return True
