"""``repro.atomic`` and the fault matrix over every durable writer.

Each writer first lays down a complete state, then writes again with a
fault injected into ``repro.atomic``:

* ``payload`` — the payload write fails part way: the temp file's first
  write lands half its bytes and raises.  Promotion copies a directory
  rather than writing a file, so its torn write goes through
  ``shutil.copyfile``; the ``current`` link's payload is the temp
  symlink itself.
* ``commit`` — the rename that publishes the write fails.  Renames of
  files inside a temp directory are part of the payload, not the
  commit, so they are let through.

Reopening with the writer's own reader must then show the previous
complete state (or, where ``replace_dir`` had already removed the old
directory, a fail-closed error), and no temp may remain anywhere.
"""

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro import atomic
from repro.analysis import LintCache
from repro.atomic import TMP_PREFIX, replace_dir, swap_symlink, write_json
from repro.core import (
    DeepODConfig, DeepODTrainer, TravelTimePredictor, build_deepod,
)
from repro.datagen import DatasetSpec, TaxiDataset, build, dataset_fingerprint
from repro.datagen.storage import read_meta, stamp_fingerprint
from repro.experiments import (
    CheckpointError, RegistryError, RunRegistry, deployed_artifact_path,
    load_checkpoint, promote, save_checkpoint,
)
from repro.nn import load_arrays, load_state, save_arrays, save_state
from repro.serving import ArtifactError, load_artifact, save_artifact

TINY_CFG = DeepODConfig(
    d_s=8, d_t=8, d1_m=16, d2_m=8, d3_m=16, d4_m=8, d5_m=16, d6_m=8,
    d7_m=16, d9_m=16, d_h=16, d_traf=8, batch_size=16, epochs=1,
    use_external_features=False, seed=0)
SPEC = DatasetSpec("mini-chengdu", num_trips=60, num_days=7)
FAIL_CLOSED = (ArtifactError, CheckpointError, RegistryError, ValueError,
               FileNotFoundError)


class InjectedFault(OSError):
    """The error every injected fault raises (an OSError, as a full disk
    or a failed rename would be)."""


# ---------------------------------------------------------------------------
# Unit behaviour of the helper.

class TestHelpers:
    def test_write_json_format(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(str(path), {"b": 1, "a": [1, 2]})
        assert path.read_text() == (
            '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n')

    def test_replace_dir_swaps_whole_directory(self, tmp_path):
        final = tmp_path / "snap"
        final.mkdir()
        (final / "old.txt").write_text("old")
        with replace_dir(str(final)) as tmp:
            Path(tmp, "new.txt").write_text("new")
            assert os.listdir(final) == ["old.txt"]
        assert os.listdir(final) == ["new.txt"]
        assert os.listdir(tmp_path) == ["snap"]

    def test_swap_symlink_creates_then_replaces(self, tmp_path):
        link = str(tmp_path / "current")
        swap_symlink(link, "v1")
        swap_symlink(link, "v2")
        assert os.readlink(link) == "v2"
        assert os.listdir(tmp_path) == ["current"]


# ---------------------------------------------------------------------------
# Fault injection.

class Fault:
    """Arms one injection point inside ``repro.atomic``."""

    def __init__(self, monkeypatch, point: str, commit_index: int,
                 symlink_payload: bool):
        self.fired = False
        overrides = {}
        if point == "commit":
            overrides["replace"] = self._failing_publish(commit_index)
        elif symlink_payload:
            overrides["symlink"] = self._raise
        else:
            monkeypatch.setattr(atomic, "open", self._torn_open,
                                raising=False)
            monkeypatch.setattr(shutil, "copyfile", self._torn_copyfile)
        if overrides:
            monkeypatch.setattr(atomic, "os", _OsProxy(overrides))

    def _raise(self, *args, **kwargs):
        self.fired = True
        raise InjectedFault("injected fault")

    def _failing_publish(self, nth: int) -> Callable:
        published = []

        def replace(src, dst):
            if not any(part.startswith(TMP_PREFIX)
                       for part in Path(dst).parts):
                published.append(dst)
                if len(published) == nth:
                    self._raise()
            os.replace(src, dst)
        return replace

    def _torn_open(self, path, mode, **kwargs):
        return _TornFile(open(path, mode, **kwargs), self)

    def _torn_copyfile(self, src, dst, **kwargs):
        with open(src, "rb") as source, open(dst, "wb") as target:
            data = source.read()
            target.write(data[:len(data) // 2])
        self._raise()


class _OsProxy:
    """``os`` with some functions overridden."""

    def __init__(self, overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(os, name)


class _TornFile:
    """A file whose first write lands half its bytes, then fails."""

    def __init__(self, handle, fault: Fault):
        self._handle = handle
        self._fault = fault

    def write(self, data):
        self._handle.write(data[:len(data) // 2])
        self._fault._raise()

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


# ---------------------------------------------------------------------------
# Writers under test.

@pytest.fixture(scope="module")
def world(tmp_path_factory):
    dataset = build(SPEC)
    fresh = DeepODTrainer(build_deepod(dataset, TINY_CFG), dataset,
                          eval_every=0)
    trained = DeepODTrainer(build_deepod(dataset, TINY_CFG), dataset,
                            eval_every=0)
    trained.fit(track_validation=False)
    disk_dir = str(tmp_path_factory.mktemp("disk") / "ds")
    build(DatasetSpec(SPEC.city, num_trips=SPEC.num_trips,
                      num_days=SPEC.num_days, chunk_size=32, storage="disk",
                      out_dir=disk_dir)).close()
    return {"dataset": dataset, "fresh": fresh, "trained": trained,
            "predictor": TravelTimePredictor(trained, coverage=0.8),
            "disk_dir": disk_dir}


def _state(module):
    return {k: v.copy() for k, v in module.state_dict().items()}


@dataclass
class Writer:
    """``prepare`` lays down the previous state and returns what the
    reader must see; ``write`` is the faulted write; ``read`` reopens."""

    name: str
    prepare: Callable
    write: Callable
    read: Callable
    # Only a replace_dir over an existing final may end with no state.
    may_fail_closed: bool = False
    commit_index: int = 1
    symlink_payload: bool = False


def _arrays_writer():
    def prepare(w, root):
        save_arrays(str(root / "a.npz"), {"x": np.zeros(3)})
        return {"x": np.zeros(3)}
    return Writer(
        "save_arrays", prepare,
        lambda w, root: save_arrays(str(root / "a.npz"), {"x": np.ones(3)}),
        lambda w, root: load_arrays(str(root / "a.npz")))


def _state_writer():
    def prepare(w, root):
        save_state(w["fresh"].model, str(root / "weights"))
        return _state(w["fresh"].model)

    def read(w, root):
        model = build_deepod(w["dataset"], TINY_CFG)
        load_state(model, str(root / "weights"))
        return _state(model)
    return Writer(
        "save_state", prepare,
        lambda w, root: save_state(w["trained"].model, str(root / "weights")),
        read)


def _checkpoint_writer():
    def prepare(w, root):
        save_checkpoint(w["fresh"], str(root / "ckpt"))
        return 0

    def read(w, root):
        trainer = DeepODTrainer(build_deepod(w["dataset"], TINY_CFG),
                                w["dataset"], eval_every=0)
        return load_checkpoint(trainer, str(root / "ckpt"))
    return Writer(
        "save_checkpoint", prepare,
        lambda w, root: save_checkpoint(w["trained"], str(root / "ckpt")),
        read)


def _new_run(root):
    return RunRegistry(str(root / "runs")).create_run(
        "mini-chengdu", TINY_CFG, 0)


def _the_run(root):
    return RunRegistry(str(root / "runs")).list_runs()[0]


def _record_writer():
    def prepare(w, root):
        _new_run(root).mark_completed({"test_mae": 3.0})
        return "completed"
    return Writer(
        "registry record", prepare,
        lambda w, root: _the_run(root).mark_failed("boom"),
        lambda w, root: _the_run(root).record.status)


def _report_writer():
    def prepare(w, root):
        _new_run(root).write_report({"test_mae": 3.0})
        return {"test_mae": 3.0}
    return Writer(
        "registry report", prepare,
        lambda w, root: _the_run(root).write_report({"test_mae": 4.0}),
        lambda w, root: _the_run(root).read_report())


def _promote_writer(name, **fault):
    def generation(w, root, run_id):
        return save_artifact(str(root / run_id), w["predictor"],
                             extra_manifest={"run_id": run_id})

    def prepare(w, root):
        decision = promote(generation(w, root, "gen-a"), str(root / "deploy"),
                           dataset=w["dataset"])
        assert decision.promoted
        generation(w, root, "gen-b")
        return "gen-a"

    def write(w, root):
        # The same model under a new name ties the incumbent: promoted.
        promote(str(root / "gen-b"), str(root / "deploy"),
                dataset=w["dataset"])

    def read(w, root):
        current = deployed_artifact_path(str(root / "deploy"))
        load_artifact(current, dataset=w["dataset"])
        return os.path.basename(current)
    return Writer(name, prepare, write, read, **fault)


def _artifact_writer():
    def prepare(w, root):
        save_artifact(str(root / "model"), w["predictor"],
                      extra_manifest={"run_id": "old"})
        return "old"

    def read(w, root):
        loaded = load_artifact(str(root / "model"), dataset=w["dataset"])
        assert loaded.model is not None
        with open(root / "model" / "manifest.json") as handle:
            return json.load(handle)["provenance"]["run_id"]
    return Writer(
        "save_artifact", prepare,
        lambda w, root: save_artifact(str(root / "model"), w["predictor"],
                                      extra_manifest={"run_id": "new"}),
        read, may_fail_closed=True)


def _copy_dataset_dir(w, root):
    shutil.copytree(w["disk_dir"], root / "ds")
    return read_meta(str(root / "ds"))["fingerprint"]


def _read_dataset_dir(w, root):
    fingerprint = read_meta(str(root / "ds"))["fingerprint"]
    with TaxiDataset.open(str(root / "ds")) as reopened:
        assert dataset_fingerprint(reopened) == fingerprint
    return fingerprint


def _stamp_writer():
    return Writer(
        "stamp_fingerprint", _copy_dataset_dir,
        lambda w, root: stamp_fingerprint(str(root / "ds"), "0" * 64),
        _read_dataset_dir)


def _dataset_dir_writer():
    def write(w, root):
        build(DatasetSpec(SPEC.city, num_trips=SPEC.num_trips - 20,
                          num_days=SPEC.num_days, chunk_size=32,
                          storage="disk", out_dir=str(root / "ds"))).close()
    return Writer("dataset dir build", _copy_dataset_dir, write,
                  _read_dataset_dir, may_fail_closed=True)


def _lint_cache_writer():
    def prepare(w, root):
        cache = LintCache(str(root / ".reprolint-cache.json"))
        cache.load("k1")
        cache.put("a.py", "s1", {"findings": []})
        assert cache.save()
        return {"findings": []}

    def write(w, root):
        cache = LintCache(str(root / ".reprolint-cache.json"))
        cache.load("k1")
        cache.put("a.py", "s2", {"findings": ["new"]})
        assert cache.save() is False  # best-effort: reports, never raises

    def read(w, root):
        cache = LintCache(str(root / ".reprolint-cache.json"))
        cache.load("k1")
        return cache.get("a.py", "s1")
    return Writer("LintCache.save", prepare, write, read)


WRITERS = [
    _arrays_writer(), _state_writer(), _checkpoint_writer(),
    _record_writer(), _report_writer(),
    _promote_writer("promote versions dir"),
    _promote_writer("promote current link", commit_index=2,
                    symlink_payload=True),
    _artifact_writer(), _stamp_writer(), _dataset_dir_writer(),
    _lint_cache_writer(),
]


def _same(a, b) -> bool:
    if isinstance(a, dict) and any(isinstance(v, np.ndarray)
                                   for v in a.values()):
        return a.keys() == b.keys() and all(
            np.array_equal(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("point", ["payload", "commit"])
@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.name)
def test_fault_leaves_previous_state_and_no_temp(writer, point, world,
                                                 tmp_path, monkeypatch):
    previous = writer.prepare(world, tmp_path)
    fault = Fault(monkeypatch, point, writer.commit_index,
                  writer.symlink_payload)
    try:
        writer.write(world, tmp_path)
    except OSError:  # the fault, or shutil.Error wrapping it in copytree
        pass
    monkeypatch.undo()
    assert fault.fired, "the injected fault never triggered"

    try:
        observed = writer.read(world, tmp_path)
    except FAIL_CLOSED:
        assert writer.may_fail_closed, "reader failed closed"
    else:
        assert _same(observed, previous)
    residue = [os.path.join(top, name)
               for top, dirs, files in os.walk(tmp_path)
               for name in dirs + files if name.startswith(TMP_PREFIX)]
    assert residue == []
