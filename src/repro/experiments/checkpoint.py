"""Training checkpoints: crash-safe snapshots of a DeepODTrainer.

A checkpoint captures *everything* the training loop reads — model
parameters and buffers, Adam moments and step count, the LR scheduler's
epoch, the shuffle RNG's bit-generator state, the in-flight epoch
permutation and cursor, and the metric history — so a resumed run
continues the exact trajectory of an uninterrupted one, bitwise.

Layout (one directory per snapshot, atomically renamed into place)::

    <checkpoint_dir>/
        step-0000000120/
            arrays.npz     model state + optimiser moments + epoch order
            meta.json      counters, RNG state, scheduler state, history

``save_checkpoint`` keeps the newest ``keep`` snapshots and prunes the
rest; ``load_checkpoint`` accepts either a specific ``step-*`` directory
or the parent directory (then the latest snapshot is used).
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import Dict, List, Optional

import numpy as np

from ..atomic import replace_dir, write_json
from ..nn.serialization import load_arrays, save_arrays

ARRAYS_FILE = "arrays.npz"
META_FILE = "meta.json"

_STEP_DIR = re.compile(r"^step-(\d{10})$")


class CheckpointError(Exception):
    """The checkpoint is missing, malformed, or fails validation."""


def _step_dir_name(step: int) -> str:
    return f"step-{step:010d}"


def list_checkpoints(directory: str) -> List[str]:
    """All snapshot directories under ``directory``, oldest first."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _STEP_DIR.match(name)
        if match and os.path.isdir(os.path.join(directory, name)):
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    return [path for _, path in sorted(found)]


def latest_checkpoint(directory: str) -> Optional[str]:
    """The newest snapshot directory, or ``None`` when there is none."""
    snapshots = list_checkpoints(directory)
    return snapshots[-1] if snapshots else None


# ---------------------------------------------------------------------------
def save_checkpoint(trainer, directory: str, keep: int = 3) -> str:
    """Snapshot ``trainer`` into ``directory``; returns the snapshot path.

    The snapshot is assembled by :func:`repro.atomic.replace_dir`, so a
    crash mid-save can never leave a half-written snapshot that a later
    resume would trust.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    state = trainer.state_dict()
    final = os.path.join(directory, _step_dir_name(int(state["step"])))
    with replace_dir(final) as tmp:
        arrays: Dict[str, np.ndarray] = {
            "model::" + name: value
            for name, value in state["model"].items()
        }
        opt = state["optimizer"]
        for slot, (m, v) in enumerate(zip(opt["m"], opt["v"])):
            arrays[f"adam_m::{slot}"] = m
            arrays[f"adam_v::{slot}"] = v
        if state["order"] is not None:
            arrays["order"] = np.asarray(state["order"], dtype=np.int64)
        save_arrays(os.path.join(tmp, ARRAYS_FILE), arrays)

        meta = {
            "step": int(state["step"]),
            "epoch": int(state["epoch"]),
            "cursor": int(state["cursor"]),
            "has_order": state["order"] is not None,
            "num_moment_slots": len(opt["m"]),
            "adam_t": int(opt["t"]),
            "adam_lr": float(opt["lr"]),
            "scheduler": state["scheduler"],
            "rng": state["rng"],
            "history": state["history"],
        }
        write_json(os.path.join(tmp, META_FILE), meta)

    for stale in list_checkpoints(directory)[:-keep]:
        shutil.rmtree(stale)
    return final


# ---------------------------------------------------------------------------
def read_checkpoint(path: str) -> Dict[str, object]:
    """Read a snapshot directory back into a trainer state dict."""
    if not os.path.isdir(path):
        raise CheckpointError(f"checkpoint directory not found: {path}")
    meta_path = os.path.join(path, META_FILE)
    if not os.path.exists(meta_path):
        raise CheckpointError(f"missing checkpoint file: {meta_path}")
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint meta: {exc}")
    try:
        arrays = load_arrays(os.path.join(path, ARRAYS_FILE))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint arrays: {exc}")

    try:
        model = {name[len("model::"):]: value
                 for name, value in arrays.items()
                 if name.startswith("model::")}
        slots = int(meta["num_moment_slots"])
        optimizer = {
            "t": int(meta["adam_t"]),
            "lr": float(meta["adam_lr"]),
            "m": [arrays[f"adam_m::{slot}"] for slot in range(slots)],
            "v": [arrays[f"adam_v::{slot}"] for slot in range(slots)],
        }
        return {
            "step": int(meta["step"]),
            "epoch": int(meta["epoch"]),
            "cursor": int(meta["cursor"]),
            "order": arrays["order"] if meta["has_order"] else None,
            "rng": meta["rng"],
            "model": model,
            "optimizer": optimizer,
            "scheduler": meta["scheduler"],
            "history": meta["history"],
        }
    except KeyError as exc:
        raise CheckpointError(f"checkpoint missing field: {exc}")


def load_checkpoint(trainer, path: str) -> int:
    """Restore ``trainer`` from ``path``; returns the restored step.

    ``path`` may be a specific ``step-*`` snapshot or a checkpoint
    directory holding several (the newest is used).
    """
    if os.path.isdir(path) and not _STEP_DIR.match(os.path.basename(path)):
        newest = latest_checkpoint(path)
        if newest is None:
            raise CheckpointError(f"no checkpoints under {path}")
        path = newest
    state = read_checkpoint(path)
    try:
        trainer.load_state_dict(state)
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint does not fit this trainer "
            f"(model/config mismatch?): {exc}")
    return int(state["step"])
