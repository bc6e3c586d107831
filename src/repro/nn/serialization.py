"""Saving, loading and sizing models.

Table 5 of the paper compares methods by ``model size(Byte)``, i.e. the
memory footprint required to apply a trained model.  For neural models that
is the parameter (+ buffer) byte count; :func:`state_dict_bytes` computes it
from a saved state.  Models are persisted as ``.npz`` archives so no pickle
security surface is introduced.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from ..atomic import atomic_file
from .modules import Module


def save_state(module: Module, path: str) -> str:
    """Serialise ``module.state_dict()`` into a compressed ``.npz`` file.

    Returns the path actually written: ``.npz`` is appended when the
    given path lacks the suffix, so callers that echo the filename must
    use the return value, not their argument.
    """
    return save_arrays(path, module.state_dict())


def load_state(module: Module, path: str) -> None:
    """Restore a module from :func:`save_state` output."""
    module.load_state_dict(load_arrays(path))


def save_arrays(path: str, arrays: Dict[str, np.ndarray]) -> str:
    """Persist an arbitrary named-array bundle as an ``.npz`` archive.

    Unlike :func:`save_state` this is not tied to a Module — training
    checkpoints use it to store optimiser moments and shuffle state next
    to the model weights.  The write is atomic (:mod:`repro.atomic`) so a
    crash mid-save never leaves a truncated archive behind.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with atomic_file(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def load_arrays(path: str) -> Dict[str, np.ndarray]:
    """Load a :func:`save_arrays` bundle back into a dict."""
    with np.load(path if path.endswith(".npz") else path + ".npz") as data:
        return {key: data[key] for key in data.files}


def state_dict_bytes(state: Dict[str, np.ndarray],
                     bytes_per_element: int = 4) -> int:
    """Size in bytes of a state dict at the given storage precision."""
    return sum(bytes_per_element * np.asarray(v).size for v in state.values())


def parameter_count(module: Module) -> int:
    return module.num_parameters()
