"""Promotion gate: the offline → online handover, with a quality bar.

A deployment directory holds every artifact version ever promoted plus
a ``current`` symlink the serving layer loads::

    <deploy_root>/
        current -> versions/<name>      (atomic symlink swap)
        versions/<name>/                full artifact copies

``promote`` evaluates the candidate against the currently-deployed
artifact on the *same* held-out test split (the candidate's recorded
dataset) and either installs it — copy, fsync-free but atomic rename,
symlink swap — or refuses with machine-readable reasons.  A worse
candidate can never silently replace a better incumbent, which closes
the continuous train → sweep → promote → serve loop safely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..atomic import replace_dir, swap_symlink
from ..datagen.dataset import TaxiDataset, strip_trajectories
from ..eval.metrics import mae
from ..serving.artifact import ArtifactError, load_artifact, read_manifest

CURRENT_LINK = "current"
VERSIONS_DIR = "versions"


class PromotionError(Exception):
    """The deployment directory is unusable (not a refusal)."""


@dataclass
class PromotionDecision:
    """Outcome of one promotion attempt."""

    promoted: bool
    candidate_dir: str
    candidate_mae: float = float("nan")
    incumbent_mae: Optional[float] = None
    deployed_path: str = ""
    version: str = ""
    reasons: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
def deployed_artifact_path(deploy_root: str) -> Optional[str]:
    """The artifact directory ``current`` points at, or None."""
    link = os.path.join(deploy_root, CURRENT_LINK)
    if not os.path.exists(link):
        return None
    return os.path.realpath(link)


def heldout_mae(predictor, dataset: TaxiDataset,
                eval_trips: Optional[Sequence] = None) -> float:
    """Held-out error of a loaded predictor: MAE over the test split,
    with trajectories stripped (the online protocol — only OD inputs).

    ``eval_trips`` overrides the evaluation window — the streaming
    continuous-learning loop passes its rolling held-out trips so a
    fine-tuned candidate and the incumbent are both judged on the
    traffic regime actually being served, not the frozen test split.
    """
    test = strip_trajectories(dataset.split.test if eval_trips is None
                              else eval_trips)
    if not test:
        raise PromotionError("dataset has no held-out test trips")
    preds = predictor.trainer.predict(test)
    actual = np.array([t.travel_time for t in test])
    return mae(actual, preds)


def _version_name(candidate_dir: str) -> str:
    """Stable version label: the run id when recorded, else a content
    hash of the manifest."""
    try:
        manifest = read_manifest(candidate_dir)
    except ArtifactError:
        manifest = {}
    provenance = manifest.get("provenance") or {}
    run_id = provenance.get("run_id")
    if run_id:
        return str(run_id)
    blob = repr(sorted(manifest.items())).encode()
    return "candidate-" + hashlib.sha256(blob).hexdigest()[:10]


def _install(candidate_dir: str, deploy_root: str, version: str) -> str:
    """Copy the candidate into versions/ and atomically swap ``current``."""
    link = os.path.join(deploy_root, CURRENT_LINK)
    if os.path.exists(link) and not os.path.islink(link):
        raise PromotionError(
            f"{link} exists and is not a symlink; refusing to clobber")
    final = os.path.join(deploy_root, VERSIONS_DIR, version)
    with replace_dir(final) as tmp:
        shutil.copytree(candidate_dir, tmp, dirs_exist_ok=True)
    swap_symlink(link, os.path.join(VERSIONS_DIR, version))
    return final


# ---------------------------------------------------------------------------
def promote(candidate_dir: str, deploy_root: str,
            dataset: Optional[TaxiDataset] = None,
            min_improvement: float = 0.0,
            eval_trips: Optional[Sequence] = None) -> PromotionDecision:
    """Gate and (maybe) deploy a candidate artifact.

    The candidate must load cleanly; its held-out MAE must beat (or tie,
    under ``min_improvement = 0``) the incumbent's on the same data.
    ``dataset`` skips regeneration when the caller already holds the
    evaluation dataset.  ``eval_trips`` swaps the evaluation window (see
    :func:`heldout_mae`) — candidate and incumbent are always compared
    on the *same* trips, whichever window is chosen.  Refusals return
    ``promoted=False`` with the reasons; only a broken deployment
    *directory* raises.
    """
    decision = PromotionDecision(promoted=False,
                                 candidate_dir=candidate_dir)
    # Both predictors' bundle maps are released once the decision is
    # made, on every path; the install below copies files only.
    with ExitStack() as loaded:
        try:
            candidate = load_artifact(candidate_dir, dataset=dataset)
        except ArtifactError as exc:
            decision.reasons.append(f"candidate artifact invalid: {exc}")
            return decision
        loaded.callback(candidate.dataset.close)
        dataset = candidate.dataset
        decision.candidate_mae = heldout_mae(candidate, dataset,
                                             eval_trips=eval_trips)

        incumbent_path = deployed_artifact_path(deploy_root)
        if incumbent_path is not None:
            try:
                incumbent = load_artifact(incumbent_path, dataset=dataset)
                loaded.callback(incumbent.dataset.close)
                decision.incumbent_mae = heldout_mae(incumbent, dataset,
                                                     eval_trips=eval_trips)
            except ArtifactError as exc:
                # An unloadable or non-comparable incumbent cannot defend
                # its slot, but the replacement is recorded as such.
                decision.reasons.append(
                    f"incumbent not comparable ({exc}); replacing it")

        if decision.incumbent_mae is not None:
            bar = decision.incumbent_mae * (1.0 - min_improvement)
            if decision.candidate_mae > bar:
                decision.reasons.append(
                    f"incumbent held-out MAE {decision.incumbent_mae:.3f}s "
                    f"beats candidate {decision.candidate_mae:.3f}s "
                    f"(required <= {bar:.3f}s)")
                return decision
            decision.reasons.append(
                f"candidate held-out MAE {decision.candidate_mae:.3f}s "
                f"improves on incumbent {decision.incumbent_mae:.3f}s")
        elif not decision.reasons:
            decision.reasons.append("no incumbent deployed; promoting")

    version = _version_name(candidate_dir)
    decision.deployed_path = _install(candidate_dir, deploy_root, version)
    decision.version = version
    decision.promoted = True
    return decision
