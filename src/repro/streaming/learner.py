"""Continuous learning: fine-tune the deployed model on the drifted
regime, behind the promotion gate.

When the drift detector fires, :class:`ContinuousLearner` takes the
*deployed* artifact (the incumbent is the checkpoint fine-tuning starts
from), trains it for a few epochs on the recent trip window, recalibrates
its confidence bands, and hands the candidate to
:func:`repro.experiments.promote.promote` — evaluated against the
incumbent on the *same rolling held-out window*, i.e. on the traffic
regime actually being served.  Only a promoted candidate ever reaches
workers, via the deployment directory's ``current`` symlink hot swap.

Fingerprint discipline: the fine-tune itself runs against a *view* of
the dataset whose splits are the recent window (so target normalisation
re-anchors to the shifted regime and calibration uses recent trips),
but the saved artifact is bound to the ORIGINAL dataset: its manifest
fingerprint and its serving-state bundle (speed matrices, TEMP table)
are the original's, so workers reloading it from the bundle see the
fingerprint they already serve and accept the swap.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Sequence

from ..core.predictor import TravelTimePredictor
from ..core.trainer import DeepODTrainer
from ..datagen.dataset import DatasetSplit, TaxiDataset
from ..experiments.checkpoint import (latest_checkpoint,
                                      load_checkpoint, save_checkpoint)
from ..experiments.promote import (
    PromotionDecision, deployed_artifact_path, promote,
)
from ..obs.instrument import Instrumented
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.tracing import Tracer
from ..serving.artifact import load_artifact, save_artifact
from ..trajectory.model import TripRecord


class ContinuousLearner(Instrumented):
    """Fine-tune-and-promote pipeline bound to one deployment root.

    Parameters
    ----------
    dataset:
        The original training dataset (artifact fingerprints are minted
        against it; fine-tune views are derived from it).
    deploy_root:
        The promotion gate's deployment directory; the ``current``
        symlink names both the fine-tune starting point and the swap
        target.
    workdir:
        Where candidate artifacts (and optional fine-tune checkpoints)
        are written before promotion.
    fine_tune_epochs / min_improvement:
        Epochs over the recent window per fine-tune, and the promotion
        gate's required relative improvement.
    checkpoint_every:
        When > 0, the fine-tune loop writes resumable training
        checkpoints into ``<workdir>/<tag>/ckpt`` every that-many steps
        and resumes from the latest one if the previous attempt for the
        same tag died mid-run.
    """

    def __init__(self, dataset: TaxiDataset, deploy_root: str,
                 workdir: str, coverage: float = 0.8,
                 fine_tune_epochs: int = 1,
                 min_improvement: float = 0.0,
                 checkpoint_every: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        if fine_tune_epochs < 1:
            raise ValueError("fine_tune_epochs must be >= 1")
        self.dataset = dataset
        self.deploy_root = deploy_root
        self.workdir = workdir
        self.coverage = coverage
        self.fine_tune_epochs = fine_tune_epochs
        self.min_improvement = min_improvement
        self.checkpoint_every = checkpoint_every
        self.metrics = metrics if metrics is not None else global_registry()
        self.tracer = tracer

    # ------------------------------------------------------------------
    def _view(self, train: Sequence[TripRecord],
              holdout: Sequence[TripRecord]) -> TaxiDataset:
        """The original dataset with its splits replaced by the recent
        window — everything else (network, speed store, weather, slot
        config) is shared, so no copies of the heavy state are made."""
        return dataclasses.replace(
            self.dataset,
            split=DatasetSplit(train=list(train),
                               validation=list(holdout),
                               test=list(holdout)))

    def fine_tune_and_promote(self, train: Sequence[TripRecord],
                              holdout: Sequence[TripRecord],
                              tag: str) -> PromotionDecision:
        """One continuous-learning round; returns the gate's decision.

        ``train`` / ``holdout`` are the recent completed trips (holdout
        never trains — it is the evaluation window ``promote`` judges
        BOTH candidate and incumbent on).  ``tag`` names the candidate
        directory and its provenance entry.
        """
        incumbent_path = deployed_artifact_path(self.deploy_root)
        if incumbent_path is None:
            raise ValueError(
                "no deployed incumbent to fine-tune from "
                f"(deploy root: {self.deploy_root})")
        if not train or not holdout:
            raise ValueError("fine-tune needs non-empty train and holdout")
        self.metrics.counter("stream.finetune.runs").inc()

        with self.tracer.span("stream.finetune", tag=tag,
                              train=len(train), holdout=len(holdout)):
            # A fresh copy of the deployed weights — fine-tuning must
            # not mutate any live predictor sharing the incumbent model.
            start = load_artifact(incumbent_path, dataset=self.dataset)
            model = start.model
            start.dataset.close()

            view = self._view(train, holdout)
            trainer = DeepODTrainer(model, view, eval_every=0,
                                    tracer=self.tracer,
                                    metrics=self.metrics)
            ckpt_dir = None
            if self.checkpoint_every > 0:
                ckpt_dir = os.path.join(self.workdir, tag, "ckpt")
                os.makedirs(ckpt_dir, exist_ok=True)
                resume = latest_checkpoint(ckpt_dir)
                if resume is not None:
                    load_checkpoint(trainer, resume)
            trainer.fit(epochs=self.fine_tune_epochs,
                        track_validation=False,
                        checkpoint_every=self.checkpoint_every,
                        checkpoint_dir=ckpt_dir,
                        checkpoint_fn=save_checkpoint)

            # Calibrate bands on the recent holdout (the view's
            # validation split), then rebind the artifact trainer to the
            # ORIGINAL dataset so the saved fingerprint stays valid.
            calibrated = TravelTimePredictor(trainer, self.coverage)
            quantiles = calibrated.quantiles
            tuned_state = model.state_dict()
            artifact_trainer = DeepODTrainer(model, self.dataset,
                                             eval_every=0,
                                             metrics=self.metrics)
            # Rebinding recomputed target stats from the original train
            # split; the fine-tuned model's own stats must win.
            model.load_state_dict(tuned_state)
            candidate = TravelTimePredictor(artifact_trainer, self.coverage,
                                            quantiles=quantiles)
            candidate_dir = os.path.join(self.workdir, tag, "artifact")
            save_artifact(candidate_dir, candidate, extra_manifest={
                "fine_tuned_from": os.path.basename(incumbent_path),
                "fine_tune_tag": tag,
                "fine_tune_trips": len(train),
            })

            decision = promote(candidate_dir, self.deploy_root,
                               dataset=self.dataset,
                               min_improvement=self.min_improvement,
                               eval_trips=list(holdout))
        if decision.promoted:
            self.metrics.counter("stream.finetune.promotions").inc()
        else:
            self.metrics.counter("stream.finetune.rejections").inc()
        return decision
