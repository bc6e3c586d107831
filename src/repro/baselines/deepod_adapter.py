"""Adapter presenting DeepOD (and its variants) through the shared
:class:`TravelTimeEstimator` interface so the comparison harness treats all
methods uniformly."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.config import DeepODConfig
from ..core.inference import InferencePlan
from ..core.trainer import DeepODTrainer, TrainingHistory, build_deepod
from ..datagen.dataset import TaxiDataset
from ..trajectory.model import TripRecord
from .base import TravelTimeEstimator


class DeepODEstimator(TravelTimeEstimator):
    """DeepOD wrapped as a TravelTimeEstimator."""

    name = "DeepOD"

    def __init__(self, config: Optional[DeepODConfig] = None,
                 name: Optional[str] = None,
                 eval_every: int = 50):
        self.config = config or DeepODConfig()
        if name is not None:
            self.name = name
        self.eval_every = eval_every
        self.trainer: Optional[DeepODTrainer] = None
        self.history: Optional[TrainingHistory] = None
        self.plan: Optional[InferencePlan] = None

    def fit(self, dataset: TaxiDataset) -> "DeepODEstimator":
        model = build_deepod(dataset, self.config)
        self.trainer = DeepODTrainer(model, dataset,
                                     eval_every=self.eval_every)
        self.history = self.trainer.fit(
            track_validation=self.eval_every > 0)
        self.plan = InferencePlan.compile(model)
        return self

    def predict(self, trips: Sequence[TripRecord]) -> np.ndarray:
        """Estimates from the compiled plan, the path serving runs, in
        chunks of the trainer's evaluation batch."""
        if self.plan is None:
            raise RuntimeError("fit() must be called before predict()")
        trips = list(trips)
        step = self.trainer.max_eval_batch
        chunks = [trips[lo:lo + step] for lo in range(0, len(trips), step)]
        return np.concatenate([
            self.plan.predict([t.od for t in chunk],
                              self.trainer.speed_matrices(chunk))
            for chunk in chunks])

    def model_size_bytes(self) -> int:
        if self.trainer is None:
            return 0
        return self.trainer.model.size_bytes()
