"""DeepOD model assembly (paper Section 3, Figure 3).

Three modules: M_O (OD encoder -> code), M_T (Trajectory Encoder ->
stcode), M_E (estimator MLP2 -> travel time).  Training minimises

    loss = w * auxiliaryloss + (1 - w) * mainloss

where auxiliaryloss is the batch Euclidean distance between code and
stcode (binding each OD input to its affiliated trajectory) and mainloss is
the MAE between estimated and actual travel time.  At prediction time only
M_O and M_E run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.contracts import shaped
from ..nn import (
    Module, Tensor, TwoLayerMLP, euclidean_loss, euclidean_loss_fused,
    mae_loss, mae_loss_fused,
)
from ..trajectory.model import MatchedTrajectory, ODInput
from .config import DeepODConfig
from .embeddings import RoadSegmentEmbedding, TimeSlotEmbedding
from .external_encoder import ExternalFeaturesEncoder
from .interval_encoder import TimeIntervalEncoder
from .od_encoder import ODEncoder
from .trajectory_encoder import TrajectoryEncoder


@dataclass
class DeepODLosses:
    """The three loss terms of Algorithm 1 for one batch."""

    total: Tensor
    main: float
    auxiliary: float


class TravelTimeEstimatorHead(Module):
    """M_E: code -> scalar travel time (Eq. 20, MLP2)."""

    def __init__(self, config: DeepODConfig,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        self.mlp2 = TwoLayerMLP(config.d8_m, config.d9_m, 1, rng=rng)

    @shaped("(B, config.d8_m) -> (B, 1)")
    def forward(self, code: Tensor) -> Tensor:
        return self.mlp2(code)


class DeepOD(Module):
    """The full model: M_O + M_T + M_E with shared embeddings."""

    engine = "fast"

    def __init__(self, config: DeepODConfig,
                 road_embedding: RoadSegmentEmbedding,
                 slot_embedding: TimeSlotEmbedding,
                 external_encoder: Optional[ExternalFeaturesEncoder] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.road_embedding = road_embedding
        self.slot_embedding = slot_embedding
        self.interval_encoder = TimeIntervalEncoder(
            config, slot_embedding, rng=rng)
        if config.use_trajectory_encoder:
            self.trajectory_encoder: Optional[TrajectoryEncoder] = \
                TrajectoryEncoder(config, road_embedding,
                                  self.interval_encoder, rng=rng)
        else:
            self.trajectory_encoder = None
        if config.use_external_features and external_encoder is None:
            external_encoder = ExternalFeaturesEncoder(config, rng=rng)
        self.od_encoder = ODEncoder(config, road_embedding, slot_embedding,
                                    external_encoder if
                                    config.use_external_features else None,
                                    rng=rng)
        self.estimator = TravelTimeEstimatorHead(config, rng=rng)
        # Target normalisation statistics (set by the trainer).
        self.register_buffer("target_mean", np.array([0.0]))
        self.register_buffer("target_std", np.array([1.0]))

    # ------------------------------------------------------------------
    def set_target_stats(self, mean: float, std: float) -> None:
        if std <= 0:
            raise ValueError("target std must be positive")
        self.update_buffer("target_mean", np.array([float(mean)]))
        self.update_buffer("target_std", np.array([float(std)]))

    def _normalize(self, y: np.ndarray) -> np.ndarray:
        if not self.config.normalize_targets:
            return y
        return (y - self.target_mean[0]) / self.target_std[0]

    def _denormalize(self, y: np.ndarray) -> np.ndarray:
        if not self.config.normalize_targets:
            return y
        return y * self.target_std[0] + self.target_mean[0]

    # ------------------------------------------------------------------
    def encode_od(self, ods: Sequence[ODInput],
                  speed_matrices: Optional[np.ndarray] = None) -> Tensor:
        """M_O: code for a batch of OD inputs."""
        return self.od_encoder(ods, speed_matrices)

    def encode_trajectories(
            self, trajectories: Sequence[MatchedTrajectory]) -> Tensor:
        """M_T: stcode for a batch of trajectories."""
        if self.trajectory_encoder is None:
            raise RuntimeError(
                "trajectory encoder disabled (N-st variant)")
        return self.trajectory_encoder(trajectories)

    def training_losses(self, ods: Sequence[ODInput],
                        trajectories: Sequence[Optional[MatchedTrajectory]],
                        travel_times: np.ndarray,
                        speed_matrices: Optional[np.ndarray] = None
                        ) -> DeepODLosses:
        """Algorithm 1 lines 7-12 for one mini-batch."""
        fast = self.engine == "fast"
        code = self.encode_od(ods, speed_matrices)
        pred = self.estimator(code)
        targets = self._normalize(
            np.asarray(travel_times, dtype=float))[:, None]
        main = (mae_loss_fused if fast else mae_loss)(pred, Tensor(targets))

        w = self.config.aux_weight
        use_aux = (self.trajectory_encoder is not None and w > 0.0
                   and all(t is not None for t in trajectories))
        if use_aux:
            stcode = self.encode_trajectories(trajectories)
            aux = (euclidean_loss_fused if fast else euclidean_loss)(
                code, stcode) * self.config.aux_scale
            total = aux * w + main * (1.0 - w)
            aux_val = aux.item()
        else:
            total = main
            aux_val = 0.0
        return DeepODLosses(total=total, main=main.item(),
                            auxiliary=aux_val)

    def predict(self, ods: Sequence[ODInput],
                speed_matrices: Optional[np.ndarray] = None) -> np.ndarray:
        """Online estimation (Algorithm 1's Estimation function).

        Only M_O and M_E are used; returns travel times in seconds.
        """
        was_training = self.training
        self.eval()
        try:
            code = self.encode_od(ods, speed_matrices)
            pred = self.estimator(code)
        finally:
            self.train(was_training)
        out = self._denormalize(pred.data[:, 0])
        # Travel times are physically positive; clip tiny/negative outputs.
        return np.maximum(out, 1.0)
