"""The paper's primary contribution: the DeepOD model (Figure 3), its
encoders (Sections 4.1-4.6), the training algorithm (Algorithm 1) and the
ablation variants evaluated in Section 6."""

from .config import DeepODConfig, paper_scale
from .embeddings import RoadSegmentEmbedding, TimeSlotEmbedding
from .interval_encoder import TimeIntervalEncoder
from .trajectory_encoder import TrajectoryEncoder
from .external_encoder import ExternalFeaturesEncoder, TrafficConditionCNN
from .od_encoder import ODEncoder
from .model import DeepOD, DeepODLosses, TravelTimeEstimatorHead
from .trainer import DeepODTrainer, TrainingHistory, build_deepod
from .inference import InferencePlan
from .predictor import Estimate, Query, TravelTimePredictor
from .variants import (
    VARIANT_NAMES, all_ablation_configs, all_embedding_variant_configs,
    variant_config,
)

__all__ = [
    "DeepODConfig", "paper_scale",
    "RoadSegmentEmbedding", "TimeSlotEmbedding",
    "TimeIntervalEncoder", "TrajectoryEncoder",
    "ExternalFeaturesEncoder", "TrafficConditionCNN",
    "ODEncoder",
    "DeepOD", "DeepODLosses", "TravelTimeEstimatorHead",
    "DeepODTrainer", "TrainingHistory", "build_deepod",
    "InferencePlan", "Estimate", "Query", "TravelTimePredictor",
    "VARIANT_NAMES", "all_ablation_configs",
    "all_embedding_variant_configs", "variant_config",
]
