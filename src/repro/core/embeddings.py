"""Road-segment and time-slot embedding modules (Sections 4.1-4.2).

Both are Embedding layers whose weight matrices Ws / Wt are initialised by
an unsupervised graph embedding over, respectively, the line graph of the
road network (weights = trajectory co-occurrence counts, Figure 4) and the
weekly temporal graph (Figure 5b), then fine-tuned by supervised training
(Algorithm 1 lines 1-4).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..embedding import EmbeddingConfig, embed_graph
from ..nn import Embedding
from ..obs.tracing import NULL_TRACER, Tracer
from ..roadnet.graph import RoadNetwork
from ..roadnet.linegraph import build_line_graph
from ..temporal.temporal_graph import embed_temporal_graph
from ..temporal.timeslot import TimeSlotConfig

PRETRAINED_TARGET_STD = 0.1


def rescale_pretrained(matrix: np.ndarray,
                       target_std: float = PRETRAINED_TARGET_STD
                       ) -> np.ndarray:
    """Rescale a pretrained embedding matrix to a training-friendly scale.

    Graph-embedding outputs carry arbitrary magnitudes (node2vec rows can
    have std ~0.6 where the supervised layers expect ~0.1); feeding them
    in raw destabilises the downstream MLPs.  Uniform rescaling preserves
    all relative geometry — the only property the initialisation is meant
    to contribute.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    std = centered.std()
    if std < 1e-12:
        return centered
    return centered * (target_std / std)


class RoadSegmentEmbedding(Embedding):
    """Ws: one row per road segment (Eq. 1)."""

    def __init__(self, num_edges: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(num_edges, dim, rng=rng)

    @classmethod
    def pretrained(cls, net: RoadNetwork,
                   trajectories: Sequence[Sequence[int]],
                   dim: int, method: str = "node2vec", seed: int = 0,
                   rng: Optional[np.random.Generator] = None,
                   tracer: Optional[Tracer] = None
                   ) -> "RoadSegmentEmbedding":
        """Initialise Ws from a graph embedding of the line graph.

        ``method='onehot'`` skips pre-training (the R-one ablation): the
        matrix keeps its random initialisation, which plays the role of
        an untrained one-hot-factorised encoding.
        """
        tracer = tracer or NULL_TRACER
        emb = cls(net.num_edges, dim, rng=rng)
        if method != "onehot":
            with tracer.span("embed.line_graph"):
                line = build_line_graph(net, trajectories)
            matrix = embed_graph(line, EmbeddingConfig(
                method=method, dim=dim, seed=seed),
                tracer=tracer)
            emb.load_pretrained(rescale_pretrained(matrix))
        return emb


class TimeSlotEmbedding(Embedding):
    """Wt: one row per node of the temporal graph (Section 4.2).

    ``lookup_slots`` maps absolute slot indices to graph nodes
    (t_p % slots_per_week, or % slots_per_day for the T-day variant).
    """

    def __init__(self, slot_config: TimeSlotConfig, dim: int,
                 graph_kind: str = "weekly",
                 rng: Optional[np.random.Generator] = None):
        if graph_kind not in ("weekly", "daily"):
            raise ValueError("graph_kind must be weekly or daily")
        num_nodes = (slot_config.slots_per_week if graph_kind == "weekly"
                     else slot_config.slots_per_day)
        super().__init__(num_nodes, dim, rng=rng)
        self.slot_config = slot_config
        self.graph_kind = graph_kind

    def node_of_slot(self, slot: int) -> int:
        if self.graph_kind == "weekly":
            return self.slot_config.weekly_node(slot)
        return self.slot_config.daily_node(slot)

    def lookup_slots(self, slots: Sequence[int]):
        """Embed absolute slot indices (wrapping into the graph period)."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size and slots.min() < 0:
            raise ValueError("slot must be non-negative")
        period = (self.slot_config.slots_per_week
                  if self.graph_kind == "weekly"
                  else self.slot_config.slots_per_day)
        return self(slots % period)

    @classmethod
    def pretrained(cls, slot_config: TimeSlotConfig, dim: int,
                   graph_kind: str = "weekly", method: str = "node2vec",
                   seed: int = 0,
                   rng: Optional[np.random.Generator] = None,
                   tracer: Optional[Tracer] = None
                   ) -> "TimeSlotEmbedding":
        """Initialise Wt from a graph embedding of the temporal graph.

        ``method='onehot'`` keeps the random initialisation (T-one).
        """
        emb = cls(slot_config, dim, graph_kind, rng=rng)
        if method != "onehot":
            matrix = embed_temporal_graph(
                slot_config, graph_kind,
                embedding=EmbeddingConfig(
                    method=method, dim=dim, seed=seed,
                    num_walks=2, walk_length=16),
                tracer=tracer)
            emb.load_pretrained(rescale_pretrained(matrix))
        return emb
