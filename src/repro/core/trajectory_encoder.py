"""Trajectory Encoder (paper Section 4.4, Eq. 12-17 and Figure 7).

Encodes a trajectory <SP, PR> into stcode:

1. every element <e_i, [t_i[1], t_i[-1]]> of the spatio-temporal path is
   encoded as the concatenation D^st_i of the Time Interval Encoder's
   tcode_i and the road-segment embedding D^s_i;
2. the sequence [D^st_1 .. D^st_n] runs through an LSTM (Eq. 12-16), whose
   final hidden state h_n represents SP;
3. h_n is concatenated with the two position ratios r[1], r[-1] and a
   two-layer MLP produces stcode (Eq. 17).

Ablation toggles: with spatial encoding off (N-sp) the segment embedding is
replaced by zeros; with temporal encoding off (N-tp) tcode is replaced by
zeros.  The full N-st ablation lives in the model, which simply skips this
module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analysis.contracts import shaped
from ..nn import (
    GRU, LSTM, Linear, Module, Tensor, TwoLayerMLP, concat,
    masked_mean_pool, sequence_mask,
)
from ..trajectory.model import MatchedTrajectory
from .config import DeepODConfig
from .embeddings import RoadSegmentEmbedding
from .interval_encoder import TimeIntervalEncoder


class MeanSequenceEncoder(Module):
    """Order-insensitive baseline sequence encoder (design ablation).

    Mean-pools the D^st sequence and projects to d_h; discards the
    ordering information an RNN captures.
    """

    engine = "fast"

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.proj = Linear(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    @shaped("(B, T, D), _ -> _, (B, hidden_size)")
    def forward(self, x: Tensor, lengths=None):
        batch, steps, _ = x.shape
        if lengths is None:
            lengths = [steps] * batch
        lengths = np.asarray(lengths, dtype=np.int64)
        mask = sequence_mask(lengths, steps).astype(x.dtype)
        if self.engine == "fast":
            pooled = masked_mean_pool(x, mask)
        else:
            counts = Tensor(mask.sum(axis=1, keepdims=True))
            pooled = (x * Tensor(mask[:, :, None])).sum(axis=1) / counts
        h = self.proj(pooled).tanh()
        return None, h


class TrajectoryEncoder(Module):
    """Batch encoder: trajectories -> stcode (batch, d4_m)."""

    def __init__(self, config: DeepODConfig,
                 road_embedding: RoadSegmentEmbedding,
                 interval_encoder: TimeIntervalEncoder,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        self.road_embedding = road_embedding
        self.interval_encoder = interval_encoder
        input_size = config.d2_m + config.d_s      # D^st = [tcode, D^s]
        if config.sequence_encoder == "lstm":
            self.lstm = LSTM(input_size, config.d_h, rng=rng)
        elif config.sequence_encoder == "gru":
            self.lstm = GRU(input_size, config.d_h, rng=rng)
        else:
            self.lstm = MeanSequenceEncoder(input_size, config.d_h,
                                            rng=rng)
        self.mlp = TwoLayerMLP(config.d_h + 2, config.d3_m, config.d4_m,
                               rng=rng)

    @shaped("_ -> (B, config.d4_m)")
    def forward(self, trajectories: Sequence[MatchedTrajectory]) -> Tensor:
        if not len(trajectories):
            raise ValueError("empty trajectory batch")
        cfg = self.config
        batch = len(trajectories)

        # Flatten all path elements into contiguous arrays (cached per
        # trajectory, so later epochs skip the per-element Python loop),
        # encode in one go, then scatter into a padded layout.
        per_traj = [t.encoder_arrays() for t in trajectories]
        lengths = np.fromiter((len(t) for t in trajectories),
                              dtype=np.int64, count=batch)
        max_len = int(lengths.max())
        all_edges = np.concatenate([edges for edges, _ in per_traj])
        all_intervals = np.concatenate(
            [intervals for _, intervals in per_traj], axis=0)

        if cfg.use_temporal_encoding:
            tcodes = self.interval_encoder(all_intervals)   # (total, d2_m)
        else:
            tcodes = Tensor(np.zeros((len(all_intervals), cfg.d2_m)))
        if cfg.use_spatial_encoding:
            scodes = self.road_embedding(all_edges)
        else:
            scodes = Tensor(np.zeros((len(all_edges), cfg.d_s)))

        # Pad flat encodings into batch rows via a precomputed index
        # map: row i covers flat rows [starts[i], starts[i] + n_i), pad
        # columns repeating the last step.
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        offs = np.arange(max_len)
        index_map = starts[:, None] + np.minimum(offs[None, :],
                                                 (lengths - 1)[:, None])
        ratios = np.array([[t.ratio_start, t.ratio_end]
                           for t in trajectories])

        if isinstance(self.lstm, LSTM) and self.lstm.engine == "fast":
            # Hot path: concat + gather + unroll + last-step slice as
            # one fused node (Eq. 12-16).
            h_n = self.lstm.encode_spans(tcodes, scodes, index_map,
                                         lengths)
        else:
            d = cfg.d2_m + cfg.d_s
            dst = concat([tcodes, scodes], axis=1)          # (total, d)
            padded = dst[index_map.reshape(-1)].reshape(
                batch, max_len, d)
            _, h_n = self.lstm(padded, lengths=lengths)     # Eq. 12-16
        return self.mlp.forward_with_tail(h_n, ratios)      # Eq. 17
