"""Frozen M_O + M_E inference plan (Algorithm 1, Estimation).

At estimation time DeepOD runs only the OD encoder M_O and the estimator
M_E (Section 3; Table 5 times exactly this per query).  The training
modules answer that through autograd ``Tensor`` objects, an
``eval()``/``train()`` walk of the module tree per call and BatchNorm as
separate element-wise ops.  :class:`InferencePlan` is the same function
compiled once from a trained :class:`~repro.core.model.DeepOD`:

* read-only, contiguous copies of Ws and Wt (with the weekly/daily
  slot-node wrap), MLP1, MLP2 and the external-feature MLP, stored
  transposed so every layer is one ``x @ W`` GEMM;
* the traffic CNN's three Conv2d→BatchNorm2d→ReLU blocks with eval-mode
  BatchNorm folded into the convolution: ``w·γ/σ`` and
  ``(b−μ)·γ/σ+β`` with ``σ = sqrt(running_var + eps)``;
* the target de-normalisation statistics.

The forward pass is plain numpy on columns: im2col plus one GEMM per
convolution in channels-last layout, in-place ReLU, global average pool,
the three MLPs, de-normalisation and the 1 s clip.  It allocates its
buffers per call and mutates no plan state, so threads may share a plan.

``DeepOD.predict`` stays the oracle: the plan matches it to ~1e-15
relative (folding BatchNorm and the channels-last column order move the
last bits), and the parity tests pin that at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..datagen.weather import N_WEATHER_TYPES
from ..temporal.timeslot import TimeSlotConfig
from ..trajectory.model import ODInput
from .model import DeepOD

_Mlp = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _frozen(array) -> np.ndarray:
    """A read-only, C-contiguous float64 copy."""
    out = np.array(array, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


def _frozen_mlp(mlp, rows: Optional[np.ndarray] = None) -> _Mlp:
    """``TwoLayerMLP`` weights as ``(W1ᵀ, b1, W2ᵀ, b2)``; ``rows``
    keeps only those input rows of W1ᵀ."""
    w1t = mlp.fc1.weight.data.T
    if rows is not None:
        w1t = w1t[rows]
    return (_frozen(w1t), _frozen(mlp.fc1.bias.data),
            _frozen(mlp.fc2.weight.data.T), _frozen(mlp.fc2.bias.data))


def _mlp(x: np.ndarray, w1t: np.ndarray, b1: np.ndarray,
         w2t: np.ndarray, b2: np.ndarray,
         extra: Optional[np.ndarray] = None) -> np.ndarray:
    """``W2·ReLU(W1 x + b1) + b2`` on a (B, in) batch; ``extra`` is
    added to ``W1 x`` (the rows of W1ᵀ a one-hot input selects)."""
    h = x @ w1t
    if extra is not None:
        h += extra
    h += b1
    np.maximum(h, 0.0, out=h)
    out = h @ w2t
    out += b2
    return out


@dataclass(frozen=True)
class _FoldedConv:
    """One Conv2d→BatchNorm2d→ReLU block with BatchNorm folded in.

    ``weight`` is ``(kh·kw·C_in, C_out)`` with rows in (kh, kw, C_in)
    order, matching the channels-last columns :meth:`__call__` builds.
    """

    weight: np.ndarray
    bias: np.ndarray
    kernel: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]

    @classmethod
    def fold(cls, block) -> "_FoldedConv":
        conv, bn = block.conv, block.bn
        w = conv.weight.data                          # (C_out, C_in, kh, kw)
        b = (conv.bias.data if conv.bias is not None
             else np.zeros(w.shape[0]))
        scale = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
        folded = w * scale[:, None, None, None]
        return cls(
            weight=_frozen(folded.transpose(2, 3, 1, 0).reshape(
                -1, w.shape[0])),
            bias=_frozen((b - bn.running_mean) * scale + bn.bias.data),
            kernel=conv.kernel_size, stride=conv.stride,
            padding=conv.padding)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(B, H, W, C_in) -> (B, H', W', C_out), ReLU applied."""
        n, h, w, cin = x.shape
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        hp, wp = h + 2 * ph, w + 2 * pw
        out_h = (hp - kh) // sh + 1
        out_w = (wp - kw) // sw + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")
        xp = np.zeros((n, hp, wp, cin))
        xp[:, ph:ph + h, pw:pw + w] = x
        cols = np.empty((n, out_h, out_w, kh, kw, cin))
        for di in range(kh):
            for dj in range(kw):
                cols[:, :, :, di, dj] = xp[:, di:di + sh * out_h:sh,
                                           dj:dj + sw * out_w:sw]
        out = cols.reshape(n * out_h * out_w, kh * kw * cin) @ self.weight
        out += self.bias
        np.maximum(out, 0.0, out=out)
        return out.reshape(n, out_h, out_w, -1)


class InferencePlan:
    """M_O + M_E of one trained DeepOD, frozen into plain numpy.

    Build with :meth:`compile`.  The plan copies every weight it reads,
    so later training of the source model does not reach it: a plan is
    a snapshot of the weights at compile time.
    """

    def __init__(self, *, slot_config: TimeSlotConfig,
                 road: Optional[np.ndarray], slots: Optional[np.ndarray],
                 convs: Tuple[_FoldedConv, ...],
                 external_mlp: Optional[_Mlp],
                 weather_rows: Optional[np.ndarray],
                 mlp1: _Mlp, mlp2: _Mlp, timestamp: bool,
                 target: Optional[Tuple[float, float]]):
        self.slot_config = slot_config
        self._road = road
        self._slots = slots
        self._convs = convs
        self._external_mlp = external_mlp
        self._weather_rows = weather_rows
        self._mlp1 = mlp1
        self._mlp2 = mlp2
        self._timestamp = timestamp
        self._target = target

    @classmethod
    def compile(cls, model: DeepOD) -> "InferencePlan":
        """Freeze ``model``'s estimation path (its current weights)."""
        cfg = model.config
        encoder = model.od_encoder
        d_s, d_t, d6 = cfg.d_s, cfg.d_t, cfg.d6_m
        # MLP1's input is [D^s_1, D^s_n, D^t, ocode, r[1], r[-1], t_r
        # (, stamp)]; a disabled part is all zeros in the oracle, so its
        # rows of W1ᵀ are dropped instead of multiplied by zero.
        keep = []
        road = slots = weather_rows = external_mlp = None
        convs: Tuple[_FoldedConv, ...] = ()
        if cfg.use_spatial_encoding:
            keep.append(np.arange(0, 2 * d_s))
            road = _frozen(model.road_embedding.weight.data)
        if cfg.use_temporal_encoding and not cfg.use_timestamp_directly:
            keep.append(np.arange(2 * d_s, 2 * d_s + d_t))
            # Row i answers absolute slot s with s % period == i.
            slots = _frozen(model.slot_embedding.weight.data)
        if cfg.use_external_features:
            keep.append(np.arange(2 * d_s + d_t, 2 * d_s + d_t + d6))
            ext = encoder.external_encoder
            cnn = ext.cnn
            convs = tuple(_FoldedConv.fold(block) for block in
                          (cnn.block1, cnn.block2, cnn.block3))
            w1t = ext.mlp.fc1.weight.data.T
            weather_rows = _frozen(w1t[:N_WEATHER_TYPES])
            external_mlp = _frozen_mlp(
                ext.mlp, rows=np.arange(N_WEATHER_TYPES, w1t.shape[0]))
        keep.append(np.arange(2 * d_s + d_t + d6,
                              encoder.mlp1.in_features))
        target = None
        if cfg.normalize_targets:
            target = (float(model.target_mean[0]),
                      float(model.target_std[0]))
        return cls(slot_config=model.slot_embedding.slot_config,
                   road=road, slots=slots, convs=convs,
                   external_mlp=external_mlp, weather_rows=weather_rows,
                   mlp1=_frozen_mlp(encoder.mlp1,
                                    rows=np.concatenate(keep)),
                   mlp2=_frozen_mlp(model.estimator.mlp2),
                   timestamp=cfg.use_timestamp_directly, target=target)

    @property
    def uses_speed_matrices(self) -> bool:
        return self._external_mlp is not None

    # ------------------------------------------------------------------
    def predict(self, ods: Sequence[ODInput],
                speed_matrices: Optional[np.ndarray] = None) -> np.ndarray:
        """Travel times in seconds for OD inputs (``DeepOD.predict``)."""
        cols = np.array([(od.origin_edge, od.destination_edge,
                          od.ratio_start, od.ratio_end, od.depart_time,
                          od.weather) for od in ods],
                        dtype=np.float64).reshape(-1, 6)
        edges = cols[:, :2].astype(np.int64)
        return self.run(edges[:, 0], edges[:, 1], cols[:, 2], cols[:, 3],
                        cols[:, 4], cols[:, 5].astype(np.int64),
                        speed_matrices)

    def run(self, origin_edges: np.ndarray, destination_edges: np.ndarray,
            ratio_start: np.ndarray, ratio_end: np.ndarray,
            depart_times: np.ndarray, weather: np.ndarray,
            speed_matrices: Optional[np.ndarray] = None) -> np.ndarray:
        """The kernel on per-OD columns; raises as ``DeepOD.predict``."""
        batch = len(depart_times)
        if not batch:
            raise ValueError("empty OD batch")
        if (origin_edges < 0).any() or (destination_edges < 0).any():
            raise ValueError("OD inputs must be map-matched before encoding")
        pieces = []
        if self._road is not None:
            if (max(origin_edges.max(), destination_edges.max())
                    >= len(self._road)):
                raise IndexError(
                    f"embedding index out of range [0, {len(self._road)})")
            pieces += [self._road[origin_edges],
                       self._road[destination_edges]]
        slot_cfg = self.slot_config
        slots = slot_cfg.slots_of(depart_times)
        remainders = slot_cfg.remainders_of(depart_times) / \
            slot_cfg.slot_seconds
        if self._slots is not None:
            pieces.append(self._slots[slots % len(self._slots)])
        if self._external_mlp is not None:
            pieces.append(self._ocode(weather, speed_matrices))
        pieces.append(np.stack([ratio_start, ratio_end, remainders], axis=1))
        if self._timestamp:
            pieces.append(depart_times[:, None])
        code = _mlp(np.concatenate(pieces, axis=1), *self._mlp1)  # Eq. 19
        out = _mlp(code, *self._mlp2)[:, 0]                       # Eq. 20
        if self._target is not None:
            mean, std = self._target
            out = out * std + mean
        # Travel times are physically positive; clip tiny/negative outputs.
        return np.maximum(out, 1.0)

    def _ocode(self, weather: np.ndarray,
               speed_matrices: Optional[np.ndarray]) -> np.ndarray:
        """Eq. 18: (weather ids, speed matrices) -> ocode."""
        if speed_matrices is None:
            raise ValueError(
                "speed matrices required when external features are on")
        if weather.min() < 0 or weather.max() >= N_WEATHER_TYPES:
            raise ValueError("weather id out of range")
        mats = np.asarray(speed_matrices, dtype=np.float64)
        if mats.ndim != 3:
            raise ValueError(
                f"expected (batch, rows, cols), got {mats.shape}")
        if len(mats) != len(weather):
            raise ValueError(f"{len(mats)} speed matrices for "
                             f"{len(weather)} OD inputs")
        x = mats[..., None]                          # channels-last
        for conv in self._convs:
            x = conv(x)
        traffic = x.reshape(len(x), -1, x.shape[3]).mean(axis=1)  # D_traf
        # O_wea is one-hot, so O_wea · W5 is a row gather.
        return _mlp(traffic, *self._external_mlp,
                    extra=self._weather_rows[weather])
