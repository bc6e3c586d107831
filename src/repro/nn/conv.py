"""Convolutional layers and batch normalisation.

The Time Interval Encoder (paper Eq. 5-8) stacks three convolutions over a
(1, Δd, d_t) tensor of time-slot embeddings — kernel shapes 3x1 (4 channels),
3x1 (8 channels) and 1x1 (1 channel) — with BatchNorm + ReLU between them and
a residual connection back onto the input.  The External Features Encoder
(Eq. 18) applies three Conv2d→BatchNorm2d→ReLU blocks to the traffic speed
matrix.  Both are built from the generic :class:`Conv2d` here, which uses an
im2col formulation so the autograd engine differentiates it for free.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..analysis.contracts import shaped
from .engine import (
    batchnorm2d_fused, conv2d_fused, conv_bn_relu_fused,
    interval_resnet_fused,
)
from .functional import pad2d
from .init import ensure_generator
from .modules import Module, Parameter
from .tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


def _im2col(x: Tensor, kh: int, kw: int, stride: Tuple[int, int]) -> Tuple[Tensor, int, int]:
    """Unfold (N, C, H, W) into (N, out_h*out_w, C*kh*kw) patches.

    Implemented with differentiable slicing + concat so gradients flow back
    to the input without a hand-written backward rule.
    """
    n, c, h, w = x.shape
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({h}x{w})")
    # Gather strided patches with a single fancy-index per kernel offset.
    rows = []
    from .tensor import concat
    for di in range(kh):
        for dj in range(kw):
            patch = x[:, :, di:di + sh * out_h:sh, dj:dj + sw * out_w:sw]
            rows.append(patch.reshape(n, c, out_h * out_w, 1))
    # (N, C, L, kh*kw) -> (N, L, C*kh*kw)
    stacked = concat(rows, axis=3)
    cols = stacked.transpose((0, 2, 1, 3)).reshape(n, out_h * out_w, c * kh * kw)
    return cols, out_h, out_w


class Conv2d(Module):
    """2-D convolution ``(N, C_in, H, W) -> (N, C_out, H', W')``."""

    engine = "fast"

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0, bias: bool = True, *,
                 rng: np.random.Generator):
        super().__init__()
        rng = ensure_generator(rng, "Conv2d")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        fan_in = in_channels * kh * kw
        bound = 1.0 / np.sqrt(fan_in)
        self.weight = Parameter(
            rng.uniform(-bound, bound,
                        size=(out_channels, in_channels, kh, kw)))
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                rng.uniform(-bound, bound, size=(out_channels,)))
        else:
            self.bias = None

    @shaped("(N, in_channels, *, *) -> (N, out_channels, *, *)")
    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects (N, C, H, W), got {x.shape}")
        if self.engine == "fast":
            return conv2d_fused(x, self.weight, self.bias, self.stride,
                                self.padding)
        return self._forward_reference(x)

    def _forward_reference(self, x: Tensor) -> Tensor:
        """Oracle path: differentiable slicing + concat im2col."""
        ph, pw = self.padding
        if ph or pw:
            x = pad2d(x, (ph, ph, pw, pw))
        kh, kw = self.kernel_size
        cols, out_h, out_w = _im2col(x, kh, kw, self.stride)
        flat_w = self.weight.reshape(self.out_channels,
                                     self.in_channels * kh * kw)
        out = cols @ flat_w.T                        # (N, L, C_out)
        if self.bias is not None:
            out = out + self.bias
        n = x.shape[0]
        return out.transpose((0, 2, 1)).reshape(
            n, self.out_channels, out_h, out_w)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding})")


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel, with running stats."""

    engine = "fast"

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W), got {x.shape}")
        axes = (0, 2, 3)
        if self.training:
            mean = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            self._update_running(mean, var)
            if self.engine == "fast":
                # One fused node: normalise + affine with hand-written
                # backward (the running stats above are shared with
                # the reference path).
                return batchnorm2d_fused(x, self.weight, self.bias,
                                         self.eps)
            # Normalise with batch statistics via differentiable ops.
            mu = x.mean(axis=axes, keepdims=True)
            centered = x - mu
            variance = (centered ** 2).mean(axis=axes, keepdims=True)
            norm = centered / ((variance + self.eps) ** 0.5)
        else:
            mu = self.running_mean.reshape(1, -1, 1, 1)
            sigma = np.sqrt(self.running_var + self.eps).reshape(1, -1, 1, 1)
            norm = (x - Tensor(mu)) / Tensor(sigma)
        w = self.weight.reshape(1, self.num_features, 1, 1)
        b = self.bias.reshape(1, self.num_features, 1, 1)
        return norm * w + b

    def _update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's statistics into the running buffers — shared
        by both paths and by the fused Conv→BN→ReLU block."""
        m = self.momentum
        self.update_buffer(
            "running_mean", (1 - m) * self.running_mean + m * mean)
        self.update_buffer(
            "running_var", (1 - m) * self.running_var + m * var)


class ConvBNReLU(Module):
    """The Conv2d → BatchNorm2d → ReLU block of the traffic-condition CNN."""

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: IntPair = 3, stride: IntPair = 1,
                 padding: IntPair = 1, *,
                 rng: np.random.Generator):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, kernel_size,
                           stride=stride, padding=padding, rng=rng)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        if self.conv.engine == "fast" and self.training:
            out, mean, var = conv_bn_relu_fused(
                x, self.conv.weight, self.conv.bias, self.bn.weight,
                self.bn.bias, self.conv.stride, self.conv.padding,
                self.bn.eps)
            self.bn._update_running(mean, var)
            return out
        return self.bn(self.conv(x)).relu()


class IntervalResNetBlock(Module):
    """The residual CNN block of the Time Interval Encoder (Eq. 5-8).

    Input is a (N, 1, Δd, d_t) tensor of stacked time-slot embeddings.
    Three convolutions (3x1/4ch, 3x1/8ch, 1x1/1ch) with BatchNorm + ReLU
    after the first two, then a residual add back onto the input (Eq. 8).
    Padding of 1 along the Δd axis keeps the temporal length unchanged so
    the residual shapes agree.
    """

    def __init__(self, *, rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv2d(1, 4, kernel_size=(3, 1), padding=(1, 0),
                            rng=rng)
        self.bn1 = BatchNorm2d(4)
        self.conv2 = Conv2d(4, 8, kernel_size=(3, 1), padding=(1, 0),
                            rng=rng)
        self.bn2 = BatchNorm2d(8)
        self.conv3 = Conv2d(8, 1, kernel_size=(1, 1), rng=rng)

    @shaped("(N, 1, S, D) -> (N, 1, S, D)")
    def forward(self, x: Tensor, mask: Optional[Tensor] = None) -> Tensor:
        """Apply the block.

        Parameters
        ----------
        mask:
            Optional (N, 1, Δd, 1) tensor of 1s on valid slot rows and 0s
            on padding.  When batching intervals of different Δd the 3x1
            convolutions would otherwise leak activations from padded rows
            into real ones; re-masking after every convolution makes each
            row's output independent of batchmates.
        """
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(
                f"IntervalResNetBlock expects (N, 1, Δd, d_t), got {x.shape}")
        if self.conv1.engine == "fast" and self.training:
            # The whole block — input mask, both Conv→BN→ReLU(→mask)
            # stages, 1x1 conv and residual — as one autograd node in
            # transpose-free (N, Δd, d_t, C) layout.
            out, m1, v1, m2, v2 = interval_resnet_fused(
                x, self.conv1.weight, self.conv1.bias,
                self.bn1.weight, self.bn1.bias,
                self.conv2.weight, self.conv2.bias,
                self.bn2.weight, self.bn2.bias,
                self.conv3.weight, self.conv3.bias,
                self.bn1.eps, self.bn2.eps,
                mask=None if mask is None else mask.data)
            self.bn1._update_running(m1, v1)
            self.bn2._update_running(m2, v2)
            return out
        if mask is not None:
            x = x * mask
        z1 = self.bn1(self.conv1(x)).relu()          # Eq. 5
        if mask is not None:
            z1 = z1 * mask
        z2 = self.bn2(self.conv2(z1)).relu()         # Eq. 6
        if mask is not None:
            z2 = z2 * mask
        z3 = self.conv3(z2)                          # Eq. 7
        return x + z3                                # Eq. 8 (residual)
