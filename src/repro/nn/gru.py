"""GRU layers — an alternative sequence encoder for the Trajectory
Encoder ablations.

Section 4.4 of the paper says "we use an RNN model (e.g., LSTM)" — LSTM is
the instantiated choice, not the only admissible one.  The GRU here powers
the sequence-encoder ablation bench (LSTM vs GRU vs mean pooling) listed
in DESIGN.md Section 6.

Like :class:`repro.nn.LSTM`, the unroll runs a fused kernel
(:func:`~repro.nn.engine.gru_sequence_fused`) and keeps a per-timestep
``"reference"`` oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.contracts import shaped
from .engine import gru_sequence_fused, sequence_mask
from .init import ensure_generator
from .modules import Module, Parameter
from .rnn import _check_lengths, _check_state_dtype
from .tensor import Tensor, concat, stack


class GRUCell(Module):
    """Gated recurrent unit (Cho et al. 2014).

    z = σ(Wz [x, h]); r = σ(Wr [x, h]);
    h~ = tanh(Wh [x, r ⊗ h]); h' = (1 − z) ⊗ h + z ⊗ h~.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator):
        super().__init__()
        rng = ensure_generator(rng, "GRUCell")
        self.input_size = input_size
        self.hidden_size = hidden_size
        k = 1.0 / np.sqrt(hidden_size)
        gate_shape = (2 * hidden_size, input_size + hidden_size)
        self.weight_gates = Parameter(rng.uniform(-k, k, size=gate_shape))
        self.bias_gates = Parameter(rng.uniform(-k, k,
                                                size=(2 * hidden_size,)))
        cand_shape = (hidden_size, input_size + hidden_size)
        self.weight_cand = Parameter(rng.uniform(-k, k, size=cand_shape))
        self.bias_cand = Parameter(rng.uniform(-k, k, size=(hidden_size,)))

    @shaped("(B, input_size), (B, hidden_size) -> (B, hidden_size)")
    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        hs = self.hidden_size
        zx = concat([x, h_prev], axis=-1)
        gates = (zx @ self.weight_gates.T + self.bias_gates).sigmoid()
        z = gates[:, :hs]
        r = gates[:, hs:]
        candidate_in = concat([x, r * h_prev], axis=-1)
        h_tilde = (candidate_in @ self.weight_cand.T
                   + self.bias_cand).tanh()
        return (1.0 - z) * h_prev + z * h_tilde


class GRU(Module):
    """Unrolled GRU over padded variable-length batches.

    Interface-compatible with :class:`repro.nn.LSTM`: returns (outputs,
    final hidden state), with padded steps frozen.  ``engine =
    "reference"`` selects the per-timestep oracle unroll.
    """

    engine = "fast"

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.input_size = input_size

    @shaped("(B, T, input_size) -> (B, T, hidden_size), (B, hidden_size)")
    def forward(self, x: Tensor, lengths: Optional[Sequence[int]] = None
                ) -> Tuple[Tensor, Tensor]:
        batch, steps, _ = x.shape
        lengths = _check_lengths(lengths, batch, steps)
        if self.engine == "fast":
            cell = self.cell
            _check_state_dtype(x, cell.weight_gates, "GRU")
            mask = sequence_mask(lengths, steps)
            stacked = gru_sequence_fused(
                x, cell.weight_gates, cell.bias_gates, cell.weight_cand,
                cell.bias_cand, self.hidden_size, mask)
            return stacked, stacked[:, steps - 1, :]
        return self._forward_reference(x, lengths)

    def _forward_reference(self, x: Tensor, lengths: np.ndarray
                           ) -> Tuple[Tensor, Tensor]:
        """Oracle path: one :class:`GRUCell` call per timestep."""
        batch, steps, _ = x.shape
        dtype = self.cell.weight_gates.dtype
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=dtype))
        outputs: List[Tensor] = []
        for t in range(steps):
            h_new = self.cell(x[:, t, :], h)
            mask = Tensor((t < lengths).astype(dtype)[:, None])
            h = h_new * mask + h * (1.0 - mask)
            outputs.append(h)
        stacked = stack(outputs, axis=1)
        _check_state_dtype(stacked, self.cell.weight_gates, "GRU")
        return stacked, h
