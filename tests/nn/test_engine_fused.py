"""Tests for the fused nn engine (``repro.nn.engine``).

The fused kernels — batched LSTM/GRU unrolls, im2col+GEMM Conv2d,
single-node BatchNorm2d, fused losses and the masked mean pool — must
match the per-op reference oracles (switched on with ``_as_reference``)
in both the forward values and every gradient, across the
sequence-length edge cases the Trajectory Encoder produces.
"""

import numpy as np
import pytest

from repro.nn import (
    GRU, LSTM, BatchNorm2d, Conv2d, Tensor, TwoLayerMLP, concat,
    euclidean_loss, euclidean_loss_fused, mae_loss, mae_loss_fused,
    masked_mean_pool, sequence_mask, smooth_l1_loss, smooth_l1_loss_fused,
)
from repro.nn.engine import _as_reference
from repro.nn.gradcheck import numeric_gradient

RNG = np.random.default_rng(29)  # repro: allow[D001] seeded file-local RNG, shared on purpose

# The sequence-length patterns both engines must agree on (satellite
# edge cases): typical ragged, length-1 everywhere, all-equal lengths,
# a padding row at max length, strictly decreasing lengths.
LENGTH_CASES = [
    ("ragged", [3, 5, 2, 4]),
    ("length_one", [1, 1, 1, 1]),
    ("all_equal", [4, 4, 4, 4]),
    ("max_len_row", [5, 2, 5, 1]),
    ("strictly_decreasing", [5, 4, 3, 2]),
]


def _pair(layer_cls, input_size, hidden, seed):
    """Two identically-initialised layers: fused, and reference."""
    fast = layer_cls(input_size, hidden, rng=np.random.default_rng(seed))
    ref = _as_reference(
        layer_cls(input_size, hidden, rng=np.random.default_rng(seed)))
    return fast, ref


def _run_and_grads(layer, x, lengths):
    layer.zero_grad()
    xt = Tensor(x.copy(), requires_grad=True)
    outputs, final = layer(xt, lengths=lengths)
    # A loss touching both outputs and final exercises the whole graph.
    (outputs.sum() + (final * final).sum()).backward()
    params = {name: p.grad.copy() for name, p in layer.named_parameters()}
    return outputs.data, final.data, xt.grad.copy(), params


class TestEngineSelection:
    def test_sequence_mask(self):
        mask = sequence_mask(np.array([1, 3, 2]), 3)
        expected = np.array([[1, 0, 0], [1, 1, 1], [1, 1, 0]], dtype=bool)
        np.testing.assert_array_equal(mask, expected)


class TestLSTMParity:
    @pytest.mark.parametrize("name,lengths",
                             LENGTH_CASES, ids=[c[0] for c in LENGTH_CASES])
    def test_forward_and_gradients(self, name, lengths):
        steps = max(lengths)
        x = RNG.normal(size=(len(lengths), steps, 6))
        fast, ref = _pair(LSTM, 6, 5, seed=101)
        out_f, fin_f, dx_f, dp_f = _run_and_grads(fast, x, lengths)
        out_r, fin_r, dx_r, dp_r = _run_and_grads(ref, x, lengths)
        np.testing.assert_allclose(out_f, out_r, atol=1e-12)
        np.testing.assert_allclose(fin_f, fin_r, atol=1e-12)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        for name_ in dp_f:
            np.testing.assert_allclose(dp_f[name_], dp_r[name_],
                                       atol=1e-10, err_msg=name_)

    def test_numeric_gradcheck(self):
        lengths = [3, 2, 4]
        x = RNG.normal(size=(3, 4, 3)) * 0.5
        lstm = LSTM(3, 2, rng=np.random.default_rng(7))

        def scalar(arr):
            out, fin = lstm(Tensor(arr), lengths=lengths)
            return float((out.sum() + fin.sum()).data)

        xt = Tensor(x.copy(), requires_grad=True)
        out, fin = lstm(xt, lengths=lengths)
        (out.sum() + fin.sum()).backward()
        np.testing.assert_allclose(xt.grad, numeric_gradient(scalar, x.copy()),
                                   atol=1e-6)


def _span_index_map(lengths):
    """The Trajectory Encoder's canonical flat-row layout."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    offs = np.arange(int(lengths.max()))
    return starts[:, None] + np.minimum(offs[None, :],
                                        (lengths - 1)[:, None])


class TestSpanEncodeParity:
    """``LSTM.encode_spans`` vs the concat/gather/forward composition."""

    @staticmethod
    def _run_fast(layer, tcodes, scodes, index_map, lengths):
        layer.zero_grad()
        tc = Tensor(tcodes.copy(), requires_grad=True)
        sc = Tensor(scodes.copy(), requires_grad=True)
        h_n = layer.encode_spans(tc, sc, index_map, lengths)
        (h_n * h_n).sum().backward()
        params = {n: p.grad.copy() for n, p in layer.named_parameters()}
        return h_n.data, tc.grad.copy(), sc.grad.copy(), params

    @staticmethod
    def _run_composed(layer, tcodes, scodes, index_map, lengths):
        layer.zero_grad()
        tc = Tensor(tcodes.copy(), requires_grad=True)
        sc = Tensor(scodes.copy(), requires_grad=True)
        dst = concat([tc, sc], axis=1)
        batch, steps = index_map.shape
        padded = dst[index_map.reshape(-1)].reshape(
            batch, steps, dst.shape[1])
        _, h_n = layer(padded, lengths=lengths)
        (h_n * h_n).sum().backward()
        params = {n: p.grad.copy() for n, p in layer.named_parameters()}
        return h_n.data, tc.grad.copy(), sc.grad.copy(), params

    @pytest.mark.parametrize("name,lengths",
                             LENGTH_CASES, ids=[c[0] for c in LENGTH_CASES])
    def test_matches_composition_on_reference(self, name, lengths):
        total = int(np.sum(lengths))
        tcodes = RNG.normal(size=(total, 3))
        scodes = RNG.normal(size=(total, 4))
        index_map = _span_index_map(lengths)
        fast, ref = _pair(LSTM, 7, 5, seed=303)
        h_f, dt_f, ds_f, dp_f = self._run_fast(
            fast, tcodes, scodes, index_map, lengths)
        h_r, dt_r, ds_r, dp_r = self._run_composed(
            ref, tcodes, scodes, index_map, lengths)
        np.testing.assert_allclose(h_f, h_r, atol=1e-12)
        np.testing.assert_allclose(dt_f, dt_r, atol=1e-10)
        np.testing.assert_allclose(ds_f, ds_r, atol=1e-10)
        for name_ in dp_f:
            np.testing.assert_allclose(dp_f[name_], dp_r[name_],
                                       atol=1e-10, err_msg=name_)

    def test_shared_flat_rows_accumulate(self):
        # Non-canonical map: one flat row feeds several live steps, so
        # the backward must fall back to accumulating scatter.
        index_map = np.array([[0, 1, 0], [2, 2, 2]])
        lengths = [3, 2]
        tcodes = RNG.normal(size=(3, 3))
        scodes = RNG.normal(size=(3, 4))
        fast, ref = _pair(LSTM, 7, 4, seed=304)
        h_f, dt_f, ds_f, dp_f = self._run_fast(
            fast, tcodes, scodes, index_map, lengths)
        h_r, dt_r, ds_r, dp_r = self._run_composed(
            ref, tcodes, scodes, index_map, lengths)
        np.testing.assert_allclose(h_f, h_r, atol=1e-12)
        np.testing.assert_allclose(dt_f, dt_r, atol=1e-10)
        np.testing.assert_allclose(ds_f, ds_r, atol=1e-10)

    def test_numeric_gradcheck(self):
        lengths = [3, 1, 2]
        index_map = _span_index_map(lengths)
        tcodes = RNG.normal(size=(6, 2)) * 0.5
        scodes = RNG.normal(size=(6, 3)) * 0.5
        lstm = LSTM(5, 3, rng=np.random.default_rng(9))

        def scalar_t(arr):
            h = lstm.encode_spans(Tensor(arr), Tensor(scodes),
                                  index_map, lengths)
            return float(h.sum().data)

        tc = Tensor(tcodes.copy(), requires_grad=True)
        h_n = lstm.encode_spans(tc, Tensor(scodes), index_map, lengths)
        h_n.sum().backward()
        np.testing.assert_allclose(
            tc.grad, numeric_gradient(scalar_t, tcodes.copy()),
            atol=1e-6)

    def test_rejects_reference_engine(self):
        lstm = _as_reference(LSTM(7, 4, rng=np.random.default_rng(11)))
        with pytest.raises(RuntimeError):
            lstm.encode_spans(Tensor(RNG.normal(size=(2, 3))),
                              Tensor(RNG.normal(size=(2, 4))),
                              np.array([[0, 1]]), [2])


class TestMLPConstTail:
    """``TwoLayerMLP.forward_with_tail`` vs concat composition."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_matches_concat(self, engine):
        rng_seed = 404
        mlp = TwoLayerMLP(6, 5, 3, rng=np.random.default_rng(rng_seed))
        oracle = TwoLayerMLP(6, 5, 3,
                             rng=np.random.default_rng(rng_seed))
        if engine == "reference":
            _as_reference(mlp)
            _as_reference(oracle)
        x = RNG.normal(size=(8, 4))
        tail = RNG.normal(size=(8, 2))

        xt = Tensor(x.copy(), requires_grad=True)
        out = mlp.forward_with_tail(xt, tail)
        (out * out).sum().backward()

        xo = Tensor(x.copy(), requires_grad=True)
        joined = concat([xo, Tensor(tail.copy())], axis=-1)
        ref = oracle(joined)
        (ref * ref).sum().backward()

        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)
        np.testing.assert_allclose(xt.grad, xo.grad, atol=1e-11)
        for (n1, p1), (_, p2) in zip(mlp.named_parameters(),
                                     oracle.named_parameters()):
            np.testing.assert_allclose(p1.grad, p2.grad, atol=1e-11,
                                       err_msg=n1)

    def test_rejects_bad_widths(self):
        mlp = TwoLayerMLP(6, 5, 3, rng=np.random.default_rng(5))
        with pytest.raises(ValueError):
            mlp.forward_with_tail(Tensor(RNG.normal(size=(4, 4))),
                                  RNG.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            mlp.forward_with_tail(Tensor(RNG.normal(size=(4, 4))),
                                  RNG.normal(size=(5, 2)))


class TestGRUParity:
    @pytest.mark.parametrize("name,lengths",
                             LENGTH_CASES, ids=[c[0] for c in LENGTH_CASES])
    def test_forward_and_gradients(self, name, lengths):
        steps = max(lengths)
        x = RNG.normal(size=(len(lengths), steps, 4))
        fast, ref = _pair(GRU, 4, 3, seed=202)
        out_f, fin_f, dx_f, dp_f = _run_and_grads(fast, x, lengths)
        out_r, fin_r, dx_r, dp_r = _run_and_grads(ref, x, lengths)
        np.testing.assert_allclose(out_f, out_r, atol=1e-12)
        np.testing.assert_allclose(fin_f, fin_r, atol=1e-12)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        for name_ in dp_f:
            np.testing.assert_allclose(dp_f[name_], dp_r[name_],
                                       atol=1e-10, err_msg=name_)

    def test_numeric_gradcheck(self):
        lengths = [2, 3, 1]
        x = RNG.normal(size=(3, 3, 3)) * 0.5
        gru = GRU(3, 2, rng=np.random.default_rng(8))

        def scalar(arr):
            out, fin = gru(Tensor(arr), lengths=lengths)
            return float((out.sum() + fin.sum()).data)

        xt = Tensor(x.copy(), requires_grad=True)
        out, fin = gru(xt, lengths=lengths)
        (out.sum() + fin.sum()).backward()
        np.testing.assert_allclose(xt.grad, numeric_gradient(scalar, x.copy()),
                                   atol=1e-6)


class TestConvParity:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d_matches_reference(self, stride, padding):
        x = RNG.normal(size=(2, 3, 6, 5))
        fast = Conv2d(3, 4, kernel_size=3, stride=stride, padding=padding,
                      rng=np.random.default_rng(5))
        ref = _as_reference(
            Conv2d(3, 4, kernel_size=3, stride=stride, padding=padding,
                   rng=np.random.default_rng(5)))
        for layer in (fast, ref):
            layer.zero_grad()
        xf = Tensor(x.copy(), requires_grad=True)
        xr = Tensor(x.copy(), requires_grad=True)
        (fast(xf) ** 2).sum().backward()
        (ref(xr) ** 2).sum().backward()
        np.testing.assert_allclose(fast(Tensor(x)).data,
                                   ref(Tensor(x)).data, atol=1e-12)
        np.testing.assert_allclose(xf.grad, xr.grad, atol=1e-10)
        np.testing.assert_allclose(fast.weight.grad, ref.weight.grad,
                                   atol=1e-10)
        np.testing.assert_allclose(fast.bias.grad, ref.bias.grad,
                                   atol=1e-10)

    def test_batchnorm_training_matches_reference(self):
        x = RNG.normal(size=(4, 3, 5, 2))
        fast = BatchNorm2d(3)
        ref = _as_reference(BatchNorm2d(3))
        xf = Tensor(x.copy(), requires_grad=True)
        xr = Tensor(x.copy(), requires_grad=True)
        (fast(xf) ** 2).sum().backward()
        (ref(xr) ** 2).sum().backward()
        np.testing.assert_allclose(xf.grad, xr.grad, atol=1e-9)
        np.testing.assert_allclose(fast.weight.grad, ref.weight.grad,
                                   atol=1e-9)
        np.testing.assert_allclose(fast.bias.grad, ref.bias.grad,
                                   atol=1e-9)
        np.testing.assert_allclose(fast.running_mean, ref.running_mean,
                                   atol=1e-12)
        np.testing.assert_allclose(fast.running_var, ref.running_var,
                                   atol=1e-12)

    def test_batchnorm_eval_mode_shared(self):
        """Eval mode always uses the running-stat path, engine-independent."""
        x = RNG.normal(size=(2, 3, 4, 4))
        fast = BatchNorm2d(3)
        ref = _as_reference(BatchNorm2d(3))
        for bn in (fast, ref):
            bn(Tensor(x))         # populate running stats identically
            bn.eval()
        np.testing.assert_allclose(fast(Tensor(x)).data,
                                   ref(Tensor(x)).data, atol=1e-12)


class TestFusedLosses:
    def _parity(self, fused, reference, a, b):
        ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy())
        ra, rb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy())
        lf = fused(ta, tb)
        lr = reference(ra, rb)
        np.testing.assert_allclose(lf.data, lr.data, atol=1e-12)
        lf.backward()
        lr.backward()
        np.testing.assert_allclose(ta.grad, ra.grad, atol=1e-10)

    def test_mae(self):
        self._parity(mae_loss_fused, mae_loss,
                     RNG.normal(size=(8, 1)), RNG.normal(size=(8, 1)))

    def test_euclidean(self):
        self._parity(euclidean_loss_fused, euclidean_loss,
                     RNG.normal(size=(6, 4)), RNG.normal(size=(6, 4)))

    def test_smooth_l1(self):
        a = RNG.normal(size=(10,)) * 2.0
        self._parity(smooth_l1_loss_fused, smooth_l1_loss, a,
                     RNG.normal(size=(10,)))

    def test_smooth_l1_numeric(self):
        a = np.array([0.2, -0.4, 1.7, -2.3, 0.05])
        b = np.zeros(5)

        def scalar(arr):
            return float(smooth_l1_loss_fused(Tensor(arr),
                                              Tensor(b)).data)

        t = Tensor(a.copy(), requires_grad=True)
        smooth_l1_loss_fused(t, Tensor(b)).backward()
        np.testing.assert_allclose(t.grad, numeric_gradient(scalar, a.copy()),
                                   atol=1e-6)

    def test_masked_mean_pool(self):
        x = RNG.normal(size=(3, 4, 5))
        mask = sequence_mask(np.array([2, 4, 1]), 4).astype(np.float64)
        xf = Tensor(x.copy(), requires_grad=True)
        xr = Tensor(x.copy(), requires_grad=True)
        pooled = masked_mean_pool(xf, mask)
        counts = Tensor(mask.sum(axis=1, keepdims=True))
        chain = (xr * Tensor(mask[:, :, None])).sum(axis=1) / counts
        np.testing.assert_allclose(pooled.data, chain.data, atol=1e-12)
        (pooled ** 2).sum().backward()
        (chain ** 2).sum().backward()
        np.testing.assert_allclose(xf.grad, xr.grad, atol=1e-10)


class TestDtypeDiscipline:
    def test_fast_lstm_keeps_float32(self):
        """A float32 model stays float32 end to end (no silent upcast)."""
        lstm = LSTM(3, 2, rng=np.random.default_rng(3))
        for p in lstm.parameters():
            p.data = p.data.astype(np.float32)  # repro: allow[N001] exercising the low-precision path on purpose
        x = RNG.normal(size=(2, 3, 3)).astype(np.float32)  # repro: allow[N001] exercising the low-precision path on purpose
        out, fin = lstm(Tensor(x), lengths=[2, 3])
        assert out.dtype == lstm.cell.weight.dtype
        assert fin.dtype == lstm.cell.weight.dtype

    def test_fast_lstm_rejects_mismatched_input(self):
        lstm = LSTM(3, 2, rng=np.random.default_rng(3))
        for p in lstm.parameters():
            p.data = p.data.astype(np.float32)  # repro: allow[N001] exercising the low-precision path on purpose
        x = RNG.normal(size=(2, 3, 3))          # float64 input
        with pytest.raises(TypeError, match="dtype"):
            lstm(Tensor(x), lengths=[2, 3])

    def test_reference_lstm_rejects_mismatched_input(self):
        lstm = _as_reference(LSTM(3, 2, rng=np.random.default_rng(3)))
        for p in lstm.parameters():
            p.data = p.data.astype(np.float32)  # repro: allow[N001] exercising the low-precision path on purpose
        x = RNG.normal(size=(2, 3, 3))
        with pytest.raises(TypeError, match="dtype"):
            lstm(Tensor(x), lengths=[2, 3])
