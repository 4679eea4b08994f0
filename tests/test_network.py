import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (_elu, _elu_grad, _elu_slope, _step_forward_one, conv2d_by_im2col,
                     conv2d_grads_by_loops, fd_gradient, forward_breadth_first,
                     max_relative_error, naive_matmul, recurrent_backward_by_steps, run_alone,
                     sliding_conv2d)
from rcasr import ctc as ctc_mod
from rcasr import network as N
from rcasr.numerics import ParameterStore, make_rng

RNG = make_rng(40)


def single_layer_net(spec, input_dim, spans=(), seed=0):
    cfg = N.NetworkConfig(
        name="t", layers=[spec, N.linear_output(3)], residual_groups=list(spans))
    return N.build_network(cfg, input_dim=input_dim, rng=make_rng(seed))


class TestElu:
    def test_values(self):
        e = N._Elu(1.0)
        y, _ = run_alone(e, np.array([0.0, 2.0, -1.0]), False)
        assert y[0] == 0.0
        assert y[1] == 2.0
        assert y[2] == pytest.approx(np.exp(-1) - 1, abs=1e-15)

    def test_derivative_continuous_at_zero(self):
        e = N._Elu(1.0)
        left = e.backward(run_alone(e, np.array([-1e-12]), True)[1], np.ones(1))[0]
        right = e.backward(run_alone(e, np.array([1e-12]), True)[1], np.ones(1))[0]
        assert left == pytest.approx(1.0, abs=1e-11)
        assert right == 1.0

    def test_alpha_scales_negative_branch(self):
        e = N._Elu(0.5)
        y, _ = run_alone(e, np.array([-2.0]), False)
        assert y[0] == pytest.approx(0.5 * (np.exp(-2) - 1), abs=1e-15)


# signed zeros, subnormals, exp under/overflow, infinities and NaN
ELU_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-17, -1e-17,
                        800.0, -800.0, np.inf, -np.inf, np.nan])


def elu_inputs(n, seed):
    x = make_rng(seed).normal(scale=3.0, size=n)
    k = min(n, ELU_SPECIAL.size)
    x[:k] = ELU_SPECIAL[:k]
    return x


def slope_from_output(x, alpha):
    return N._elu_slope_from_output(N._elu_fwd(x, alpha), alpha)


class TestBlockedElu:
    """The mask-free blocked forms against the np.where oracles, across the
    block edges."""

    B = N._ELU_BLOCK
    SIZES = (1, B - 1, B, B + 1, 3 * B + 7)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", SIZES)
    def test_bytes_equal_oracle(self, n, alpha):
        x = elu_inputs(n, n)
        assert N._elu_fwd(x, alpha).tobytes() == _elu(x, alpha).tobytes()
        assert _elu_grad(x, alpha).tobytes() == _elu_slope(x, alpha).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", SIZES)
    def test_slope_from_output_matches_input_form(self, n, alpha):
        # y + alpha = alpha * (exp(x) - 1) + alpha rounds twice where alpha *
        # exp(x) rounds once; both are exactly 1 where y > 0
        x = elu_inputs(n, n)
        got, want = slope_from_output(x, alpha), _elu_grad(x, alpha)
        pos = N._elu_fwd(x, alpha) > 0
        assert got[pos].tobytes() == want[pos].tobytes()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        rest = ~pos & ~np.isnan(want)
        assert np.all(np.abs(got[rest] - want[rest]) <= alpha * 2.0 ** -52)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    def test_non_contiguous_input(self, alpha):
        x = elu_inputs(2 * (self.B + 5), 3).reshape(2, -1)[:, ::2]
        assert not x.flags.c_contiguous
        y = N._elu_fwd(x, alpha)
        assert y.shape == x.shape
        assert y.tobytes() == _elu(x, alpha).tobytes()
        d = N._elu_slope_from_output(y[:, ::-1], alpha)
        assert d.shape == x.shape
        assert d.tobytes() == slope_from_output(np.ascontiguousarray(x[:, ::-1]), alpha).tobytes()

    def test_out_writes_the_given_rows(self):
        x = elu_inputs(self.B + 3, 4).reshape(-1, 1)
        h = np.full((len(x) + 2, 1), 7.0)
        N._elu_fwd(x, 1.0, out=h[1:-1])
        assert h[1:-1].tobytes() == _elu(x, 1.0).tobytes()
        assert h[0, 0] == h[-1, 0] == 7.0

    @pytest.mark.parametrize("n", SIZES)
    def test_alpha_zero_equal_values(self, n):
        # 0 * (exp(x) - 1) is -0.0 in the oracle where the blocked form adds +0.0
        x = elu_inputs(n, n)
        assert np.array_equal(N._elu_fwd(x, 0.0), _elu(x, 0.0), equal_nan=True)
        assert np.array_equal(slope_from_output(x, 0.0), _elu_slope(x, 0.0), equal_nan=True)


class TestRecurrent:
    def make(self, d, h, seed=1):
        store = ParameterStore()
        return N._Recurrent(store, "r", d, h, make_rng(seed)), store

    def test_zero_weights_zero_output(self):
        layer, store = self.make(3, 4)
        for p in store.entries.values():
            p.value[...] = 0.0
        y, _ = run_alone(layer, RNG.normal(size=(6, 3)), False)
        assert np.all(y == 0.0)

    def test_single_step_has_no_recurrence(self):
        layer, store = self.make(2, 3)
        x = RNG.normal(size=(1, 2))
        y, _ = run_alone(layer, x, False)
        expected = N._elu_fwd(x[0] @ layer.w_xh.value + layer.b.value, 1.0)
        assert np.allclose(y[0], expected, atol=1e-15)

    def test_two_step_scalar_hand_unrolled(self):
        layer, store = self.make(1, 1)
        layer.w_xh.value[...] = 0.7
        layer.w_hh.value[...] = -0.4
        layer.b.value[...] = 0.1
        x = np.array([[0.5], [-1.2]])
        h1 = np.where(0.7 * 0.5 + 0.1 > 0, 0.7 * 0.5 + 0.1, np.expm1(0.7 * 0.5 + 0.1))
        a2 = 0.7 * -1.2 + -0.4 * h1 + 0.1
        h2 = a2 if a2 > 0 else np.expm1(a2)
        y, _ = run_alone(layer, x, False)
        assert y[0, 0] == pytest.approx(h1, abs=1e-15)
        assert y[1, 0] == pytest.approx(float(h2), abs=1e-15)

    def test_bptt_matches_finite_differences(self):
        layer, store = self.make(3, 4, seed=2)
        x = make_rng(3).normal(size=(4, 3))
        target = make_rng(4).normal(size=(4, 4))

        def loss():
            y, _ = run_alone(layer, x, False)
            return float(np.sum(y * target))

        y, ctx = run_alone(layer, x, False)
        dx = layer.backward(ctx, target)
        for name in ("r/W_xh", "r/W_hh", "r/b"):
            num = fd_gradient(loss, store[name].value)
            assert max_relative_error(store[name].grad, num) <= 1e-6
        assert max_relative_error(dx, fd_gradient(loss, x)) <= 1e-6

    def test_backward_matches_per_step_oracle(self):
        rng = make_rng(60)
        for seed in range(12):
            d, hid, t = (int(v) for v in rng.integers(1, 7, size=3))
            t = 1 if seed == 0 else t
            layer, store = self.make(d, hid, seed=seed)
            layer.b.value[...] = rng.normal(size=hid)
            x = rng.normal(size=(t, d))
            g = rng.normal(size=(t, hid))
            _, ctx = run_alone(layer, x, True)
            dx = layer.backward(ctx, g)
            h, (_, pre, _) = _step_forward_one(layer, x)
            want = recurrent_backward_by_steps(x, pre, h, g, layer.w_xh.value, layer.w_hh.value)
            for got, ref in zip((store["r/W_xh"].grad, store["r/W_hh"].grad, store["r/b"].grad, dx),
                                want):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12

    def test_chunk_values_equal_each_utterance_alone(self):
        lengths, d, hid = [1, 23, 9, 40, 17, 2], 5, 6
        rng = make_rng(77)
        layer, store = self.make(d, hid, seed=77)
        layer.b.value[...] = rng.normal(size=hid)
        xs = [rng.normal(size=(n, d)) for n in lengths]
        gs = [rng.normal(size=(n, hid)) for n in lengths]
        y, ctx = layer.forward(np.concatenate(xs), True, N._Chunk(lengths))
        dx = layer.backward(ctx, np.concatenate(gs))
        chunked = {name: p.grad.copy() for name, p in store.entries.items()}
        store.zero_grads()
        for (s, e), x, g in zip(ctx[2].spans, xs, gs):
            y1, ctx1 = run_alone(layer, x, True)
            assert np.max(np.abs(y[s:e] - y1)) <= 1e-12, s
            assert np.max(np.abs(dx[s:e] - layer.backward(ctx1, g))) <= 1e-12, s
        for name, p in store.entries.items():
            assert np.max(np.abs(chunked[name] - p.grad)) <= 1e-12, name


class TestConv2d:
    def make(self, c_in, c_out, seed=5):
        store = ParameterStore()
        return N._Conv2d(store, "c", c_in, c_out, make_rng(seed)), store

    def test_identity_kernel(self):
        layer, _ = self.make(1, 1)
        layer.k.value[...] = 0.0
        layer.k.value[0, 0, 1, 1] = 1.0
        layer.b.value[...] = 0.0
        x = RNG.normal(size=(1, 4, 5))
        y, _ = run_alone(layer, x, False)
        assert np.allclose(y, x, atol=1e-15)

    def test_all_ones_kernel_edge_counts(self):
        layer, _ = self.make(1, 1)
        layer.k.value[...] = 1.0
        layer.b.value[...] = 0.0
        y, _ = run_alone(layer, np.ones((1, 5, 5)), False)
        assert y[0, 2, 2] == 9.0
        assert y[0, 0, 2] == 6.0
        assert y[0, 2, 0] == 6.0
        assert y[0, 0, 0] == 4.0
        assert y[0, 4, 4] == 4.0

    def test_three_by_three_padded_construction(self):
        # 3x3 input zero-padded to 5x5, kernel slid over every 3x3 region
        layer, _ = self.make(1, 1, seed=6)
        x = RNG.normal(size=(1, 3, 3))
        y, _ = run_alone(layer, x, False)
        assert y.shape == (1, 3, 3)
        xp = np.zeros((5, 5))
        xp[1:4, 1:4] = x[0]
        k = layer.k.value[0, 0]
        manual = sum(k[di, dj] * xp[0 + di, 0 + dj] for di in range(3) for dj in range(3))
        assert y[0, 0, 0] == pytest.approx(manual + layer.b.value[0], abs=1e-12)

    def test_matches_sliding_window_oracle(self):
        for seed in range(3):
            rng = make_rng(100 + seed)
            c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            layer, _ = self.make(c_in, c_out, seed=seed)
            x = rng.normal(size=(c_in, int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            y, _ = run_alone(layer, x, False)
            ref = sliding_conv2d(x, layer.k.value, layer.b.value)
            assert np.max(np.abs(y - ref)) <= 1e-12

    def test_shape_preserved_for_random_shapes(self):
        rng = make_rng(41)
        layer, _ = self.make(2, 3)
        for _ in range(50):
            t, f = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            y, _ = run_alone(layer, rng.normal(size=(2, t, f)), False)
            assert y.shape == (3, t, f)

    def test_channel_mismatch_rejected(self):
        layer, _ = self.make(2, 3)
        with pytest.raises(ValueError, match="maps"):
            run_alone(layer, np.zeros((4, 3, 3)), False)

    def test_backward_matches_finite_differences(self):
        layer, store = self.make(2, 3, seed=7)
        x = make_rng(8).normal(size=(2, 3, 4))
        target = make_rng(9).normal(size=(3, 3, 4))

        def loss():
            y, _ = run_alone(layer, x, False)
            return float(np.sum(y * target))

        _, ctx = run_alone(layer, x, False)
        dx = layer.backward(ctx, target)
        assert max_relative_error(store["c/K"].grad, fd_gradient(loss, store["c/K"].value)) <= 1e-6
        assert max_relative_error(store["c/b"].grad, fd_gradient(loss, store["c/b"].value)) <= 1e-6
        assert max_relative_error(dx, fd_gradient(loss, x)) <= 1e-6

    def test_backward_matches_loop_oracle(self):
        rng = make_rng(61)
        for seed in range(12):
            c_in, c_out, t, f = (int(v) for v in rng.integers(1, 5, size=4))
            if seed < 2:
                t, f = (1, 1) if seed == 0 else (1, 5)
            layer, store = self.make(c_in, c_out, seed=seed)
            x = rng.normal(size=(c_in, t, f))
            g = rng.normal(size=(c_out, t, f))
            _, ctx = run_alone(layer, x, True)
            dx = layer.backward(ctx, g)
            want = conv2d_grads_by_loops(x, layer.k.value, g)
            for got, ref in zip((store["c/K"].grad, store["c/b"].grad, dx), want):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_time_tiles_match_oracles(self, monkeypatch, rows):
        # a budget of `rows` output frames of window matrix (c_in*3 x f
        # doubles each): T=7 then runs every product over one-row or ragged
        # tiles (dX tiles the 2-map gradient, so its tiles are taller than the
        # forward's)
        c_in, c_out, t, f = 3, 2, 7, 5
        monkeypatch.setattr(N, "_TILE_BYTES", rows * c_in * 3 * f * 8)
        rng = make_rng(70 + rows)
        layer, store = self.make(c_in, c_out, seed=rows)
        layer.b.value[...] = rng.normal(size=c_out)
        x = rng.normal(size=(c_in, t, f))
        g = rng.normal(size=(c_out, t, f))
        one = N._Chunk([t])
        assert len(list(N._tiles(x, one.windows))) == -(-t // rows)
        y, ctx = run_alone(layer, x, True)
        assert np.max(np.abs(y - sliding_conv2d(x, layer.k.value, layer.b.value))) <= 1e-12
        dx = layer.backward(ctx, g)
        want = conv2d_grads_by_loops(x, layer.k.value, g)
        for got, ref in zip((store["c/K"].grad, store["c/b"].grad, dx), want):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12

    def test_paper_size_matches_im2col_oracle(self):
        # RC1's 24 -> 48 layer on 3 s of audio: at the real budget the forward
        # runs 9 tiles of 35 frames, dX (48 maps) 18 of 17
        c_in, c_out, t, f = 24, 48, 300, 128
        rng = make_rng(75)
        layer, store = self.make(c_in, c_out, seed=75)
        layer.b.value[...] = rng.normal(size=c_out)
        x = rng.normal(size=(c_in, t, f))
        g = rng.normal(size=(c_out, t, f))
        assert len(list(N._tiles(x, N._Chunk([t]).windows))) == 9
        y, ctx = run_alone(layer, x, True)
        dx = layer.backward(ctx, g)
        want = conv2d_by_im2col(x, layer.k.value, layer.b.value, g)
        for got, ref in zip((y, store["c/K"].grad, store["c/b"].grad, dx), want):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("budget", [N._TILE_BYTES, 5 * 3 * 8 * 16 * 8],
                             ids=["default-budget", "several-tiles"])
    def test_chunk_values_equal_each_utterance_alone(self, monkeypatch, budget):
        # the small budget holds 5 frames of an 8-map window matrix and one
        # of a 24- or 48-map one (up to 40 tiles per utterance); the 1-map
        # forward still runs one tile per utterance
        monkeypatch.setattr(N, "_TILE_BYTES", budget)
        lengths, f = [1, 23, 9, 40, 17, 2], 16
        rng = make_rng(76)
        for c_in, c_out in ((1, 8), (8, 8), (24, 48)):
            layer, _ = self.make(c_in, c_out, seed=c_in)
            layer.b.value[...] = rng.normal(size=c_out)
            xs = [rng.normal(size=(c_in, n, f)) for n in lengths]
            gs = [rng.normal(size=(c_out, n, f)) for n in lengths]
            y, ctx = layer.forward(np.concatenate(xs, axis=1), True, N._Chunk(lengths))
            dx = layer.backward(ctx, np.concatenate(gs, axis=1))
            for (s, e), x, g in zip(ctx[2].spans, xs, gs):
                y1, ctx1 = run_alone(layer, x, True)
                assert np.array_equal(y[:, s:e], y1), (c_in, s)
                assert np.array_equal(dx[:, s:e], layer.backward(ctx1, g)), (c_in, s)

    def test_context_holds_only_padded_input(self):
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return [obj]
            if isinstance(obj, tuple):
                return [a for o in obj for a in arrays(o)]
            return []

        layer, _ = self.make(3, 4)
        x = RNG.normal(size=(3, 7, 5))
        _, ctx = run_alone(layer, x, True)
        assert ctx[1] == (3, 7, 5)
        assert max(a.size for a in arrays(ctx)) <= 3 * (7 + 2) * (5 + 2)


class TestDropout:
    def test_rate_zero_identity(self):
        d = N._Dropout(0.0)
        x = RNG.normal(size=(4, 4))
        y, _ = run_alone(d, x, True, make_rng(1))
        assert np.array_equal(y, x)

    def test_inference_identity(self):
        d = N._Dropout(0.9)
        x = RNG.normal(size=(4, 4))
        y, _ = run_alone(d, x, False)
        assert np.array_equal(y, x)

    def test_kept_fraction(self):
        d = N._Dropout(0.5)
        x = np.ones(100_000)
        y, _ = run_alone(d, x, True, make_rng(2))
        kept = np.count_nonzero(y) / x.size
        assert abs(kept - 0.5) < 0.01
        # inverted scaling keeps the expectation
        assert abs(y.mean() - 1.0) < 0.02

    def test_invalid_rate(self):
        cfg = N.NetworkConfig(name="t", layers=[N.dropout(1.0), N.linear_output(3)])
        with pytest.raises(ValueError, match=r"dropout rate= must be in \[0, 1\), got 1.0"):
            N.build_network(cfg, input_dim=4)
        with pytest.raises(ValueError, match=r"dropout rate= must be in \[0, 1\), got 1.0"):
            N.build_network(N.get_config("RC2-toy"), dropout_override=1.0)

    def test_override_checked_without_a_dropout_layer(self):
        # baseline has no dropout layer, so no _Dropout ever sees the override
        assert not any(s.kind == "dropout" for s in N.get_config("baseline").layers)
        with pytest.raises(ValueError, match=r"dropout rate= must be in \[0, 1\), got 1.5"):
            N.build_network(N.get_config("baseline"), dropout_override=1.5)


class TestResidual:
    def residual_net(self, zero_f=False):
        cfg = N.NetworkConfig(name="res", layers=[
            N.conv2d(2), N.elu(), N.conv2d(2), N.elu(), N.linear_output(3),
        ], residual_groups=[(2, 4)])
        net = N.build_network(cfg, input_dim=4, rng=make_rng(50))
        if zero_f:
            net.store["L02_conv2d/K"].value[...] = 0.0
            net.store["L02_conv2d/b"].value[...] = 0.0
        return net

    def test_zero_f_is_identity_on_nonnegative(self):
        net = self.residual_net(zero_f=True)
        block = next(s for s in net.steps if isinstance(s, N._ResidualBlock))
        x = np.abs(RNG.normal(size=(2, 3, 4)))
        y, ctx = run_alone(block, x, False)
        assert np.array_equal(y, x)
        assert ctx is None

    def test_zero_f_gradient_is_identity(self):
        net = self.residual_net(zero_f=True)
        block = next(s for s in net.steps if isinstance(s, N._ResidualBlock))
        x = np.abs(RNG.normal(size=(2, 3, 4))) + 0.1
        _, ctx = run_alone(block, x, True)
        g = RNG.normal(size=x.shape)
        dx = block.backward(ctx, g)
        assert np.array_equal(dx, g)

    def test_single_conv_f_matches_composed_oracle(self):
        cfg = N.NetworkConfig(name="res1", layers=[
            N.conv2d(1), N.elu(), N.linear_output(2),
        ], residual_groups=[(0, 2)])
        net = N.build_network(cfg, input_dim=3, rng=make_rng(51))
        block = net.steps[1]   # steps: seq->maps, block, maps->seq, affine
        assert isinstance(block, N._ResidualBlock)
        x = make_rng(52).normal(size=(1, 3, 3))
        y, _ = run_alone(block, x, False)
        k = net.store["L00_conv2d/K"].value
        b = net.store["L00_conv2d/b"].value
        expected = N._elu_fwd(x + sliding_conv2d(x, k, b), 1.0)
        assert np.max(np.abs(y - expected)) <= 1e-12

    def test_backward_matches_finite_differences(self):
        net = self.residual_net()
        block = next(s for s in net.steps if isinstance(s, N._ResidualBlock))
        x = make_rng(53).normal(size=(2, 3, 4))
        target = make_rng(54).normal(size=(2, 3, 4))

        def loss():
            y, _ = run_alone(block, x, False)
            return float(np.sum(y * target))

        _, ctx = run_alone(block, x, True)
        net.store.zero_grads()
        dx = block.backward(ctx, target)
        assert max_relative_error(dx, fd_gradient(loss, x)) <= 1e-6
        k = net.store["L02_conv2d/K"]
        assert max_relative_error(k.grad, fd_gradient(loss, k.value)) <= 1e-6


class TestDense:
    def test_backward_matches_finite_differences(self):
        store = ParameterStore()
        layer = N._Affine(store, "d", 3, 5, make_rng(55))
        x = make_rng(56).normal(size=(4, 3))
        target = make_rng(57).normal(size=(4, 5))

        def loss():
            y, _ = run_alone(layer, x, False)
            return float(np.sum(y * target))

        _, ctx = run_alone(layer, x, False)
        dx = layer.backward(ctx, target)
        assert max_relative_error(store["d/W"].grad, fd_gradient(loss, store["d/W"].value)) <= 1e-6
        assert max_relative_error(store["d/b"].grad, fd_gradient(loss, store["d/b"].value)) <= 1e-6
        assert max_relative_error(dx, fd_gradient(loss, x)) <= 1e-6

    def test_forward_matches_naive_matmul_oracle(self):
        rng = make_rng(58)
        for seed in range(10):
            t, d, units = (int(v) for v in rng.integers(1, 9, size=3))
            layer = N._Affine(ParameterStore(), "d", d, units, make_rng(seed))
            layer.b.value[...] = rng.normal(size=units)
            x = rng.normal(size=(t, d))
            y, _ = run_alone(layer, x, False)
            ref = naive_matmul(x, layer.w.value) + layer.b.value
            assert np.max(np.abs(y - ref)) <= 1e-12


# frozen totals hand-summed from the layer formulas (input 39, output 62)
EXPECTED_PARAMS = {
    "RC1": 292079, "RC2": 215974, "RC3": 226287, "RC4": 150182,
    "RC5": 16558, "RC6": 16710,
    "CR1": 18689, "CR2": 20710, "CR3": 23174, "CR4": 16667,
    "Res-RC2": 215974, "Res-CR2": 20710,
}

# targets for the representative reconstructions, +-15%
PARAM_TARGETS = {"CR1": 19000, "CR2": 22000, "CR3": 26000, "CR4": 18000,
                 "RC5": 15000, "RC6": 15000}


class TestCatalog:
    def test_rc1_schedule(self):
        cfg = N.catalog()["RC1"]
        kinds = [s.kind for s in cfg.layers]
        assert kinds.count("recurrent") == 4
        conv_maps = [s.value for s in cfg.layers if s.kind == "conv2d"]
        assert conv_maps == [24, 24, 48, 48, 24, 24, 12, 12, 6, 6, 3, 3]
        dense_units = [s.value for s in cfg.layers if s.kind == "dense"]
        assert dense_units == [256]
        assert cfg.layers[-1].kind == "linear_output" and cfg.layers[-1].value == 62
        assert all(s.value == 128 for s in cfg.layers if s.kind == "recurrent")

    def test_rc2_schedule(self):
        cfg = N.catalog()["RC2"]
        conv_maps = [s.value for s in cfg.layers if s.kind == "conv2d"]
        assert conv_maps == [16] * 6 + [8, 8, 4, 4, 2, 2]

    def test_res_rc2_has_four_spans_one_per_run(self):
        cfg = N.catalog()["Res-RC2"]
        assert len(cfg.residual_groups) == 4
        for a, b in cfg.residual_groups:
            maps = {cfg.layers[i].value for i in range(a, b)
                    if cfg.layers[i].kind == "conv2d"}
            assert len(maps) == 1

    def test_res_cr2_has_two_spans(self):
        assert len(N.catalog()["Res-CR2"].residual_groups) == 2

    def test_frozen_param_counts(self):
        cat = N.catalog()
        for name, expected in EXPECTED_PARAMS.items():
            net = N.build_network(cat[name], rng=make_rng(0))
            assert net.store.n_params() == expected, name

    def test_representative_counts_within_15_percent(self):
        cat = N.catalog()
        for name, target in PARAM_TARGETS.items():
            net = N.build_network(cat[name], rng=make_rng(0))
            assert abs(net.store.n_params() - target) <= 0.15 * target, name

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="no layers"):
            N.NetworkConfig(name="empty", layers=[]).validate()

    def test_final_layer_must_be_linear(self):
        cfg = N.NetworkConfig(name="x", layers=[N.dense(4)])
        with pytest.raises(ValueError, match="linear_output"):
            cfg.validate()

    def test_invalid_span_rejected(self):
        cfg = N.NetworkConfig(name="x", layers=[
            N.conv2d(2), N.elu(), N.conv2d(3), N.elu(), N.linear_output(3),
        ], residual_groups=[(2, 4)])
        with pytest.raises(ValueError, match="residual span"):
            N.build_network(cfg, input_dim=4, rng=make_rng(0))

    def test_overlapping_spans_rejected(self):
        cfg = N.NetworkConfig(name="x", layers=[
            N.conv2d(2), N.elu(), N.conv2d(2), N.elu(), N.linear_output(3),
        ], residual_groups=[(0, 4), (2, 4)])
        with pytest.raises(ValueError, match="overlap"):
            cfg.validate()

    @pytest.mark.parametrize("spec, message", [
        (N.LayerSpec(kind="conv2d"), "conv2d needs feature_maps="),
        (N.LayerSpec(kind="dense"), "dense needs units="),
        (N.LayerSpec(kind="pool", value=2), "unknown layer kind"),
    ], ids=["conv2d-no-maps", "dense-no-units", "unknown-kind"])
    def test_layer_takes_only_its_own_key(self, spec, message):
        cfg = N.NetworkConfig(name="x", layers=[spec, N.linear_output(3)])
        with pytest.raises(ValueError, match=message):
            cfg.validate()

    def test_omitted_values_take_kind_defaults(self):
        cfg = N.parse_config("recurrent\ndropout\ndense units=5\nelu\nlinear_output\n")
        net = N.build_network(cfg, input_dim=4, rng=make_rng(0))
        assert net.store["L00_recurrent/W_hh"].value.shape == (128, 128)
        assert (net.steps[1].rate, net.steps[3].alpha, net.output_units) == (0.1, 1.0, 62)

    def test_config_text_round_trip(self):
        for name in ("RC2", "Res-RC2", "CR2-toy"):
            cfg = N.catalog()[name]
            text = N.dump_config(cfg)
            back = N.parse_config(text)
            assert back.name == cfg.name
            assert back.layers == cfg.layers
            assert back.residual_groups == sorted(cfg.residual_groups)


# config text near the grammar: well-formed layer, span and name lines,
# then at most one line with a value of any kind the parser converts, or
# arbitrary words
_KINDS = sorted(N.LAYER_PARAMS)
_GOOD_LINE = st.one_of(
    st.sampled_from(_KINDS),
    st.builds(lambda kind, v: f"{kind} {N.LAYER_PARAMS[kind][0]}={v}",
              st.sampled_from(_KINDS), st.integers(1, 3)),
    st.builds("residual {}..{}".format, st.integers(-1, 10), st.integers(-1, 10)),
    st.text(max_size=8).map("network {}".format))
_ANY_LINE = st.one_of(
    st.builds(lambda kind, v: f"{kind} {N.LAYER_PARAMS[kind][0]}={v}", st.sampled_from(_KINDS),
              st.one_of(st.integers(-1, 20).map(str), st.floats().map(repr), st.text(max_size=6))),
    st.builds(lambda head, words: " ".join([head] + words),
              st.sampled_from(_KINDS + ["network", "residual"]), st.lists(st.text(max_size=8))),
    st.lists(st.text(max_size=10), max_size=4).map(" ".join))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parse_config_raises_only_value_errors(data):
    lines = data.draw(st.lists(_GOOD_LINE, max_size=10), label="lines")
    if data.draw(st.booleans(), label="ends in output"):
        lines.append("linear_output")
    if data.draw(st.booleans(), label="odd line"):
        lines.insert(data.draw(st.integers(0, len(lines)), label="at"),
                     data.draw(_ANY_LINE, label="odd"))
    try:
        N.parse_config("\n".join(lines))
    except ValueError:
        pass


# a layer of each kind with its value omitted or drawn from its valid range
_LAYER_VALUES = {
    "recurrent": st.integers(1, 256), "conv2d": st.integers(1, 64), "dense": st.integers(1, 256),
    "elu": st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    "dropout": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    "linear_output": st.integers(1, 100),
}
_LAYER = st.sampled_from(sorted(set(_LAYER_VALUES) - {"linear_output"})).flatmap(
    lambda kind: st.builds(N.LayerSpec, st.just(kind),
                           _LAYER_VALUES[kind] if N.LAYER_PARAMS[kind][2] is None
                           else st.none() | _LAYER_VALUES[kind]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layers=st.lists(_LAYER, max_size=8),
       out=st.none() | _LAYER_VALUES["linear_output"])
@example(layers=[N.elu(1.2345678), N.dropout(0.123456789)], out=None)
def test_config_text_round_trips_every_value(layers, out):
    cfg = N.NetworkConfig(name="fuzz", layers=layers + [N.LayerSpec("linear_output", out)])
    back = N.parse_config(N.dump_config(cfg))
    assert back.layers == cfg.layers


class TestNetworkForward:
    def test_rc_shapes(self):
        net = N.build_network(N.catalog()["RC2-toy"], output_units=5, rng=make_rng(60))
        y, _ = net.forward(make_rng(61).normal(size=(12, 39)))
        assert y.shape == (12, 5)

    def test_cr_shapes(self):
        net = N.build_network(N.catalog()["CR2-toy"], output_units=7, rng=make_rng(62))
        y, _ = net.forward(make_rng(63).normal(size=(9, 39)))
        assert y.shape == (9, 7)

    def test_wrong_input_width_rejected(self):
        net = N.build_network(N.catalog()["baseline"], rng=make_rng(64))
        with pytest.raises(ValueError):
            net.forward(np.zeros((5, 7)))

    def test_training_dropout_needs_rng(self):
        net = N.build_network(N.catalog()["RC2-toy"], output_units=4, rng=make_rng(65))
        with pytest.raises(ValueError, match="rng"):
            net.forward(np.zeros((4, 39)), training=True)

    def test_steps_run_in_another_network(self):
        # a step keeps nothing between forwards, so a Network built around
        # another network's steps computes the same logits
        base = N.build_network(N.catalog()["Res-CR2-toy"], output_units=5, rng=make_rng(69))
        net = N.Network(base.config, base.store, base.steps, base.input_dim, base.output_units)
        xs = [make_rng(70 + i).normal(size=(t, 39)) for i, t in enumerate((7, 1, 12))]
        assert np.array_equal(net.forward(xs)[0], base.forward(xs)[0])
        assert np.array_equal(net.forward(xs, True, make_rng(3))[0],
                              base.forward(xs, True, make_rng(3))[0])

    def test_inference_keeps_no_contexts(self):
        net = N.build_network(N.catalog()["RC-small"], output_units=4, rng=make_rng(71))
        y, ctxs = net.forward(make_rng(72).normal(size=(6, 39)))
        assert ctxs is None
        with pytest.raises(ValueError, match="training-mode forward"):
            net.backward(ctxs, np.ones_like(y))

    @pytest.mark.parametrize("name, bound_3s, bound_30s", [("RC1", 16, 40), ("Res-RC2", 16, 32)])
    def test_inference_memory_bounded_in_t(self, name, bound_3s, bound_30s):
        # MiB traced at 3 s and 30 s of audio.  While each conv ran over the
        # whole utterance, RC1 traced 31.9 and 285, Res-RC2 18.9 and 188;
        # streamed conv stages leave 7.9 and 29.4, and 8.1 and 23.6, most of
        # it the recurrent stack's and the logits' O(T) arrays
        net = N.build_network(N.catalog()[name], output_units=62, rng=make_rng(73))
        for frames, bound_mib in ((300, bound_3s), (3000, bound_30s)):
            x = make_rng(74).normal(size=(frames, 39))
            tracemalloc.start()
            try:
                net.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound_mib * 2**20, frames

    def test_residual_vs_plain_same_params(self):
        plain = N.build_network(N.catalog()["RC2-toy"], rng=make_rng(66))
        res = N.build_network(N.catalog()["Res-RC2-toy"], rng=make_rng(66))
        assert plain.store.names() == res.store.names()
        for name in plain.store.names():
            assert np.array_equal(plain.store[name].value, res.store[name].value)


def stage_block(net):
    """Frames per block of net's first conv stage: one tile of its widest conv."""
    a, _, widest, _ = net.conv_stages[0]
    widths = [s.hidden for s in net.steps[:a] if isinstance(s, N._Recurrent)]
    return N._tile_rows(widest, widths[-1] if widths else net.input_dim, 8)


STREAMED = [name for name, cfg in N.catalog().items()
            if any(spec.kind == "conv2d" for spec in cfg.layers)]


class TestStreamedInference:
    """Inference runs conv stages depth first in blocks; the logits must be
    those of each step run over the whole chunk in turn."""

    @pytest.mark.parametrize("name", STREAMED)
    def test_logits_match_breadth_first(self, name):
        net = N.build_network(N.catalog()[name], output_units=62, rng=make_rng(80))
        block = stage_block(net)
        rng = make_rng(81)
        cases = [[t] for t in (1, 2, block - 1, block, block + 1, 300)]
        cases.append([block + 1, 1, 2 * block + 3, 2])
        # after a recurrent stack the blocks' GEMMs give the whole chunk's
        # bits; on the 39-wide input features of a CR network they round
        # differently (5.3e-15 at most here)
        exact = net.conv_stages[0][0] > 1
        for lengths in cases:
            xs = [rng.normal(size=(t, 39)) for t in lengths]
            got, want = net.forward(xs)[0], forward_breadth_first(net, xs)
            assert got.shape == want.shape
            if exact:
                assert np.array_equal(got, want), lengths
            else:
                assert np.max(np.abs(got - want)) <= 1e-12, lengths

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("name", ["RC2-toy", "Res-RC2-toy", "Res-CR2-toy"])
    def test_blocks_shorter_than_the_stage(self, monkeypatch, name, rows):
        # blocks of fewer frames than the stage has convs: a deep conv gets
        # no frame from some blocks, and a residual branch lags its shortcut
        # by more than a block
        net = N.build_network(N.catalog()[name], output_units=5, rng=make_rng(82))
        monkeypatch.setattr(N, "_TILE_BYTES", rows * N._TILE_BYTES // stage_block(net))
        assert stage_block(net) == rows
        xs = [make_rng(83 + i).normal(size=(t, 39)) for i, t in enumerate((1, 2, 7, 3, 20))]
        assert np.array_equal(net.forward(xs)[0], forward_breadth_first(net, xs))

    def test_no_frames(self):
        net = N.build_network(N.catalog()["Res-RC2-toy"], output_units=5, rng=make_rng(84))
        xs = [np.zeros((0, 39)), make_rng(85).normal(size=(4, 39))]
        y, _ = net.forward(xs)
        assert np.array_equal(y, forward_breadth_first(net, xs))
        assert net.forward(np.zeros((0, 39)))[0].shape == (0, 5)


def test_full_tiny_network_gradient():
    cfg = N.NetworkConfig(name="tiny", layers=[
        N.recurrent(3), N.conv2d(2), N.elu(), N.conv2d(2), N.elu(),
        N.dense(4), N.elu(), N.linear_output(4),
    ], residual_groups=[(3, 5)])
    net = N.build_network(cfg, input_dim=2, rng=make_rng(67))
    assert net.store.n_params() <= 500
    x = make_rng(68).normal(size=(5, 2))
    labels = (0, 1)

    def loss():
        logits, _ = net.forward(x)
        val, _ = ctc_mod.ctc_loss_and_grad(logits, labels)
        return val

    logits, ctxs = net.forward(x, training=True)
    _, dlogits = ctc_mod.ctc_loss_and_grad(logits, labels)
    net.store.zero_grads()
    net.backward(ctxs, dlogits)
    for name, p in net.store.entries.items():
        assert max_relative_error(p.grad, fd_gradient(loss, p.value)) <= 1e-4, name
