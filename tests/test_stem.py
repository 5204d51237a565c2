import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from chain_ops import concat, conv2d, leaky_relu, max_pool_time
from conftest import model_config, stem_config

from tmknet import autodiff as ad
from tmknet.autodiff import Tape
from tmknet.errors import ConfigError
from tmknet.model import TMKNet
from tmknet.stem import (
    BN_EPS,
    BN_MOMENTUM,
    MSS_KERNELS,
    BnState,
    StemConfig,
    euclid_batchnorm,
    mrt_branches,
    mrt_forward,
    mss_branches,
    mss_forward,
    temporal_kernel_size,
)


def make_cfg(c=8, fs=2000.0, r_data=0.2, r_res=(1 / 16, 1 / 32, 1 / 64),
             n_t=4, n_s=6, pool=4, kernels=MSS_KERNELS):
    half = c // 2
    return stem_config(
        fs=fs, r_data=r_data, r_resolution=r_res, n_t=n_t, n_s=n_s,
        flexor_ids=tuple(range(half)), extensor_ids=tuple(range(half, c)),
        proximal_ids=tuple(range(0, c, 2)), distal_ids=tuple(range(1, c, 2)),
        pool_size=pool, mss_kernels=kernels,
    )


def stem_params(cfg):
    """Copies of the stem parameters TMKNet initializes for `cfg`."""
    model = TMKNet(model_config(cfg, n_b=1, n_c=2), seed=0)
    return {k: p.value.copy() for k, p in model.params.items()
            if k.startswith(("mrt.", "mss."))}


def lift_params(tape, params):
    return {k: tape.leaf(v) for k, v in params.items()}


class TestTemporalKernelSize:
    def test_values(self):
        assert temporal_kernel_size(2000, 1 / 5, 1 / 16) == 25
        assert temporal_kernel_size(2000, 1 / 5, 1 / 64) == 6   # floor(6.25)
        assert temporal_kernel_size(4000, 1 / 4, 1 / 32) == 31  # floor(31.25)

    def test_minimum_one(self):
        assert temporal_kernel_size(100, 0.01, 0.01) == 1


class TestStemConfig:
    def test_shape_laws(self, rng):
        cfg = make_cfg(c=14, fs=2000.0, r_data=1 / 5, r_res=(1 / 16, 1 / 32, 1 / 64), pool=4)
        assert cfg.temporal_kernel_sizes == (25, 12, 6)
        tape = Tape()
        params = lift_params(tape, stem_params(cfg))
        z = mrt_branches(tape.leaf(rng.normal(size=(1, 1, 14, 400))), params, cfg)
        assert z.value.shape[3] == 94 + 97 + 98  # (400 - k + 1) // 4 per kernel
        assert mss_branches(z, params, cfg).value.shape[2] == 1 + 1 + 1 + 2 + 7

    def test_mss_sensor_law_large(self, rng):
        cfg = make_cfg(c=64)
        tape = Tape()
        z = tape.leaf(rng.normal(size=(1, cfg.n_t, 64, 3)))
        out = mss_branches(z, lift_params(tape, stem_params(cfg)), cfg)
        assert out.value.shape[2] == 37  # 1+1+1+2+32

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            make_cfg(r_data=1.5)

    def test_bad_partition(self):
        with pytest.raises(ConfigError):
            stem_config(fs=100, r_data=0.5, r_resolution=(0.5,), n_t=2, n_s=2,
                        flexor_ids=(0, 1), extensor_ids=(1, 2),
                        proximal_ids=(0, 1), distal_ids=(2, 3))

    @pytest.mark.parametrize("slope", [-3.0, 0.0, 1.0, 1.5, float("nan")])
    def test_leaky_slope_outside_unit_interval(self, slope):
        with pytest.raises(ConfigError, match="leaky_slope"):
            dataclasses.replace(make_cfg(), leaky_slope=slope)

    @pytest.mark.parametrize("fields", [{"r_res": ()}, {"kernels": ()}],
                             ids=["no-temporal-branch", "no-spatial-kernel"])
    def test_empty_stem_rejected(self, fields):
        with pytest.raises(ConfigError, match="at least one temporal branch"):
            make_cfg(**fields)

    def test_odd_sensor_count(self):
        with pytest.raises(ConfigError):
            stem_config(fs=100, r_data=0.5, r_resolution=(0.5,), n_t=2, n_s=2,
                        flexor_ids=(0,), extensor_ids=(1, 2),
                        proximal_ids=(0,), distal_ids=(1, 2))


class TestMrt:
    def test_unit_kernel_broadcasts_input(self, rng):
        # one branch, kernel 1, pool 1, unit weight, zero bias, positive input
        cfg = make_cfg(fs=1.0, r_data=1.0, r_res=(1.0,), n_t=3, pool=1)
        assert cfg.temporal_kernel_sizes == (1,)
        x = rng.uniform(0.5, 1.5, size=(2, 1, 8, 10))
        params = {"mrt.branch0.weight": np.ones((3, 1, 1, 1)),
                  "mrt.branch0.bias": np.zeros(3)}
        tape = Tape()
        out = mrt_branches(tape.leaf(x), lift_params(tape, params), cfg)
        assert out.value.shape == (2, 3, 8, 10)
        for ch in range(3):
            assert np.allclose(out.value[:, ch], x[:, 0])

    def test_output_time_matches_law(self, rng):
        cfg = make_cfg(c=8, fs=2000.0, r_data=1 / 5, r_res=(1 / 16, 1 / 32, 1 / 64), pool=4)
        params = stem_params(cfg)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(3, 1, 8, 400)))
        state = BnState.create(cfg.n_t)
        out = mrt_forward(x, lift_params(tape, params), cfg, state, "train")
        assert out.value.shape == (3, cfg.n_t, 8, 94 + 97 + 98)

    def test_negative_input_scaled_by_slope(self):
        cfg = make_cfg(fs=1.0, r_data=1.0, r_res=(1.0,), n_t=2, pool=1)
        x = -np.ones((1, 1, 8, 6))
        params = {"mrt.branch0.weight": np.ones((2, 1, 1, 1)),
                  "mrt.branch0.bias": np.zeros(2)}
        tape = Tape()
        out = mrt_branches(tape.leaf(x), lift_params(tape, params), cfg)
        assert np.allclose(out.value, -0.01)

    def test_pool_larger_than_conv_output(self, rng):
        # kernel 25 on 30 samples leaves 6 conv samples, fewer than the pool
        cfg = make_cfg(c=8, fs=2000.0, r_data=1 / 5, r_res=(1 / 16,), pool=7)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(2, 1, 8, 30)))
        with pytest.raises(ConfigError, match="pool size 7 exceeds"):
            mrt_branches(x, lift_params(tape, stem_params(cfg)), cfg)

    def test_kernel_larger_than_window(self, rng):
        cfg = make_cfg(c=8, fs=2000.0, r_data=1 / 5, r_res=(1 / 16,), pool=1)
        params = stem_params(cfg)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(2, 1, 8, 10)))  # t=10 < kernel 25
        with pytest.raises(ConfigError):
            mrt_branches(x, lift_params(tape, params), cfg)


class TestMss:
    def test_output_shape(self, rng):
        cfg = make_cfg(c=8, n_t=3, n_s=5)
        params = stem_params(cfg)
        tape = Tape()
        z = tape.leaf(rng.normal(size=(2, 3, 8, 7)))
        state = BnState.create(cfg.n_s)
        out = mss_forward(z, lift_params(tape, params), cfg, state, "train")
        assert out.value.shape == (2, 5, 1 + 1 + 1 + 2 + 4, 7)

    def test_global_branch_sums_ones(self):
        cfg = make_cfg(c=8, n_t=3, n_s=2, kernels=("global",))
        z = np.ones((1, 3, 8, 4))
        params = {"mss.global.weight": np.ones((2, 3, 8, 1)),
                  "mss.global.bias": np.zeros(2)}
        tape = Tape()
        out = mss_branches(tape.leaf(z), lift_params(tape, params), cfg)
        assert out.value.shape == (1, 2, 1, 4)
        assert np.allclose(out.value, 8 * 3)  # c * n_t

    def test_gathered_branches_follow_index_lists(self, rng):
        # permuting the sensors while remapping the index lists to gather the
        # same rows in the same order leaves flexor/extensor/prox-distal
        # branch outputs unchanged
        c = 8
        cfg = make_cfg(c=c, n_t=2, n_s=3, kernels=("flexor", "extensor", "proximal_distal"))
        params = stem_params(cfg)
        z = rng.normal(size=(2, 2, c, 5))
        perm = rng.permutation(c)
        inv = np.argsort(perm)
        z_perm = z[:, :, perm, :]
        cfg_perm = StemConfig(
            fs=cfg.fs, r_data=cfg.r_data, r_resolution=cfg.r_resolution,
            n_t=cfg.n_t, n_s=cfg.n_s,
            flexor_ids=tuple(inv[list(cfg.flexor_ids)]),
            extensor_ids=tuple(inv[list(cfg.extensor_ids)]),
            proximal_ids=tuple(inv[list(cfg.proximal_ids)]),
            distal_ids=tuple(inv[list(cfg.distal_ids)]),
            pool_size=cfg.pool_size, leaky_slope=cfg.leaky_slope, mss_kernels=cfg.mss_kernels,
        )
        t1, t2 = Tape(), Tape()
        out1 = mss_branches(t1.leaf(z), lift_params(t1, params), cfg)
        out2 = mss_branches(t2.leaf(z_perm), lift_params(t2, params), cfg_perm)
        assert np.allclose(out1.value, out2.value)

    def test_dilated_depends_on_raw_order(self, rng):
        cfg = make_cfg(c=8, n_t=2, n_s=3, kernels=("dilated",))
        params = stem_params(cfg)
        z = rng.normal(size=(1, 2, 8, 5))
        t1, t2 = Tape(), Tape()
        out1 = mss_branches(t1.leaf(z), lift_params(t1, params), cfg)
        out2 = mss_branches(t2.leaf(z[:, :, ::-1, :].copy()), lift_params(t2, params), cfg)
        assert not np.allclose(out1.value, out2.value)


class TestEuclidBatchnorm:
    def _norm(self, x, mode, state=None, gamma=None, beta=None):
        ch = x.shape[1]
        state = state or BnState.create(ch)
        tape = Tape()
        out = euclid_batchnorm(
            tape.leaf(x),
            tape.leaf(np.ones(ch) if gamma is None else gamma),
            tape.leaf(np.zeros(ch) if beta is None else beta),
            state, mode,
        )
        return out.value, state

    def test_train_standardizes(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(6, 3, 4, 5))
        out, _ = self._norm(x, "train")
        for ch in range(3):
            vals = out[:, ch]
            assert abs(vals.mean()) < 1e-6
            assert abs(vals.var() - 1.0) < 1e-6

    def test_constant_channel_maps_to_zero(self):
        x = np.full((4, 2, 3, 3), 7.0)
        out, _ = self._norm(x, "train")
        assert np.allclose(out, 0.0)

    def test_running_mean_momentum(self, rng):
        x = rng.normal(loc=5.0, size=(8, 2, 3, 4))
        _, state = self._norm(x, "train")
        batch_mean = x.mean(axis=(0, 2, 3))
        assert np.allclose(state.mean, 0.1 * batch_mean)

    def test_eval_before_training_fails(self, rng):
        with pytest.raises(ConfigError):
            self._norm(rng.normal(size=(4, 2, 3, 3)), "eval")

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(8, 2, 3, 4))
        _, state = self._norm(x, "train")
        y = rng.normal(size=(3, 2, 3, 4))
        out, _ = self._norm(y, "eval", state=state)
        expected = (y - state.mean.reshape(1, 2, 1, 1)) / np.sqrt(
            state.var.reshape(1, 2, 1, 1) + 1e-8
        )
        assert np.allclose(out, expected)

    def test_train_needs_two_samples(self, rng):
        with pytest.raises(ValueError):
            self._norm(rng.normal(size=(1, 2, 3, 3)), "train")

    def test_scale_shift_applied(self, rng):
        x = rng.normal(size=(6, 2, 2, 2))
        gamma = np.array([2.0, 0.5])
        beta = np.array([1.0, -1.0])
        out, _ = self._norm(x, "train", gamma=gamma, beta=beta)
        for ch in range(2):
            assert abs(out[:, ch].mean() - beta[ch]) < 1e-6
            assert abs(out[:, ch].var() - gamma[ch] ** 2) < 1e-5


def chain_batchnorm(x, gamma, beta, state, mode):
    """Oracle: euclid_batchnorm as the 11-node chain of tape primitives it
    was recorded as before it became one node."""
    ch = x.value.shape[1]
    shape = (1, ch, 1, 1)
    if mode == "train":
        mu = ad.mean(x, axis=(0, 2, 3), keepdims=True)
        xc = ad.sub(x, mu)
        var = ad.mean(ad.mul(xc, xc), axis=(0, 2, 3), keepdims=True)
        xn = ad.mul(xc, ad.power(ad.add(var, BN_EPS), -0.5))
        m = BN_MOMENTUM
        state.mean = (1 - m) * state.mean + m * mu.value.reshape(ch)
        state.var = (1 - m) * state.var + m * var.value.reshape(ch)
        state.initialized = True
    else:
        xc = ad.sub(x, state.mean.reshape(shape))
        xn = ad.mul(xc, (state.var.reshape(shape) + BN_EPS) ** -0.5)
    return ad.add(ad.mul(xn, ad.reshape(gamma, shape)), ad.reshape(beta, shape))


class TestBatchnormMatchesChain:
    """The one-node batch norm gives the chain's bits and memory order: output,
    every gradient and the running statistics. Shapes are odd; the large one crosses numpy's
    temporary-reuse threshold (256 KiB). The input and the upstream gradient
    come C-ordered or channel-fastest, the layout of a lone MSS kernel's conv
    output."""

    LAYOUTS = {"c": (0, 1, 2, 3), "channel_fastest": (0, 2, 3, 1)}

    @staticmethod
    def _run(bn, x, gamma, beta, g_perm, g, state, mode, gamma_grad):
        tape = Tape()
        xv = tape.leaf(x, requires_grad=True)
        gv = tape.leaf(gamma, requires_grad=gamma_grad)
        bv = tape.leaf(beta, requires_grad=gamma_grad)
        out = bn(xv, gv, bv, state, mode)
        nodes = len(tape._nodes)
        # hand `out` the gradient g, in the memory order g_perm gives it
        tape.backward(tape.record((out,), np.zeros(()), lambda _: (g.transpose(np.argsort(g_perm)),)))
        grads = [xv.grad] + ([gv.grad, bv.grad] if gamma_grad else [])
        return nodes, [out.value, *grads, state.mean, state.var]

    @pytest.mark.parametrize("x_layout,g_layout", [("c", "c"), ("channel_fastest", "c"),
                                                   ("c", "channel_fastest")])
    @pytest.mark.parametrize("shape", [(3, 5, 2, 7), (21, 16, 9, 31)])
    @pytest.mark.parametrize("mode,gamma_grad", [("train", True), ("eval", False),
                                                 ("eval", True)])
    def test_bit_identical(self, rng, shape, x_layout, g_layout, mode, gamma_grad):
        ch = shape[1]
        x_perm, g_perm = self.LAYOUTS[x_layout], self.LAYOUTS[g_layout]
        x = rng.normal(loc=1.5, scale=2.0, size=[shape[i] for i in x_perm])
        x = x.transpose(np.argsort(x_perm))
        g = rng.normal(size=[shape[i] for i in g_perm])
        gamma, beta = rng.normal(size=ch), rng.normal(size=ch)
        mean, var = rng.normal(size=ch), rng.uniform(0.5, 2.0, size=ch)
        results = []
        for bn in (chain_batchnorm, euclid_batchnorm):
            state = BnState(mean=mean.copy(), var=var.copy())
            state.initialized = True
            results.append(self._run(bn, x, gamma, beta, g_perm, g, state, mode, gamma_grad))
        (_, want), (nodes, got) = results
        # strides too: upstream ops round by the memory order of what they get
        assert [(a.strides, a.tobytes()) for a in got] == [(a.strides, a.tobytes()) for a in want]
        assert nodes == 1

    def test_frozen_input_still_gives_affine_grads(self, rng):
        x = rng.normal(size=(3, 5, 2, 7))
        gamma, beta = rng.normal(size=5), rng.normal(size=5)
        g = rng.normal(size=x.shape)
        grads = []
        for bn in (chain_batchnorm, euclid_batchnorm):
            tape = Tape()
            gv, bv = tape.leaf(gamma, True), tape.leaf(beta, True)
            out = bn(tape.leaf(x), gv, bv, BnState.create(5), "train")
            tape.backward(ad.sum_(ad.mul(out, g)))
            grads.append([gv.grad.tobytes(), bv.grad.tobytes()])
        assert grads[0] == grads[1]


def chain_mrt_branches(x, params, cfg):
    """Oracle: mrt_branches as the chain it was recorded as before it became
    one node: conv2d, leaky_relu and max_pool_time per branch, then concat."""
    outs = []
    for i in range(len(cfg.r_resolution)):
        z = conv2d(x, params[f"mrt.branch{i}.weight"], params[f"mrt.branch{i}.bias"])
        z = leaky_relu(z, cfg.leaky_slope)
        outs.append(max_pool_time(z, cfg.pool_size))
    return outs[0] if len(outs) == 1 else concat(outs, axis=3)


def chain_mss_branches(z_t, params, cfg):
    """Oracle: mss_branches as the chain it was recorded as before it became
    one node: gather, conv2d and leaky_relu per kernel, then concat."""
    outs = []
    for name, (rows, _, stride, dilation) in cfg.mss_geometry.items():
        z = z_t if rows is None else ad.gather(z_t, rows, axis=2)
        z = conv2d(z, params[f"mss.{name}.weight"], params[f"mss.{name}.bias"],
                   stride=(stride, 1), dilation=(dilation, 1))
        outs.append(leaky_relu(z, cfg.leaky_slope))
    return outs[0] if len(outs) == 1 else concat(outs, axis=2)


class TestStemMatchesChain:
    """Each stem layer before batch norm is one tape node with the chain's
    bits and memory order: output, input gradient, and every weight and bias
    gradient, for a training step (parameters need gradients), saliency (the
    input does), both, and a forward that needs none."""

    # make_cfg arguments, batch, window length; paper kernels 6, 3 and 1 give
    # conv outputs of 123, 126 and 128 samples, and `odd` pools by 3. With a
    # batch of one, some patch matrices are views rather than copies, and
    # their product rounds differently
    SHAPES = {
        "paper": (dict(fs=512.0, r_data=0.2, n_t=64, n_s=40), 6, 128),
        "desk": (dict(fs=256.0, r_data=0.25, n_t=6, n_s=10), 5, 64),
        "odd": (dict(fs=256.0, r_data=0.25, n_t=3, n_s=4, pool=3), 3, 71),
        "batch_of_one": (dict(fs=256.0, r_data=0.25, n_t=6, n_s=10), 1, 64),
    }
    # input needs a gradient, parameters need gradients; a `_split` mode runs
    # the node's units on worker threads (`ad.run_units`) whatever their size
    MODES = {"train": (False, True), "saliency": (True, False), "both": (True, True),
             "no_grad": (False, False), "train_split": (False, True),
             "saliency_split": (True, False), "both_split": (True, True)}

    @staticmethod
    def _order(a):
        return a.shape, [st for st, n in zip(a.strides, a.shape) if n > 1]

    def _compare(self, oracle, layer, cfg, x, params, g, mode):
        x_grad, p_grad = self.MODES[mode]
        results = []
        with pytest.MonkeyPatch.context() as patch:
            if mode.endswith("_split"):
                patch.setattr(ad, "_pooled", lambda unit_bytes: True)
            for fn in (oracle, layer):
                tape = Tape()
                xv = tape.leaf(x, requires_grad=x_grad)
                pv = {k: tape.leaf(v, requires_grad=p_grad) for k, v in params.items()}
                out = fn(xv, pv, cfg)
                nodes = len(tape._nodes)
                arrays = [out.value]
                if x_grad or p_grad:
                    # upstream gradient C-ordered, as batch norm hands it back
                    tape.backward(ad.sum_(ad.mul(out, g)))
                    arrays += [xv.grad] if x_grad else []
                    arrays += [pv[k].grad for k in sorted(pv)] if p_grad else []
                results.append((nodes, arrays))
        (_, want), (nodes, got) = results
        assert len(got) == len(want)
        for a, b in zip(got, want):
            # memory order too, which later sums round by; an axis of length
            # one has no order, and numpy gives it arbitrary strides
            assert self._order(a) == self._order(b)
            assert a.tobytes() == b.tobytes()
        assert nodes == (1 if x_grad or p_grad else 0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("signal", ["normal", "ties", "nan"])
    @pytest.mark.parametrize("branches", ["three", "single"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_mrt_bit_identical(self, rng, shape, branches, signal, mode):
        kwargs, bsz, t = self.SHAPES[shape]
        if branches == "single":
            kwargs = dict(kwargs, r_res=(1 / 16,))
        cfg = make_cfg(**kwargs)
        params = {k: v for k, v in stem_params(cfg).items() if k.startswith("mrt.branch")}
        x = rng.normal(size=(bsz, 1, cfg.sensors, t))
        if signal == "ties":
            # integer samples and weights: equal conv outputs in most windows
            x = np.round(2 * x)
            params = {k: np.round(2 * v) if k.endswith("weight") else np.zeros_like(v)
                      for k, v in params.items()}
        elif signal == "nan":
            x[0, 0, 1, 5] = x[-1, 0, 3, 40:43] = np.nan
        width = sum((t - k + 1) // cfg.pool_size for k in cfg.temporal_kernel_sizes)
        g = rng.normal(size=(bsz, cfg.n_t, cfg.sensors, width))
        self._compare(chain_mrt_branches, mrt_branches, cfg, x, params, g, mode)

    KERNEL_SETS = {
        "all": MSS_KERNELS,
        "no_mss": ("global",),
        "no_global": ("flexor", "extensor", "proximal_distal", "dilated"),
        "no_flexor_extensor": ("global", "proximal_distal", "dilated"),
        "no_proximal_distal": ("global", "flexor", "extensor", "dilated"),
        "no_dilated": ("global", "flexor", "extensor", "proximal_distal"),
        # a gathered kernel is the first the tape adds into the input gradient
        "reordered": ("dilated", "global", "proximal_distal", "extensor", "flexor"),
    }

    # muscle groups on 8 sensors other than make_cfg's contiguous halves:
    # evenly spaced flexor and extensor rows, which `ad.mss_block` reads
    # through strided views, and unevenly spaced ones, which it gathers; in
    # both, the proximal-distal kernel's rows in tap order are gathered
    GROUPS = {
        "strided": dict(flexor_ids=(0, 2, 4, 6), extensor_ids=(1, 3, 5, 7),
                        proximal_ids=(0, 1, 2, 3), distal_ids=(4, 5, 6, 7)),
        "scattered": dict(flexor_ids=(0, 2, 5, 7), extensor_ids=(1, 3, 4, 6),
                          proximal_ids=(0, 2, 5, 7), distal_ids=(1, 3, 4, 6)),
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_mss_bit_identical(self, rng, shape, kernels, mode):
        kwargs, bsz, t = self.SHAPES[shape]
        self._check_mss(rng, make_cfg(**kwargs, kernels=self.KERNEL_SETS[kernels]), bsz, t,
                        mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("groups", GROUPS)
    @pytest.mark.parametrize("shape", ["desk", "batch_of_one"])
    def test_mss_bit_identical_muscle_groups(self, rng, shape, groups, mode):
        kwargs, bsz, t = self.SHAPES[shape]
        cfg = dataclasses.replace(make_cfg(**kwargs), **self.GROUPS[groups])
        self._check_mss(rng, cfg, bsz, t, mode)

    def _check_mss(self, rng, cfg, bsz, t, mode):
        params = {k: v for k, v in stem_params(cfg).items()
                  if k.startswith("mss.") and not k.startswith("mss.bn")}
        z = rng.normal(size=(bsz, cfg.n_t, cfg.sensors, t // 4))
        z[0, 0, 2, :3] = 0.0
        rows = sum({"global": 1, "flexor": 1, "extensor": 1, "proximal_distal": 2,
                    "dilated": cfg.sensors // 2}[k] for k in cfg.mss_kernels)
        g = rng.normal(size=(bsz, cfg.n_s, rows, t // 4))
        g[..., ::5] = -0.0
        self._compare(chain_mss_branches, mss_branches, cfg, z, params, g, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bsz", [1, 3])
    def test_mss_taps_in_no_even_spacing(self, rng, bsz, mode):
        # a height-2 kernel with stride 2 over rows (0, 1, 3, 4, 7, 6): its
        # taps read rows (0, 3, 7) and (1, 4, 6), neither an evenly spaced run
        rows = (0, 1, 3, 4, 7, 6)

        def chain(x, p, _):
            z = conv2d(ad.gather(x, rows, axis=2), p["w"], p["b"], stride=(2, 1))
            return leaky_relu(z, 0.01)

        def node(x, p, _):
            return ad.mss_block(x, [(rows, p["w"], p["b"], 2, 1)], 0.01)

        params = {"w": rng.normal(size=(4, 3, 2, 1)), "b": rng.normal(size=4)}
        x = rng.normal(size=(bsz, 3, 8, 5))
        g = rng.normal(size=(bsz, 4, 3, 5))
        self._compare(chain, node, None, x, params, g, mode)

    def test_mss_reads_no_row_twice(self, rng):
        tape = Tape()
        z = tape.leaf(rng.normal(size=(2, 3, 8, 5)))
        w, b = tape.leaf(rng.normal(size=(4, 3, 2, 1))), tape.leaf(np.zeros(4))
        with pytest.raises(ValueError, match="twice"):
            ad.mss_block(z, [((0, 1, 1, 2), w, b, 1, 1)], 0.01)
        with pytest.raises(ValueError, match="twice"):
            ad.mss_block(z, [(None, w, b, 1, 1)], 0.01)  # overlapping taps

    def test_mss_reads_no_row_twice_under_optimize(self):
        """The check is no assertion: `python -O` keeps it."""
        code = ("import numpy as np\nfrom tmknet import autodiff as ad\n"
                "t = ad.Tape()\nz = t.leaf(np.ones((2, 3, 8, 5)))\n"
                "w, b = t.leaf(np.ones((4, 3, 2, 1))), t.leaf(np.zeros(4))\n"
                "ad.mss_block(z, [((0, 1, 1, 2), w, b, 1, 1)], 0.01)\n")
        src = str(Path(ad.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert "ValueError: a sensor kernel reads one input row twice" in run.stderr

    @pytest.mark.parametrize("slope", [1e-300, 1e-17, 0.01, 0.1, 0.25, 0.5, 0.75,
                                       1 - 2 ** -53, 1 - 2 ** -52])
    def test_leaky_in_place_equals_chain_factor(self, slope):
        """max(z, z * s) == z * ((z > 0) * (1 - s) + s) bit for bit, on signed
        zeros, infinities, NaN and values whose product with s underflows."""
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0,
                      5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 3.7, -3.7])
        factor = (z > 0) * (1.0 - slope)
        factor += slope
        assert np.maximum(z, z * slope).tobytes() == (z * factor).tobytes()

    def test_mrt_no_grad_zero_sign(self):
        """A window holding +0.0, then a negative value whose product with the
        slope underflows to -0.0, pools to the chain's -0.0 in a forward without
        gradients as well; pooling before LeakyReLU would give +0.0."""
        x = np.array([-1e-323, 0.0, 0.0, -1e-323]).reshape(1, 1, 1, 4)
        outs = []
        for fn in (lambda xv, w, b: max_pool_time(leaky_relu(conv2d(xv, w, b), 0.01), 2),
                   lambda xv, w, b: ad.mrt_block(xv, [(w, b)], 0.01, 2)):
            tape = Tape()
            xv, w, b = (tape.leaf(a, requires_grad=False)
                        for a in (x, np.ones((1, 1, 1, 1)), np.zeros(1)))
            outs.append(fn(xv, w, b).value)
        assert np.signbit(outs[0]).tolist() == [[[[False, True]]]]
        assert outs[1].tobytes() == outs[0].tobytes()

    def test_factor_is_one_above_zero(self, rng):
        """(1 - s) + s == 1.0 for s in (0, 1): the chain's factor for a
        positive input is exactly 1.0, so in-place LeakyReLU keeps z."""
        s = np.concatenate([rng.uniform(0.0, 1.0, 1_000_000),
                            rng.uniform(0.0, 1e-3, 100_000),
                            1.0 - rng.uniform(0.0, 1e-3, 100_000),
                            2.0 ** -np.arange(1, 1075)])
        s = s[(s > 0.0) & (s < 1.0)]
        assert np.all((1.0 - s) + s == 1.0)


class TestNodeMemory:
    """What a training step holds from forward to backward, by tracemalloc:
    the spatial node keeps no patch matrix, and batch norm's backward frees
    its full-size temporaries as it goes."""

    def test_mss_block_keeps_no_patch_matrix(self, rng):
        # the five kernels' patch matrices hold 4x the input at any sensor
        # count; the output, 9 rows of 8 channels against 8 rows of 16, 0.56x
        cfg = make_cfg(n_t=16, n_s=8)
        params = {k: v for k, v in stem_params(cfg).items()
                  if k.startswith("mss.") and not k.startswith("mss.bn")}
        tape = Tape()
        z = tape.leaf(rng.normal(size=(4, cfg.n_t, cfg.sensors, 64)))
        pv = {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}
        tracemalloc.start()
        try:
            out = mss_branches(z, pv, cfg)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape._nodes) == 1 and out.value.nbytes < z.value.nbytes
        assert held < 2 * z.value.nbytes

    @pytest.mark.parametrize("layout", ["c", "channel_fastest"])
    def test_batch_norm_backward_peak(self, rng, layout):
        shape = (8, 16, 9, 64)
        perm = TestBatchnormMatchesChain.LAYOUTS[layout]
        x = rng.normal(size=[shape[i] for i in perm]).transpose(np.argsort(perm))
        tape = Tape()
        xv = tape.leaf(x, requires_grad=True)
        ad.batch_norm(xv, tape.leaf(rng.normal(size=16), requires_grad=True),
                      tape.leaf(rng.normal(size=16), requires_grad=True), BN_EPS)
        (_, _, backward), = tape._nodes
        g = rng.normal(size=shape)  # C-ordered, as the layer above hands it back
        tracemalloc.start()
        try:
            grads = backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads[0].shape == shape
        # the x gradient it returns is one of the three
        assert peak <= 3 * x.nbytes


class TestMrtBlocks:
    """The temporal node's forward over blocks of trials and its backward's
    branch-free select of the winners' gradients."""

    def test_winners_select_is_where(self, rng):
        # integer samples tie in most windows; a NaN window picks its first NaN
        z = np.round(rng.normal(size=(3, 5, 4, 4 * 12)))
        z[0, 1, 2, 8:12] = [1.0, np.nan, 2.0, np.nan]
        _, arg = ad._running_max(z, 4, True)
        gp = rng.normal(size=arg.shape)
        payload = np.frombuffer(np.int64(0x7FF8_DEAD_0000_0001).tobytes(), np.float64)[0]
        specials = [-0.0, 0.0, np.nan, -np.nan, payload, np.inf, -np.inf, 5e-324, -5e-324]
        gp.reshape(-1)[::2] = np.resize(specials, gp.size // 2)
        for k in range(4):
            picked = gp[arg == k]
            assert np.isnan(picked).any() and np.isinf(picked).any()
            assert (np.signbit(picked) & (picked == 0)).any()
            want = np.where(arg == k, gp, 0.0)
            got = np.full_like(gp, np.nan)
            ad._winners(gp, arg, k, got)
            assert got.tobytes() == want.tobytes()
            # into a strided slot, as backward writes it
            slot = np.full((*gp.shape[:-1], 4 * gp.shape[-1]), np.nan)
            ad._winners(gp, arg, k, slot[..., k::4])
            assert slot[..., k::4].tobytes() == want.tobytes()

    @pytest.mark.parametrize("bsz", [1, 3, 4, 5, 9, 50])
    def test_blocked_forward_equals_whole_batch(self, rng, monkeypatch, bsz):
        # paper shape: 64 channels x 8 sensors x conv outputs of up to 128
        # samples, 512 KiB a trial; inline, so the blocks run in order (the
        # `_split` modes of `TestStemMatchesChain` check the threaded bytes)
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: False)
        cfg = make_cfg(fs=512.0, r_data=0.2, n_t=64)
        params = {k: v for k, v in stem_params(cfg).items() if k.startswith("mrt.branch")}
        x = rng.normal(size=(bsz, 1, cfg.sensors, 128))

        def run():
            tape = Tape()
            pv = {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}
            out = mrt_branches(tape.leaf(x), pv, cfg)
            (_, _, backward), = tape._nodes
            return [out.value, *inspect.getclosurevars(backward).nonlocals["args"]]

        rows = []
        running_max = ad._running_max
        monkeypatch.setattr(ad, "_running_max", lambda z, size, with_arg: (
            rows.append(len(z)) or running_max(z, size, with_arg)))
        blocked = run()
        step = ad._MRT_BLOCK_BYTES // (64 * 8 * 128 * 8)
        assert 1 < step < 50
        assert rows == [min(step, bsz - lo) for lo in range(0, bsz, step)] * 3
        monkeypatch.setattr(ad, "_MRT_BLOCK_BYTES", 1 << 62)
        whole = run()
        assert len(rows) == 3 * len(range(0, bsz, step)) + 3
        assert [(a.dtype, a.strides, a.tobytes()) for a in blocked] == \
            [(a.dtype, a.strides, a.tobytes()) for a in whole]


class TestStemGradients:
    def test_full_stem_gradcheck(self, rng):
        from conftest import central_diff

        cfg = make_cfg(c=4, fs=64.0, r_data=0.5, r_res=(0.25, 0.125), n_t=2, n_s=3, pool=2)
        params = stem_params(cfg)
        x = rng.normal(size=(3, 1, 4, 24))
        # random linear functional: batch norm makes sum-of-squares nearly
        # invariant to upstream parameters, which would zero the gradients
        # 1+1+1+2+2 sensor rows; kernels 8 and 4 pooled by 2 give 8 + 10 samples
        coeffs = rng.normal(size=(3, cfg.n_s, 7, 8 + 10))

        def loss_value(vals):
            tape = Tape()
            pv = {k: tape.leaf(v) for k, v in vals.items()}
            z = mrt_forward(tape.leaf(x), pv, cfg, BnState.create(cfg.n_t), "train")
            z = mss_forward(z, pv, cfg, BnState.create(cfg.n_s), "train")
            return float(ad.sum_(ad.mul(z, coeffs)).value)

        tape = Tape()
        pv = {k: tape.leaf(v.copy(), requires_grad=True) for k, v in params.items()}
        z = mrt_forward(tape.leaf(x), pv, cfg, BnState.create(cfg.n_t), "train")
        z = mss_forward(z, pv, cfg, BnState.create(cfg.n_s), "train")
        tape.backward(ad.sum_(ad.mul(z, coeffs)))

        for name in ("mrt.branch0.weight", "mss.global.weight", "mss.bn.gamma"):
            def f(arr, name=name):
                vals = dict(params)
                vals[name] = arr
                return loss_value(vals)

            fd = central_diff(f, params[name].copy())
            an = pv[name].grad
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(an - fd).max() / denom < 1e-4
