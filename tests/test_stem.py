import numpy as np
import pytest

from tmknet import autodiff as ad
from tmknet.autodiff import Tape
from tmknet.errors import ConfigError
from tmknet.model import ModelConfig, TMKNet
from tmknet.stem import (
    BN_EPS,
    BN_MOMENTUM,
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
             n_t=4, n_s=6, pool=4, kernels=None):
    half = c // 2
    kwargs = {}
    if kernels is not None:
        kwargs["mss_kernels"] = kernels
    return StemConfig(
        fs=fs, r_data=r_data, r_resolution=r_res, n_t=n_t, n_s=n_s,
        flexor_ids=tuple(range(half)), extensor_ids=tuple(range(half, c)),
        proximal_ids=tuple(range(0, c, 2)), distal_ids=tuple(range(1, c, 2)),
        pool_size=pool, **kwargs,
    )


def stem_params(cfg):
    """Copies of the stem parameters TMKNet initializes for `cfg`."""
    model = TMKNet(ModelConfig(stem=cfg, n_b=1, n_c=2), seed=0)
    return {k: p.value.copy() for k, p in model.params.items()
            if k.startswith(("mrt.", "mss."))}


def lift_params(tape, params):
    return {k: tape.constant(v) for k, v in params.items()}


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
        z = mrt_branches(tape.constant(rng.normal(size=(1, 1, 14, 400))), params, cfg)
        assert z.value.shape[3] == 94 + 97 + 98  # (400 - k + 1) // 4 per kernel
        assert mss_branches(z, params, cfg).value.shape[2] == 1 + 1 + 1 + 2 + 7

    def test_mss_sensor_law_large(self, rng):
        cfg = make_cfg(c=64)
        tape = Tape()
        z = tape.constant(rng.normal(size=(1, cfg.n_t, 64, 3)))
        out = mss_branches(z, lift_params(tape, stem_params(cfg)), cfg)
        assert out.value.shape[2] == 37  # 1+1+1+2+32

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            make_cfg(r_data=1.5)

    def test_bad_partition(self):
        with pytest.raises(ConfigError):
            StemConfig(fs=100, r_data=0.5, r_resolution=(0.5,), n_t=2, n_s=2,
                       flexor_ids=(0, 1), extensor_ids=(1, 2),
                       proximal_ids=(0, 1), distal_ids=(2, 3))

    def test_odd_sensor_count(self):
        with pytest.raises(ConfigError):
            StemConfig(fs=100, r_data=0.5, r_resolution=(0.5,), n_t=2, n_s=2,
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
        out = mrt_branches(tape.constant(x), lift_params(tape, params), cfg)
        assert out.value.shape == (2, 3, 8, 10)
        for ch in range(3):
            assert np.allclose(out.value[:, ch], x[:, 0])

    def test_output_time_matches_law(self, rng):
        cfg = make_cfg(c=8, fs=2000.0, r_data=1 / 5, r_res=(1 / 16, 1 / 32, 1 / 64), pool=4)
        params = stem_params(cfg)
        tape = Tape()
        x = tape.constant(rng.normal(size=(3, 1, 8, 400)))
        state = BnState.create(cfg.n_t)
        out = mrt_forward(x, lift_params(tape, params), cfg, state, "train")
        assert out.value.shape == (3, cfg.n_t, 8, 94 + 97 + 98)

    def test_negative_input_scaled_by_slope(self):
        cfg = make_cfg(fs=1.0, r_data=1.0, r_res=(1.0,), n_t=2, pool=1)
        x = -np.ones((1, 1, 8, 6))
        params = {"mrt.branch0.weight": np.ones((2, 1, 1, 1)),
                  "mrt.branch0.bias": np.zeros(2)}
        tape = Tape()
        out = mrt_branches(tape.constant(x), lift_params(tape, params), cfg)
        assert np.allclose(out.value, -0.01)

    def test_kernel_larger_than_window(self, rng):
        cfg = make_cfg(c=8, fs=2000.0, r_data=1 / 5, r_res=(1 / 16,), pool=1)
        params = stem_params(cfg)
        tape = Tape()
        x = tape.constant(rng.normal(size=(2, 1, 8, 10)))  # t=10 < kernel 25
        with pytest.raises(ConfigError):
            mrt_branches(x, lift_params(tape, params), cfg)


class TestMss:
    def test_output_shape(self, rng):
        cfg = make_cfg(c=8, n_t=3, n_s=5)
        params = stem_params(cfg)
        tape = Tape()
        z = tape.constant(rng.normal(size=(2, 3, 8, 7)))
        state = BnState.create(cfg.n_s)
        out = mss_forward(z, lift_params(tape, params), cfg, state, "train")
        assert out.value.shape == (2, 5, 1 + 1 + 1 + 2 + 4, 7)

    def test_global_branch_sums_ones(self):
        cfg = make_cfg(c=8, n_t=3, n_s=2, kernels=("global",))
        z = np.ones((1, 3, 8, 4))
        params = {"mss.global.weight": np.ones((2, 3, 8, 1)),
                  "mss.global.bias": np.zeros(2)}
        tape = Tape()
        out = mss_branches(tape.constant(z), lift_params(tape, params), cfg)
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
            pool_size=cfg.pool_size, mss_kernels=cfg.mss_kernels,
        )
        t1, t2 = Tape(), Tape()
        out1 = mss_branches(t1.constant(z), lift_params(t1, params), cfg)
        out2 = mss_branches(t2.constant(z_perm), lift_params(t2, params), cfg_perm)
        assert np.allclose(out1.value, out2.value)

    def test_dilated_depends_on_raw_order(self, rng):
        cfg = make_cfg(c=8, n_t=2, n_s=3, kernels=("dilated",))
        params = stem_params(cfg)
        z = rng.normal(size=(1, 2, 8, 5))
        t1, t2 = Tape(), Tape()
        out1 = mss_branches(t1.constant(z), lift_params(t1, params), cfg)
        out2 = mss_branches(t2.constant(z[:, :, ::-1, :].copy()), lift_params(t2, params), cfg)
        assert not np.allclose(out1.value, out2.value)


class TestEuclidBatchnorm:
    def _norm(self, x, mode, state=None, gamma=None, beta=None):
        ch = x.shape[1]
        state = state or BnState.create(ch)
        tape = Tape()
        out = euclid_batchnorm(
            tape.constant(x),
            tape.constant(np.ones(ch) if gamma is None else gamma),
            tape.constant(np.zeros(ch) if beta is None else beta),
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
        # the transpose hands `out` a gradient in the memory order g_perm gives
        tape.backward(ad.sum_(ad.mul(ad.transpose(out, g_perm), g)))
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
            state = BnState(mean=mean.copy(), var=var.copy(), initialized=True)
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
            out = bn(tape.constant(x), gv, bv, BnState.create(5), "train")
            tape.backward(ad.sum_(ad.mul(out, g)))
            grads.append([gv.grad.tobytes(), bv.grad.tobytes()])
        assert grads[0] == grads[1]


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
            z = mrt_forward(tape.constant(x), pv, cfg, BnState.create(cfg.n_t), "train")
            z = mss_forward(z, pv, cfg, BnState.create(cfg.n_s), "train")
            return float(ad.sum_(ad.mul(z, coeffs)).value)

        tape = Tape()
        pv = {k: tape.leaf(v.copy(), requires_grad=True) for k, v in params.items()}
        z = mrt_forward(tape.constant(x), pv, cfg, BnState.create(cfg.n_t), "train")
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
