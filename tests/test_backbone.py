import numpy as np
import pytest

from tmknet import autodiff as ad
from tmknet import linalg
from tmknet.autodiff import Tape
from tmknet.backbone import (
    BackboneConfig,
    DsbnState,
    bimap,
    classify,
    cov_pool,
    dsbn_forward,
    logeig,
    reeig,
    spdbn_normalize,
)
from tmknet.errors import ConfigError
from tmknet.geometry import airm_dist, geo_mean

from conftest import batch_stats_oracle, random_spd, random_sym


def const(tape, x):
    return tape.constant(np.asarray(x, dtype=float))


class TestCovPool:
    def test_constant_features_give_scaled_identity(self):
        tape = Tape()
        z = const(tape, np.full((2, 3, 4, 5), 2.5))
        out = cov_pool(z, lam=0.01)
        assert np.allclose(out.value, 0.01 * np.eye(3))

    def test_hand_covariance(self):
        # rows (1,-1) and (1,1): centered rows are (1,-1) and (0,0)
        tape = Tape()
        z = const(tape, np.array([[1.0, -1.0], [1.0, 1.0]]).reshape(1, 2, 1, 2))
        out = cov_pool(z, lam=0.01)
        assert np.allclose(out.value[0], np.diag([2.01, 0.01]))

    def test_min_eigenvalue_at_least_lambda(self, rng):
        lam = 0.05
        for _ in range(100):
            tape = Tape()
            z = const(tape, rng.normal(size=(1, 4, 3, 6)))
            out = cov_pool(z, lam=lam)
            assert np.linalg.eigvalsh(out.value[0]).min() >= lam - 1e-12

    def test_trace_scaled_shrinkage_spd(self, rng):
        tape = Tape()
        z = const(tape, rng.normal(size=(3, 5, 4, 8)))
        out = cov_pool(z, lam=None)
        assert np.linalg.eigvalsh(out.value).min() >= 1e-6 - 1e-15

    def test_too_few_observations(self, rng):
        tape = Tape()
        z = const(tape, rng.normal(size=(1, 3, 1, 1)))
        with pytest.raises(ValueError):
            cov_pool(z, lam=0.01)


class TestBimap:
    def test_identity_weight(self, rng):
        c = np.stack([random_spd(rng, 4) for _ in range(3)])
        tape = Tape()
        out = bimap(const(tape, c), const(tape, np.eye(4)))
        assert np.allclose(out.value, c)

    def test_selection_weight_takes_principal_submatrix(self, rng):
        c = random_spd(rng, 5)
        w = np.eye(5)[:3]
        tape = Tape()
        out = bimap(const(tape, c[None]), const(tape, w))
        assert np.allclose(out.value[0], c[:3, :3])

    def test_output_positive_definite(self, rng):
        for _ in range(100):
            c = random_spd(rng, 6)[None]
            a = rng.normal(size=(6, 4))
            w = np.linalg.qr(a)[0].T  # (4, 6) row-orthonormal
            tape = Tape()
            out = bimap(const(tape, c), const(tape, w))
            assert np.linalg.eigvalsh(out.value[0]).min() > 0


class TestReEig:
    def test_identity_when_spectrum_above_threshold(self, rng):
        h = np.stack([random_spd(rng, 4, eig_range=(0.5, 2.0)) for _ in range(3)])
        tape = Tape()
        out = reeig(const(tape, h), 1e-4)
        assert np.allclose(out.value, h, atol=1e-10)

    def test_diagonal_clamp(self):
        tape = Tape()
        out = reeig(const(tape, np.diag([1e-8, 1.0])[None]), 1e-4)
        assert np.allclose(out.value[0], np.diag([1e-4, 1.0]))

    def test_idempotent(self, rng):
        h = random_sym(rng, 5)
        h = h @ h.T  # PSD with possibly tiny eigenvalues
        tape = Tape()
        once = reeig(const(tape, h[None]), 1e-3).value
        tape2 = Tape()
        twice = reeig(const(tape2, once), 1e-3).value
        assert np.abs(twice - once).max() < 1e-9

    def test_min_eig_at_least_threshold(self, rng):
        h = random_sym(rng, 5)
        h = h @ h.T
        tape = Tape()
        out = reeig(const(tape, h[None]), 1e-3)
        assert np.linalg.eigvalsh(out.value[0]).min() >= 1e-3 - 1e-12


class TestLogEig:
    def test_identity_to_zero(self):
        tape = Tape()
        assert np.allclose(logeig(const(tape, np.eye(3)[None])).value, 0.0)

    def test_diagonal(self):
        tape = Tape()
        out = logeig(const(tape, np.diag([np.e, np.e ** 2])[None]))
        assert np.allclose(out.value[0], np.diag([1.0, 2.0]))

    def test_round_trip_with_exp(self, rng):
        s = random_sym(rng, 4, scale=0.7)
        expd = linalg.sym_fn(s, "exp")
        tape = Tape()
        assert np.abs(logeig(const(tape, expd[None])).value[0] - s).max() < 1e-8


class TestSpdbnNormalize:
    def _run(self, z, g_ref, v_ref, g_phi, v_phi, eps=1e-5):
        tape = Tape()
        out = spdbn_normalize(const(tape, z), const(tape, g_ref), const(tape, v_ref),
                              const(tape, g_phi), const(tape, v_phi), eps)
        return out.value

    def test_batch_mean_with_identity_bias_maps_to_identity(self, rng):
        g = random_spd(rng, 4)
        out = self._run(g[None], g, 1.0, np.eye(4), 0.7)
        assert np.allclose(out[0], np.eye(4), atol=1e-12)

    def test_bias_equal_ref_with_unit_power_is_identity_map(self, rng):
        eps = 1e-5
        z = np.stack([random_spd(rng, 4) for _ in range(3)])
        g = random_spd(rng, 4)
        v_ref = 0.8
        out = self._run(z, g, v_ref, g, v_ref + eps, eps)  # p = 1
        assert np.abs(out - z).max() < 1e-10

    def test_commuting_diagonal_batch(self):
        eps = 1e-5
        z = np.stack([np.eye(2), np.diag([np.e ** 4, np.e ** 4])])
        g_ref = np.diag([np.e ** 2, np.e ** 2])
        v_ref = 1.0
        out = self._run(z, g_ref, v_ref, np.eye(2), v_ref + eps, eps)  # p = 1
        assert np.allclose(out[0], np.diag([np.e ** -2, np.e ** -2]))
        assert np.allclose(out[1], np.diag([np.e ** 2, np.e ** 2]))
        remean = batch_stats_oracle(out)[0]
        assert np.allclose(remean, np.eye(2), atol=1e-10)

    def test_output_spd(self, rng):
        z = np.stack([random_spd(rng, 5) for _ in range(4)])
        out = self._run(z, random_spd(rng, 5), 0.5, random_spd(rng, 5), 1.3)
        assert np.linalg.eigvalsh(out).min() > 0


class TestDsbnState:
    def test_first_update_adopts_batch_stats(self, rng):
        st = DsbnState(3)
        st.register("d0", "target")
        g_b = random_spd(rng, 3)
        st.update("d0", g_b, 0.7)
        g_run, v_run = st.stats("d0")
        assert np.allclose(g_run, g_b)  # gamma(0 steps) = 1
        assert abs(v_run - 0.7) < 1e-12

    def test_constant_stream_fixed_point(self, rng):
        st = DsbnState(3)
        st.register("d0", "source")
        g_b = random_spd(rng, 3)
        for _ in range(10):
            st.update("d0", g_b, 0.5)
        g_run, v_run = st.stats("d0")
        assert airm_dist(g_run, g_b) < 1e-10
        assert abs(v_run - 0.5) < 1e-12

    def test_gamma_schedule(self):
        st = DsbnState(2, gamma_source=0.1)
        st.register("d0", "source")
        assert st.gamma("d0") == 1.0
        st.update("d0", np.eye(2), 1.0)
        assert st.gamma("d0") == 0.5
        for _ in range(20):
            st.update("d0", np.eye(2), 1.0)
        assert st.gamma("d0") == 0.1  # clamped at the floor

    def test_unknown_domain(self):
        st = DsbnState(2)
        with pytest.raises(ConfigError):
            st.stats("nope")

    def test_uninitialized_stats(self):
        st = DsbnState(2)
        st.register("d0", "target")
        with pytest.raises(ConfigError):
            st.stats("d0")


class TestBatchStats:
    def test_congruence_equivariance(self, rng):
        z = np.stack([random_spd(rng, 4) for _ in range(6)])
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        g1, v1 = batch_stats_oracle(z)
        g2, v2 = batch_stats_oracle(q @ z @ q.T)
        assert np.abs(q @ g1 @ q.T - g2).max() < 1e-8
        assert abs(v1 - v2) < 1e-8


class TestDsbnForward:
    def _phi(self, tape, n):
        return const(tape, np.eye(n)), const(tape, 1.0)

    def test_train_commuting_recenters_exactly(self):
        st = DsbnState(2)
        st.register("a", "source")
        z = np.stack([np.eye(2), np.diag([np.e ** 4, np.e ** 4])])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 2)
        out = dsbn_forward(const(tape, z), ["a", "a"], st, "train", g_phi, v_phi)
        remean = batch_stats_oracle(out.value)[0]
        assert np.abs(remean - np.eye(2)).max() <= 1e-10

    def test_train_then_eval_constant_target(self, rng):
        st = DsbnState(3)
        st.register("t", "target")
        z = random_spd(rng, 3)
        batch = np.stack([z, z])
        tape = Tape()
        g_phi = const(tape, random_spd(rng, 3))
        v_phi = const(tape, 1.0)
        assert dsbn_forward(const(tape, batch), ["t", "t"], st, "adapt", g_phi, v_phi) is None
        out = dsbn_forward(const(tape, batch), ["t", "t"], st, "eval", g_phi, v_phi)
        # G_run equals the batch itself, so the whitened matrix is I and the
        # output lands on the bias point
        assert np.allclose(out.value[0], g_phi.value, atol=1e-8)

    def test_single_batch_adapt_adopts_batch_mean(self, rng):
        st = DsbnState(3)
        st.register("t", "target")
        batch = np.stack([random_spd(rng, 3) for _ in range(5)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        dsbn_forward(const(tape, batch), ["t"] * 5, st, "adapt", g_phi, v_phi)
        g_b, v_b = batch_stats_oracle(batch)
        g_run, v_run = st.stats("t")
        assert np.allclose(g_run, g_b)  # gamma at first update is 1
        assert abs(v_run - v_b) < 1e-12

    def test_train_and_adapt_fold_in_identical_statistics(self, rng):
        # a fresh source domain updated in train mode and a fresh target
        # domain updated in adapt mode see one batch: same bytes
        for k, n in ((2, 3), (5, 4), (12, 6), (30, 8)):
            batch = np.stack([random_spd(rng, n, eig_range=(0.2, 5.0)) for _ in range(k)])
            st = DsbnState(n)
            st.register("s", "source")
            st.register("t", "target")
            tape = Tape()
            g_phi, v_phi = self._phi(tape, n)
            dsbn_forward(const(tape, batch), ["s"] * k, st, "train", g_phi, v_phi)
            dsbn_forward(const(tape, batch), ["t"] * k, st, "adapt", g_phi, v_phi)
            (g_s, v_s), (g_t, v_t) = st.stats("s"), st.stats("t")
            assert g_s.tobytes() == g_t.tobytes(), (k, n)
            assert v_s == v_t, (k, n, v_s - v_t)

    def test_adapt_needs_no_bias_parameters(self, rng):
        st = DsbnState(3)
        st.register("t", "target")
        batch = np.stack([random_spd(rng, 3) for _ in range(4)])
        assert dsbn_forward(const(Tape(), batch), ["t"] * 4, st, "adapt") is None
        assert st.domains["t"].steps == 1

    def test_adapt_on_source_rejected(self, rng):
        st = DsbnState(3)
        st.register("s", "source")
        batch = np.stack([random_spd(rng, 3) for _ in range(4)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ConfigError):
            dsbn_forward(const(tape, batch), ["s"] * 4, st, "adapt", g_phi, v_phi)

    def test_train_on_target_rejected(self, rng):
        st = DsbnState(3)
        st.register("t", "target")
        batch = np.stack([random_spd(rng, 3) for _ in range(4)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ConfigError):
            dsbn_forward(const(tape, batch), ["t"] * 4, st, "train", g_phi, v_phi)

    def test_unknown_domain_rejected(self, rng):
        st = DsbnState(3)
        batch = np.stack([random_spd(rng, 3) for _ in range(2)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ConfigError):
            dsbn_forward(const(tape, batch), ["x", "x"], st, "train", g_phi, v_phi)

    def test_min_group_size(self, rng):
        st = DsbnState(3)
        st.register("a", "source")
        st.register("b", "source")
        batch = np.stack([random_spd(rng, 3) for _ in range(3)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ValueError):
            dsbn_forward(const(tape, batch), ["a", "a", "b"], st, "train", g_phi, v_phi)

    def test_sample_order_restored(self, rng):
        st = DsbnState(3)
        st.register("a", "source")
        st.register("b", "source")
        batch = np.stack([random_spd(rng, 3) for _ in range(6)])
        ids = ["a", "b", "a", "b", "a", "b"]
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        out = dsbn_forward(const(tape, batch), ids, st, "train", g_phi, v_phi)
        # grouped-by-domain run must agree with per-domain manual runs, in the
        # original interleaved order
        st2 = DsbnState(3)
        st2.register("a", "source")
        st2.register("b", "source")
        tape2 = Tape()
        g_phi2, v_phi2 = self._phi(tape2, 3)
        out_a = dsbn_forward(const(tape2, batch[[0, 2, 4]]), ["a"] * 3, st2, "train", g_phi2, v_phi2)
        tape3 = Tape()
        g_phi3, v_phi3 = self._phi(tape3, 3)
        out_b = dsbn_forward(const(tape3, batch[[1, 3, 5]]), ["b"] * 3, st2, "train", g_phi3, v_phi3)
        assert np.allclose(out.value[[0, 2, 4]], out_a.value)
        assert np.allclose(out.value[[1, 3, 5]], out_b.value)

    def test_variance_rescaling_shrinks_dispersion_toward_target(self, rng):
        # after normalization with p = v_phi / (v_b + eps), the dispersion of
        # the batch around identity is close to v_phi
        st = DsbnState(4)
        st.register("a", "source")
        batch = np.stack([random_spd(rng, 4, eig_range=(0.2, 5.0)) for _ in range(16)])
        tape = Tape()
        g_phi = const(tape, np.eye(4))
        v_phi = const(tape, 0.5)
        out = dsbn_forward(const(tape, batch), ["a"] * 16, st, "train", g_phi, v_phi)
        g_b, v_b = batch_stats_oracle(out.value)
        assert abs(v_b - 0.5) < 0.05


class TestClassify:
    def test_zero_weight_returns_bias(self, rng):
        h = np.stack([random_sym(rng, 3) for _ in range(4)])
        tape = Tape()
        out = classify(const(tape, h), const(tape, np.zeros((5, 9))), const(tape, np.arange(5.0)))
        assert np.allclose(out.value, np.tile(np.arange(5.0), (4, 1)))

    def test_one_hot_weight_picks_entry(self, rng):
        h = np.stack([random_sym(rng, 3) for _ in range(2)])
        w = np.zeros((1, 9))
        w[0, 0] = 1.0  # row-major (0, 0) entry
        tape = Tape()
        out = classify(const(tape, h), const(tape, w), const(tape, np.array([0.25])))
        assert np.allclose(out.value[:, 0], h[:, 0, 0] + 0.25)

    def test_random_case_matches_dot_product(self, rng):
        h = np.stack([random_sym(rng, 4) for _ in range(3)])
        w = rng.normal(size=(6, 16))
        b = rng.normal(size=6)
        tape = Tape()
        out = classify(const(tape, h), const(tape, w), const(tape, b))
        expected = np.array([[w[k] @ h[i].ravel() + b[k] for k in range(6)] for i in range(3)])
        assert np.allclose(out.value, expected)

    def test_shape_mismatch(self, rng):
        tape = Tape()
        with pytest.raises(ValueError):
            classify(const(tape, np.zeros((2, 3, 3))), const(tape, np.zeros((4, 8))),
                     const(tape, np.zeros(4)))


class TestSpdClosure:
    def test_pipeline_preserves_spd(self, rng):
        cfg = BackboneConfig(n_b=4, n_c=3)
        w = np.linalg.qr(rng.normal(size=(6, 4)))[0].T
        for _ in range(50):
            st = DsbnState(4)
            st.register("a", "source")
            tape = Tape()
            z = const(tape, rng.normal(size=(4, 6, 3, 7)))
            c = cov_pool(z, None)
            assert np.linalg.eigvalsh(c.value).min() > 0
            h = bimap(c, const(tape, w))
            assert np.linalg.eigvalsh(h.value).min() > 0
            h = reeig(h, cfg.eps_reeig)
            assert np.linalg.eigvalsh(h.value).min() >= cfg.eps_reeig - 1e-12
            h = dsbn_forward(h, ["a"] * 4, st, "train", const(tape, np.eye(4)),
                             const(tape, 1.0), cfg.eps_var)
            assert np.linalg.eigvalsh(h.value).min() > 0
            out = logeig(h)
            assert np.all(np.isfinite(out.value))


class TestDsbnGradients:
    def test_train_mode_gradcheck(self, rng):
        from conftest import central_diff

        base = np.stack([random_spd(rng, 3, min_gap=1e-2) for _ in range(4)])
        g_phi0 = random_spd(rng, 3, min_gap=1e-2)
        coeffs = rng.normal(size=(4, 3, 3))

        def loss_value(vals):
            st = DsbnState(3)
            st.register("a", "source")
            tape = Tape()
            zc = ad.mul(ad.add(tape.leaf(vals["z"]), ad.transpose(tape.leaf(vals["z"]))), 0.5)
            gc = ad.mul(ad.add(tape.leaf(vals["g"]), ad.transpose(tape.leaf(vals["g"]))), 0.5)
            out = dsbn_forward(zc, ["a"] * 4, st, "train", gc,
                               ad.exp(tape.leaf(vals["lv"])), 1e-5)
            return float(ad.sum_(ad.mul(out, coeffs)).value)

        vals = {"z": base, "g": g_phi0, "lv": np.zeros(())}
        st = DsbnState(3)
        st.register("a", "source")
        tape = Tape()
        leaves = {k: tape.leaf(v.copy(), requires_grad=True) for k, v in vals.items()}
        zc = ad.mul(ad.add(leaves["z"], ad.transpose(leaves["z"])), 0.5)
        gc = ad.mul(ad.add(leaves["g"], ad.transpose(leaves["g"])), 0.5)
        out = dsbn_forward(zc, ["a"] * 4, st, "train", gc, ad.exp(leaves["lv"]), 1e-5)
        tape.backward(ad.sum_(ad.mul(out, coeffs)))

        for name in vals:
            def f(arr, name=name):
                v2 = dict(vals)
                v2[name] = arr
                return loss_value(v2)

            fd = central_diff(f, vals[name].copy())
            an = leaves[name].grad
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(an - fd).max() / denom < 1e-4, name
