import numpy as np
import pytest

from tmknet import autodiff as ad
from tmknet import linalg
from tmknet.autodiff import Tape
from tmknet.backbone import (
    DsbnState,
    bimap,
    classify,
    cov_pool,
    dsbn_forward,
    logeig,
    reeig,
)
from tmknet.errors import ConfigError
from tmknet.geometry import airm_dist, geo_mean

from chain_ops import concat
from conftest import batch_stats_oracle, dsbn_state, random_spd, random_sym


def const(tape, x):
    return tape.leaf(np.asarray(x, dtype=float))


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
    """SPD batch normalization at stored reference statistics: eval-mode
    `dsbn_forward`, with (g_ref, v_ref) installed by one `DsbnState.update`,
    whose first update adopts them exactly."""

    def _run(self, z, g_ref, v_ref, g_phi, v_phi, eps=1e-5):
        st = dsbn_state(len(g_ref))
        st.register("r", "target")
        st.update("r", g_ref, v_ref)
        tape = Tape()
        out = dsbn_forward(const(tape, z), ["r"] * len(z), st, "eval",
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
        st = dsbn_state(3)
        for kind in ("source", "target"):
            st.register(kind, kind)
            g_b = random_spd(rng, 3)
            st.update(kind, g_b, 0.7)
            g_run, v_run = st.stats(kind)
            assert np.array_equal(g_run, g_b)  # gamma(0 steps) = 1
            assert g_run is not g_b
            assert abs(v_run - 0.7) < 1e-12

    @pytest.mark.parametrize("kind", ["source", "target"])
    def test_floor_one_adopts_every_batch(self, rng, kind):
        st = DsbnState(3, gamma_source=1.0, gamma_target=1.0)
        st.register("d0", kind)
        for _ in range(3):
            g_b, v_b = random_spd(rng, 3), rng.uniform(0.5, 2.0)
            st.update("d0", g_b, v_b)
            g_run, v_run = st.stats("d0")
            assert np.array_equal(g_run, g_b)
            assert v_run == v_b

    def test_constant_stream_fixed_point(self, rng):
        st = dsbn_state(3)
        st.register("d0", "source")
        g_b = random_spd(rng, 3)
        for _ in range(10):
            st.update("d0", g_b, 0.5)
        g_run, v_run = st.stats("d0")
        assert airm_dist(g_run, g_b) < 1e-10
        assert abs(v_run - 0.5) < 1e-12

    def test_gamma_schedule(self):
        st = DsbnState(2, gamma_source=0.1, gamma_target=0.05)
        st.register("d0", "source")
        assert st.gamma("d0") == 1.0
        st.update("d0", np.eye(2), 1.0)
        assert st.gamma("d0") == 0.5
        for _ in range(20):
            st.update("d0", np.eye(2), 1.0)
        assert st.gamma("d0") == 0.1  # clamped at the floor

    def test_unknown_domain(self):
        st = dsbn_state(2)
        with pytest.raises(ConfigError):
            st.stats("nope")

    def test_uninitialized_stats(self):
        st = dsbn_state(2)
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: one Karcher step from the identity "
                   "gives the log-Euclidean mean, which a congruence does not commute with")
def test_adapt_is_congruence_equivariant(rng):
    # an electrode shift acts on a session's matrices as Z -> A Z A^T; DSBN
    # exists to remove it, so the running mean must move to A g_run A^T and
    # eval outputs must agree up to a rotation
    n, batches, k = 6, 8, 16
    zs = [np.stack([random_spd(rng, n) for _ in range(k)]) for _ in range(batches)]
    a = np.eye(n) + 0.6 * rng.normal(size=(n, n))
    states, outs = [], []
    for congruence in (np.eye(n), a):
        st = dsbn_state(n)
        st.register("t", "target")
        for z in zs:
            dsbn_forward(const(Tape(), congruence @ z @ congruence.T), ["t"] * k, st, "adapt",
                         None, None, 1e-5)
        tape = Tape()
        out = dsbn_forward(const(tape, congruence @ zs[0] @ congruence.T), ["t"] * k, st,
                           "eval", const(tape, np.eye(n)), const(tape, 1.0), 1e-5)
        states.append(st.stats("t")[0])
        outs.append(np.linalg.eigvalsh(out.value))
    assert airm_dist(states[1], a @ states[0] @ a.T) < 1e-9
    assert np.abs(outs[1] - outs[0]).max() < 1e-9


class TestDsbnForward:
    def _phi(self, tape, n):
        return const(tape, np.eye(n)), const(tape, 1.0)

    def test_train_commuting_recenters_exactly(self):
        st = dsbn_state(2)
        st.register("a", "source")
        z = np.stack([np.eye(2), np.diag([np.e ** 4, np.e ** 4])])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 2)
        out = dsbn_forward(const(tape, z), ["a", "a"], st, "train", g_phi, v_phi, 1e-5)
        remean = batch_stats_oracle(out.value)[0]
        assert np.abs(remean - np.eye(2)).max() <= 1e-10

    def test_train_then_eval_constant_target(self, rng):
        st = dsbn_state(3)
        st.register("t", "target")
        z = random_spd(rng, 3)
        batch = np.stack([z, z])
        tape = Tape()
        g_phi = const(tape, random_spd(rng, 3))
        v_phi = const(tape, 1.0)
        assert dsbn_forward(const(tape, batch), ["t", "t"], st, "adapt", g_phi, v_phi, 1e-5) is None
        out = dsbn_forward(const(tape, batch), ["t", "t"], st, "eval", g_phi, v_phi, 1e-5)
        # G_run equals the batch itself, so the whitened matrix is I and the
        # output lands on the bias point
        assert np.allclose(out.value[0], g_phi.value, atol=1e-8)

    def test_single_batch_adapt_adopts_batch_mean(self, rng):
        st = dsbn_state(3)
        st.register("t", "target")
        batch = np.stack([random_spd(rng, 3) for _ in range(5)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        dsbn_forward(const(tape, batch), ["t"] * 5, st, "adapt", g_phi, v_phi, 1e-5)
        g_b, v_b = batch_stats_oracle(batch)
        g_run, v_run = st.stats("t")
        assert np.allclose(g_run, g_b)  # gamma at first update is 1
        assert abs(v_run - v_b) < 1e-12

    def test_train_and_adapt_fold_in_identical_statistics(self, rng):
        # a fresh source domain updated in train mode and a fresh target
        # domain updated in adapt mode see one batch: same bytes
        for k, n in ((2, 3), (5, 4), (12, 6), (30, 8)):
            batch = np.stack([random_spd(rng, n, eig_range=(0.2, 5.0)) for _ in range(k)])
            st = dsbn_state(n)
            st.register("s", "source")
            st.register("t", "target")
            tape = Tape()
            g_phi, v_phi = self._phi(tape, n)
            dsbn_forward(const(tape, batch), ["s"] * k, st, "train", g_phi, v_phi, 1e-5)
            dsbn_forward(const(tape, batch), ["t"] * k, st, "adapt", g_phi, v_phi, 1e-5)
            (g_s, v_s), (g_t, v_t) = st.stats("s"), st.stats("t")
            assert g_s.tobytes() == g_t.tobytes(), (k, n)
            assert v_s == v_t, (k, n, v_s - v_t)

    def test_adapt_needs_no_bias_parameters(self, rng):
        st = dsbn_state(3)
        st.register("t", "target")
        batch = np.stack([random_spd(rng, 3) for _ in range(4)])
        assert dsbn_forward(const(Tape(), batch), ["t"] * 4, st, "adapt", None, None, 1e-5) is None
        assert st.domains["t"].steps == 1

    def test_adapt_on_source_rejected(self, rng):
        st = dsbn_state(3)
        st.register("s", "source")
        batch = np.stack([random_spd(rng, 3) for _ in range(4)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ConfigError):
            dsbn_forward(const(tape, batch), ["s"] * 4, st, "adapt", g_phi, v_phi, 1e-5)

    def test_train_on_target_rejected(self, rng):
        st = dsbn_state(3)
        st.register("t", "target")
        batch = np.stack([random_spd(rng, 3) for _ in range(4)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ConfigError):
            dsbn_forward(const(tape, batch), ["t"] * 4, st, "train", g_phi, v_phi, 1e-5)

    def test_unknown_domain_rejected(self, rng):
        st = dsbn_state(3)
        batch = np.stack([random_spd(rng, 3) for _ in range(2)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ConfigError):
            dsbn_forward(const(tape, batch), ["x", "x"], st, "train", g_phi, v_phi, 1e-5)

    def test_min_group_size(self, rng):
        st = dsbn_state(3)
        st.register("a", "source")
        st.register("b", "source")
        batch = np.stack([random_spd(rng, 3) for _ in range(3)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ValueError):
            dsbn_forward(const(tape, batch), ["a", "a", "b"], st, "train", g_phi, v_phi, 1e-5)

    def test_sample_order_restored(self, rng):
        st = dsbn_state(3)
        st.register("a", "source")
        st.register("b", "source")
        batch = np.stack([random_spd(rng, 3) for _ in range(6)])
        ids = ["a", "b", "a", "b", "a", "b"]
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        out = dsbn_forward(const(tape, batch), ids, st, "train", g_phi, v_phi, 1e-5)
        # grouped-by-domain run must agree with per-domain manual runs, in the
        # original interleaved order
        st2 = dsbn_state(3)
        st2.register("a", "source")
        st2.register("b", "source")
        tape2 = Tape()
        g_phi2, v_phi2 = self._phi(tape2, 3)
        out_a = dsbn_forward(const(tape2, batch[[0, 2, 4]]), ["a"] * 3, st2, "train",
                             g_phi2, v_phi2, 1e-5)
        tape3 = Tape()
        g_phi3, v_phi3 = self._phi(tape3, 3)
        out_b = dsbn_forward(const(tape3, batch[[1, 3, 5]]), ["b"] * 3, st2, "train",
                             g_phi3, v_phi3, 1e-5)
        assert out.value[[0, 2, 4]].tobytes() == out_a.value.tobytes()
        assert out.value[[1, 3, 5]].tobytes() == out_b.value.tobytes()

    @pytest.mark.parametrize("mode,kind", [("train", "source"), ("adapt", "target")])
    def test_unequal_groups_rejected(self, rng, mode, kind):
        st = dsbn_state(3)
        st.register("a", kind)
        st.register("b", kind)
        batch = np.stack([random_spd(rng, 3) for _ in range(5)])
        tape = Tape()
        g_phi, v_phi = self._phi(tape, 3)
        with pytest.raises(ValueError, match="equal-sized"):
            dsbn_forward(const(tape, batch), ["a", "b", "a", "b", "b"], st, mode,
                         g_phi, v_phi, 1e-5)
        assert st.domains["a"].steps == st.domains["b"].steps == 0

    def test_variance_rescaling_shrinks_dispersion_toward_target(self, rng):
        # after normalization with p = v_phi / (v_b + eps), the dispersion of
        # the batch around identity is close to v_phi
        st = dsbn_state(4)
        st.register("a", "source")
        batch = np.stack([random_spd(rng, 4, eig_range=(0.2, 5.0)) for _ in range(16)])
        tape = Tape()
        g_phi = const(tape, np.eye(4))
        v_phi = const(tape, 0.5)
        out = dsbn_forward(const(tape, batch), ["a"] * 16, st, "train", g_phi, v_phi, 1e-5)
        g_b, v_b = batch_stats_oracle(out.value)
        assert abs(v_b - 0.5) < 0.05


def per_domain_dsbn(h, domain_ids, state, mode, g_phi=None, v_phi=None, eps_var=1e-5):
    """Oracle: dsbn_forward as the per-domain loop it ran as before it became
    one stacked computation. Each domain's samples are gathered and normalized
    with that domain's own statistics, then a concat and an argsort gather
    restore sample order. The mode and group-size checks are left out."""
    def log_whitened(z, g):
        inv_sqrt = ad.sym_fn(g, "inv_sqrt")
        return ad.sym_fn(ad.matmul(ad.matmul(inv_sqrt, z), inv_sqrt), "log")

    def rescale(logm, v_ref):
        p = ad.div(v_phi, ad.add(v_ref, eps_var))
        powed = ad.sym_fn(ad.mul(logm, p), "exp")
        sqrt_phi = ad.sym_fn(g_phi, "sqrt")
        return ad.matmul(ad.matmul(sqrt_phi, powed), sqrt_phi)

    ids = np.asarray(domain_ids, dtype=object)
    order, outs = [], []
    for d in dict.fromkeys(domain_ids):
        idx = np.where(ids == d)[0]
        grp = ad.gather(h, idx, axis=0)
        if mode == "eval":
            g_run, v_run = state.stats(d)
            out = rescale(log_whitened(grp, h.tape.leaf(g_run)), h.tape.leaf(v_run))
        else:
            g_b = ad.sym_fn(ad.mean(ad.sym_fn(grp, "log"), axis=0), "exp")
            logm = log_whitened(grp, g_b)
            v_b = ad.power(ad.mean(ad.sum_(ad.mul(logm, logm), axis=(1, 2))), 0.5)
            state.update(d, g_b.value, float(v_b.value))
            if mode == "adapt":
                continue
            out = rescale(logm, v_b)
        order.append(idx)
        outs.append(out)
    if mode == "adapt":
        return None
    merged = concat(outs, axis=0) if len(outs) > 1 else outs[0]
    return ad.gather(merged, np.argsort(np.concatenate(order), kind="stable"), axis=0)


class TestDsbnMatchesPerDomainLoop:
    """The stacked DSBN gives the per-domain loop's output and running
    statistics bit for bit. Its gradients sum over the groups in another
    order, so they agree to rounding."""

    N = 5

    def _state(self, rng, ids, kind, primed):
        st = dsbn_state(self.N)
        for d in dict.fromkeys(ids):
            st.register(d, kind)
            if primed:
                st.update(d, random_spd(rng, self.N), rng.uniform(0.5, 2.0))
        return st

    def _run(self, fn, batch, ids, st, mode, g_phi, coeffs):
        tape = Tape()
        hv = tape.leaf(batch, requires_grad=True)
        gv = tape.leaf(g_phi, requires_grad=True)
        lv = tape.leaf(np.array(-0.3), requires_grad=True)
        out = fn(hv, ids, st, mode, gv, ad.exp(lv), 1e-5)
        nodes = len(tape._nodes)
        run_stats = [(s.g_run.tobytes(), s.v_run, s.steps) for s in st.domains.values()]
        if out is None:
            return nodes, None, [], run_stats
        tape.backward(ad.sum_(ad.mul(out, coeffs)))
        return nodes, out.value.tobytes(), [hv.grad, gv.grad, lv.grad], run_stats

    @pytest.mark.parametrize("mode,ids", [
        ("train", ["a", "b", "c", "b", "a", "c", "c", "a", "b", "b", "c", "a"]),
        ("adapt", ["t", "u", "u", "t", "t", "u"]),
        ("eval", ["a", "b", "a", "c", "a", "b", "a", "a"]),
    ])
    def test_matches_loop(self, rng, mode, ids):
        kind = "target" if mode == "adapt" else "source"
        batch = np.stack([random_spd(rng, self.N, eig_range=(0.2, 5.0)) for _ in ids])
        g_phi = random_spd(rng, self.N)
        coeffs = rng.normal(size=batch.shape)
        seed = int(rng.integers(2 ** 31))
        results = [
            self._run(fn, batch, ids,
                      self._state(np.random.default_rng(seed), ids, kind, mode == "eval"),
                      mode, g_phi, coeffs)
            for fn in (per_domain_dsbn, dsbn_forward)
        ]
        (_, want, want_grads, want_stats), (_, got, got_grads, got_stats) = results
        assert got == want
        assert got_stats == want_stats
        scale = max((np.abs(w).max() for w in want_grads), default=0.0)
        for w, g in zip(want_grads, got_grads):
            assert np.abs(g - w).max() <= 1e-13 * scale

    def test_train_nodes_do_not_grow_with_domains(self, rng):
        nodes = []
        for n_dom in (1, 2, 5):
            ids = [f"d{i % n_dom}" for i in range(10)]
            batch = np.stack([random_spd(rng, self.N) for _ in ids])
            st = self._state(rng, ids, "source", False)
            nodes.append(self._run(dsbn_forward, batch, ids, st, "train",
                                   np.eye(self.N), np.ones(batch.shape))[0])
        assert nodes[0] == nodes[1] == nodes[2], nodes


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
        eps_reeig, eps_var = 1e-4, 1e-5
        w = np.linalg.qr(rng.normal(size=(6, 4)))[0].T
        for _ in range(50):
            st = dsbn_state(4)
            st.register("a", "source")
            tape = Tape()
            z = const(tape, rng.normal(size=(4, 6, 3, 7)))
            c = cov_pool(z, None)
            assert np.linalg.eigvalsh(c.value).min() > 0
            h = bimap(c, const(tape, w))
            assert np.linalg.eigvalsh(h.value).min() > 0
            h = reeig(h, eps_reeig)
            assert np.linalg.eigvalsh(h.value).min() >= eps_reeig - 1e-12
            h = dsbn_forward(h, ["a"] * 4, st, "train", const(tape, np.eye(4)),
                             const(tape, 1.0), eps_var)
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
            st = dsbn_state(3)
            st.register("a", "source")
            tape = Tape()
            zc = ad.mul(ad.add(tape.leaf(vals["z"]), ad.transpose(tape.leaf(vals["z"]))), 0.5)
            gc = ad.mul(ad.add(tape.leaf(vals["g"]), ad.transpose(tape.leaf(vals["g"]))), 0.5)
            out = dsbn_forward(zc, ["a"] * 4, st, "train", gc,
                               ad.exp(tape.leaf(vals["lv"])), 1e-5)
            return float(ad.sum_(ad.mul(out, coeffs)).value)

        vals = {"z": base, "g": g_phi0, "lv": np.zeros(())}
        st = dsbn_state(3)
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
