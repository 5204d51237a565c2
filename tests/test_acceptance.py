"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale experiments
(criteria 5, 6, 10) share one seed-pinned set of training runs.
"""

import itertools
import time

import numpy as np
import pytest

from tmknet import autodiff as ad
from tmknet import linalg
from tmknet.autodiff import Tape
from tmknet.backbone import BackboneConfig, DsbnState, bimap, cov_pool, dsbn_forward, logeig, reeig
from tmknet.data import SynthSpec, leave_one_session_out, save_dataset, load_dataset, synth_generate
from tmknet.experiment import (
    RunConfig,
    adapt,
    build_model_config,
    domain_key,
    evaluate,
    export_features,
    run_uda,
    saliency,
    save_checkpoint,
    train,
)
from tmknet.geometry import airm_dist, geo_mean, karcher_mean, parallel_transport
from tmknet.metrics import wilcoxon_signed_rank
from tmknet.model import TMKNet
from tmknet.optim import adam_step

from conftest import batch_stats_oracle, random_spd, random_sym


# --- shared desk-scale experiment fixture -------------------------------------------

DESK_SPEC = SynthSpec(n_classes=4, sensors=8, n_domains=4, trials_per_cell=50,
                      fs=256.0, domain_shift=1.4, seed=7)
DESK_BASE = dict(subject=0, target_session=3, epochs=25, n_t=6, n_s=10, n_b=6,
                 r_data=0.25, batch_size=32, domains_per_batch=3)
DESK_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def desk_runs():
    manifest, trials = synth_generate(DESK_SPEC)
    t0 = time.monotonic()
    dsbn_acc, shared_acc, no_mss_acc = [], [], []
    seed1_model = None
    for seed in DESK_SEEDS:
        model, _, tgt = run_uda(RunConfig(seed=seed, **DESK_BASE), manifest, trials)
        dsbn_acc.append(tgt.accuracy)
        if seed == DESK_SEEDS[0]:
            seed1_model = model
        _, _, tgt_s = run_uda(RunConfig(seed=seed, shared_bn=True, **DESK_BASE),
                              manifest, trials)
        shared_acc.append(tgt_s.accuracy)
    uda_elapsed = time.monotonic() - t0
    for seed in DESK_SEEDS:
        _, _, tgt_m = run_uda(RunConfig(seed=seed, ablation=("no_mss",), **DESK_BASE),
                              manifest, trials)
        no_mss_acc.append(tgt_m.accuracy)
    return {
        "manifest": manifest,
        "trials": trials,
        "dsbn": np.array(dsbn_acc),
        "shared": np.array(shared_acc),
        "no_mss": np.array(no_mss_acc),
        "uda_elapsed": uda_elapsed,
        "model": seed1_model,
    }


# --- criterion 1 ---------------------------------------------------------------------

def test_criterion_01_geometry_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for n in (5, 10, 30):
        for _ in range(200):
            z1, z2, z3 = (random_spd(rng, n, eig_range=(0.4, 4.0)) for _ in range(3))
            d12 = airm_dist(z1, z2)
            # metric axioms
            assert abs(d12 - airm_dist(z2, z1)) <= 1e-10 * max(1.0, d12)
            assert airm_dist(z1, z3) <= d12 + airm_dist(z2, z3) + 1e-9
            assert airm_dist(z1, z1) <= 1e-8
            # affine invariance, cond(A) <= 1e3 by construction
            u = np.linalg.qr(rng.normal(size=(n, n)))[0]
            v = np.linalg.qr(rng.normal(size=(n, n)))[0]
            a = (u * rng.uniform(0.05, 20.0, size=n)) @ v.T
            assert np.linalg.cond(a) <= 1e3
            assert abs(airm_dist(a @ z1 @ a.T, a @ z2 @ a.T) - d12) <= 1e-7 * max(1.0, d12)
            # geodesic midpoint law and endpoint identities
            w = rng.uniform(0.2, 0.8)
            m = geo_mean(z1, z2, w)
            assert abs(airm_dist(z1, m) + airm_dist(m, z2) - d12) <= 1e-7 * max(1.0, d12)
            assert abs(airm_dist(z1, m) - w * d12) <= 1e-8 * max(1.0, d12)
            assert np.allclose(geo_mean(z1, z2, 0.0), z1)
            assert np.allclose(geo_mean(z1, z2, 1.0), z2)
            # transport isometry + inverse composition
            s = random_sym(rng, n)
            sp = parallel_transport(s, z1, z2)
            n1 = np.trace(np.linalg.solve(z1, s) @ np.linalg.solve(z1, s))
            n2 = np.trace(np.linalg.solve(z2, sp) @ np.linalg.solve(z2, sp))
            assert abs(n1 - n2) <= 1e-8 * max(1.0, abs(n1))
            back = parallel_transport(sp, z2, z1)
            assert np.linalg.norm(back - s) <= 1e-9 * max(1.0, np.linalg.norm(s))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"geometry suite took {elapsed:.1f}s (budget 30s)"
    print(f"\ncriterion 1 geometry suite: PASS ({elapsed:.1f}s)")


# --- criterion 2 ---------------------------------------------------------------------

def _fd_check(build, arrays, tol=1e-4, h=1e-6, subsample=40, rng=None):
    rng = rng or np.random.default_rng(0)
    tape = Tape()
    leaves = {k: tape.leaf(v.copy(), requires_grad=True) for k, v in arrays.items()}
    tape.backward(build(tape, leaves))

    def value(vals):
        t2 = Tape()
        l2 = {k: t2.leaf(v) for k, v in vals.items()}
        return float(build(t2, l2).value)

    for name, base in arrays.items():
        grad = leaves[name].grad
        flat = base.ravel()
        idx = range(flat.size) if flat.size <= subsample else \
            rng.choice(flat.size, subsample, replace=False)
        for i in idx:
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            fp = value(arrays)
            flat[i] = orig - step
            fm = value(arrays)
            flat[i] = orig
            fd = (fp - fm) / (2 * step)
            an = grad.ravel()[i]
            # absolute floor covers exactly-zero gradients, where central
            # differences return pure cancellation noise
            if abs(an - fd) < 1e-6:
                continue
            scale = max(abs(fd), abs(an))
            assert abs(an - fd) / scale < tol, f"{name}[{i}]: {an} vs {fd}"


def test_criterion_02_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    spd2 = np.stack([random_spd(rng, 3, min_gap=1e-2) for _ in range(2)])
    probes = np.arange(18.0).reshape(2, 3, 3) / 10.0

    def symm(v):
        return ad.mul(ad.add(v, ad.transpose(v)), 0.5)

    op_cases = {
        "add": ({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,))},
                lambda t, v: ad.sum_(ad.mul(ad.add(v["a"], v["b"]), 1.3))),
        "sub": ({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))},
                lambda t, v: ad.sum_(ad.mul(ad.sub(v["a"], v["b"]), v["a"]))),
        "scalar-mul": ({"a": rng.normal(size=(5,))},
                       lambda t, v: ad.sum_(ad.mul(v["a"], 2.5))),
        "matmul": ({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
                   lambda t, v: ad.sum_(ad.mul(ad.matmul(v["a"], v["b"]), 0.7))),
        "transpose": ({"a": rng.normal(size=(3, 4))},
                      lambda t, v, probe=rng.normal(size=(4, 3)):
                      ad.sum_(ad.mul(ad.transpose(v["a"]), probe))),
        "batched-matmul": ({"a": rng.normal(size=(5, 3, 4)), "b": rng.normal(size=(4, 2))},
                           lambda t, v, probe=rng.normal(size=(5, 3, 2)):
                           ad.sum_(ad.mul(ad.matmul(v["a"], v["b"]), probe))),
        "conv-time-kernel": ({"x": rng.normal(size=(2, 1, 4, 16)),
                              "w": rng.normal(size=(3, 1, 1, 5)), "b": rng.normal(size=3)},
                             lambda t, v: ad.sum_(ad.mul(
                                 y := ad.conv2d(v["x"], v["w"], v["b"]), y))),
        "conv-sensor-strided": ({"x": rng.normal(size=(2, 3, 8, 6)),
                                 "w": rng.normal(size=(4, 3, 4, 1)), "b": rng.normal(size=4)},
                                lambda t, v: ad.sum_(ad.mul(
                                    y := ad.conv2d(v["x"], v["w"], v["b"], stride=(4, 1)), y))),
        "conv-sensor-dilated": ({"x": rng.normal(size=(2, 3, 8, 6)),
                                 "w": rng.normal(size=(4, 3, 2, 1)), "b": rng.normal(size=4)},
                                lambda t, v: ad.sum_(ad.mul(
                                    y := ad.conv2d(v["x"], v["w"], v["b"], dilation=(4, 1)), y))),
        "leaky-relu": ({"x": rng.normal(size=(4, 6)) + 0.05},
                       lambda t, v: ad.sum_(ad.mul(ad.leaky_relu(v["x"], 0.01), v["x"]))),
        "covariance-centering": ({"x": rng.normal(size=(2, 4, 7))},
                                 lambda t, v: ad.sum_(ad.mul(
                                     y := ad.covariance(v["x"]), y))),
        "sym-log": ({"m": spd2}, lambda t, v: ad.sum_(ad.mul(ad.sym_fn(symm(v["m"]), "log"), probes))),
        "sym-exp": ({"m": spd2}, lambda t, v: ad.sum_(ad.mul(ad.sym_fn(symm(v["m"]), "exp"), probes))),
        "sym-pow": ({"m": spd2}, lambda t, v: ad.sum_(ad.mul(ad.sym_fn(symm(v["m"]), "pow", 0.3), probes))),
        "sym-clamp": ({"m": spd2}, lambda t, v: ad.sum_(ad.mul(
            ad.sym_fn(symm(v["m"]), "clamp_min", 1e-4), probes))),
        "bilinear": ({"w": rng.normal(size=(3, 5)),
                      "c": np.stack([random_spd(rng, 5) for _ in range(2)])},
                     lambda t, v: ad.sum_(ad.mul(y := ad.bilinear(v["w"], symm(v["c"])), y))),
        "weighted-geo-mean": ({"z1": random_spd(rng, 3, min_gap=1e-2),
                               "z2": random_spd(rng, 3, min_gap=1e-2)},
                              lambda t, v: ad.sum_(ad.mul(
                                  y := ad.geo_mean(symm(v["z1"]), symm(v["z2"]), 0.3), y))),
        "flatten": ({"x": rng.normal(size=(3, 2, 4))},
                    lambda t, v, probe=rng.normal(size=(3, 8)):
                    ad.sum_(ad.mul(ad.flatten_rows(v["x"]), probe))),
        "linear": ({"x": rng.normal(size=(4, 6)), "w": rng.normal(size=(3, 6)),
                    "b": rng.normal(size=3)},
                   lambda t, v: ad.sum_(ad.mul(
                       y := ad.add(ad.matmul(v["x"], ad.transpose(v["w"])), v["b"]), y))),
        "log-softmax-nll": ({"x": rng.normal(size=(4, 5))},
                            lambda t, v: ad.nll_loss(ad.log_softmax(v["x"]),
                                                     np.array([0, 2, 1, 4]))),
    }
    for name, (arrays, build) in op_cases.items():
        _fd_check(build, arrays, tol=1e-4, rng=rng)

    # max-pooling at the looser tolerance, no ties
    x = rng.normal(size=(2, 2, 3, 9))
    _fd_check(lambda t, v: ad.sum_(ad.mul(y := ad.max_pool_time(v["x"], 3), y)),
              {"x": x}, tol=1e-3, rng=rng)

    # full network loss on a 4-sample batch, c=8, t=64, n_t=8, n_s=6, n_b=4
    from tmknet.stem import StemConfig
    from tmknet.model import ModelConfig

    stem_cfg = StemConfig(fs=512.0, r_data=0.25, r_resolution=(1 / 16, 1 / 32, 1 / 64),
                          n_t=8, n_s=6,
                          flexor_ids=tuple(range(4)), extensor_ids=tuple(range(4, 8)),
                          proximal_ids=tuple(range(0, 8, 2)), distal_ids=tuple(range(1, 8, 2)))
    mc = ModelConfig(stem=stem_cfg, backbone=BackboneConfig(n_b=4, n_c=4))
    model = TMKNet(mc, seed=1)
    model.register_domains(["0/0", "0/1"], [])
    x = rng.normal(size=(4, 8, 64))
    labels = np.array([0, 1, 2, 3])
    ids = ["0/0", "0/0", "0/1", "0/1"]
    base = model.params.copy_values()
    _, grads = model.loss_and_grads(x, labels, ids)

    def loss_with(values):
        probe = TMKNet(mc, seed=1)
        probe.register_domains(["0/0", "0/1"], [])
        probe.params.load_values(values)
        tape = Tape()
        logits = probe.forward(tape, tape.constant(x), ids, "train",
                               probe.param_vars(tape, trainable=False))
        return float(ad.cross_entropy(logits, labels).value)

    coords_per_param = 3
    for name in model.params.names():
        flat = base[name].ravel()
        idx = rng.choice(flat.size, min(coords_per_param, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            step = 1e-6 * max(1.0, abs(orig))
            flat[i] = orig + step
            fp = loss_with(base)
            flat[i] = orig - step
            fm = loss_with(base)
            flat[i] = orig
            fd = (fp - fm) / (2 * step)
            an = grads[name].ravel()[i]
            if abs(an - fd) < 1e-6:
                continue
            scale = max(abs(fd), abs(an))
            assert abs(an - fd) / scale < 1e-4, (name, i, an, fd)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (budget 120s)"
    print(f"\ncriterion 2 gradient suite: PASS ({elapsed:.1f}s)")


# --- criterion 3 ---------------------------------------------------------------------

def test_criterion_03_spd_closure():
    rng = np.random.default_rng(303)
    w = np.linalg.qr(rng.normal(size=(6, 4)))[0].T
    eps_reeig = 1e-4
    for trial in range(1000):
        st = DsbnState(4)
        st.register("a", "source")
        tape = Tape()
        z = tape.constant(rng.normal(size=(4, 6, 3, 10)) * rng.uniform(0.3, 3.0))
        c = cov_pool(z, None)
        assert np.all(np.isfinite(c.value))
        assert np.linalg.eigvalsh(c.value).min() > 0
        h = bimap(c, tape.constant(w))
        assert np.linalg.eigvalsh(h.value).min() > 0
        h = reeig(h, eps_reeig)
        assert np.linalg.eigvalsh(h.value).min() >= eps_reeig * (1 - 1e-9)
        h = dsbn_forward(h, ["a"] * 4, st, "train", tape.constant(np.eye(4)),
                         tape.constant(1.0), 1e-5)
        assert np.all(np.isfinite(h.value))
        assert np.linalg.eigvalsh(h.value).min() > 0
        out = logeig(h)
        assert np.all(np.isfinite(out.value))
    print("\ncriterion 3 SPD closure (1000 passes): PASS")


# --- criterion 4 ---------------------------------------------------------------------

def test_criterion_04_spdbn_centering_oracle():
    # exactness on commuting diagonal batches
    st = DsbnState(2)
    st.register("a", "source")
    tape = Tape()
    z = tape.constant(np.stack([np.eye(2), np.diag([np.e ** 4, np.e ** 4])]))
    out = dsbn_forward(z, ["a", "a"], st, "train", tape.constant(np.eye(2)),
                       tape.constant(1.0), 1e-5)
    remean = batch_stats_oracle(out.value)[0]
    assert np.abs(remean - np.eye(2)).max() <= 1e-10

    # random batches: distance of the re-estimated mean to identity shrinks >= 50%
    rng = np.random.default_rng(404)
    for _ in range(10):
        batch = np.stack([random_spd(rng, 10, eig_range=(0.3, 4.0)) for _ in range(64)])
        g_before = batch_stats_oracle(batch)[0]
        d_before = airm_dist(g_before, np.eye(10))
        st = DsbnState(10)
        st.register("a", "source")
        tape = Tape()
        out = dsbn_forward(tape.constant(batch), ["a"] * 64, st, "train",
                           tape.constant(np.eye(10)), tape.constant(1.0), 1e-5)
        g_after = batch_stats_oracle(out.value)[0]
        d_after = airm_dist(g_after, np.eye(10))
        assert d_after <= 0.5 * d_before, (d_after, d_before)
    print("\ncriterion 4 SPDBN centering oracle: PASS")


# --- criteria 5 and 6 ------------------------------------------------------------------

def test_criterion_05_desk_scale_uda(desk_runs):
    dsbn = desk_runs["dsbn"]
    shared = desk_runs["shared"]
    gaps = dsbn - shared
    assert dsbn[0] >= 0.85, f"seed-pinned target accuracy {dsbn[0]:.3f} < 0.85"
    assert float(np.median(dsbn)) >= 0.85
    assert float(np.median(gaps)) >= 0.05, f"median DSBN-vs-shared gap {np.median(gaps):+.3f}"
    assert desk_runs["uda_elapsed"] < 900.0, f"UDA runs took {desk_runs['uda_elapsed']:.0f}s"
    print(f"\ncriterion 5 desk-scale UDA: PASS (dsbn median "
          f"{np.median(dsbn):.3f}, gap median {np.median(gaps):+.3f}, "
          f"{desk_runs['uda_elapsed']:.0f}s)")


def test_criterion_06_ablation_direction(desk_runs):
    drops = desk_runs["dsbn"] - desk_runs["no_mss"]
    assert float(np.median(drops)) >= 0.03, f"median drop without MSS {np.median(drops):+.3f}"
    print(f"\ncriterion 6 ablation direction: PASS (median drop {np.median(drops):+.3f})")


# --- criterion 7 ---------------------------------------------------------------------

def _enumerated_wilcoxon(diffs):
    diffs = np.asarray(diffs, dtype=float)
    absd = np.abs(diffs)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(len(diffs))
    i = 0
    while i < len(diffs):
        j = i
        while j + 1 < len(diffs) and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_obs = ranks[diffs > 0].sum()
    m = ranks.sum()
    extreme = sum(
        1 for signs in itertools.product([0, 1], repeat=len(diffs))
        if abs(sum(r for r, s in zip(ranks, signs) if s) - m / 2) >= abs(w_obs - m / 2) - 1e-12
    )
    return w_obs, extreme / 2 ** len(diffs)


def test_criterion_07_wilcoxon_oracle():
    rng = np.random.default_rng(707)
    for n in range(5, 13):
        for trial in range(12):
            diffs = np.round(rng.normal(size=n) * 4) / 2.0
            diffs[diffs == 0] = 0.5  # zero differences are dropped pre-test
            w, p = wilcoxon_signed_rank(diffs, np.zeros(n))
            w_ref, p_ref = _enumerated_wilcoxon(diffs)
            assert w == w_ref, (n, trial)
            assert abs(p - p_ref) < 1e-12, (n, trial)
    print("\ncriterion 7 Wilcoxon oracle (n<=12 exhaustive): PASS")


# --- criterion 8 ---------------------------------------------------------------------

def test_criterion_08_stiefel_feasibility():
    spec = SynthSpec(n_classes=3, sensors=8, n_domains=2, trials_per_cell=16,
                     fs=128.0, domain_shift=0.8, seed=17)
    manifest, trials = synth_generate(spec)
    cfg = RunConfig(subject=0, target_session=1, n_t=4, n_s=6, n_b=4,
                    batch_size=12, domains_per_batch=1, epochs=1, seed=3)
    model = TMKNet(build_model_config(manifest, cfg), seed=3)
    model.register_domains([domain_key((0, 0))], [domain_key((0, 1))])
    source = [t for t in trials if t.domain == (0, 0)]
    rng = np.random.default_rng(3)
    x_all = np.stack([t.signal for t in source]).astype(np.float64)
    y_all = np.array([t.label for t in source])
    for step in range(1000):
        picks = rng.choice(len(source), size=12, replace=False)
        loss, grads = model.loss_and_grads(x_all[picks], y_all[picks],
                                           [domain_key((0, 0))] * 12)
        adam_step(model.params, grads, lr=1e-3)
    w = model.params["bimap.weight"].value
    orth_err = np.linalg.norm(w @ w.T - np.eye(w.shape[0]))
    assert orth_err < 1e-6, f"Stiefel violation after 1000 steps: {orth_err:.2e}"
    g_phi = model.params["dsbn.g_phi"].value
    assert np.abs(g_phi - g_phi.T).max() < 1e-12
    assert np.linalg.eigvalsh(g_phi).min() > 0
    assert np.exp(float(model.params["dsbn.log_v_phi"].value)) > 0
    print(f"\ncriterion 8 Stiefel feasibility after 1000 steps: PASS "
          f"(orthonormality error {orth_err:.2e})")


# --- criterion 9 ---------------------------------------------------------------------

def test_criterion_09_reproducibility(tmp_path):
    spec = SynthSpec(n_classes=3, sensors=8, n_domains=3, trials_per_cell=10,
                     fs=128.0, seed=23)
    manifest, trials = synth_generate(spec)
    save_dataset(tmp_path / "ds", manifest, trials)
    manifest2, trials2 = load_dataset(tmp_path / "ds")
    assert manifest2 == manifest
    assert all(np.array_equal(a.signal, b.signal) for a, b in zip(trials, trials2))

    cfg = RunConfig(subject=0, target_session=2, n_t=4, n_s=6, n_b=4,
                    batch_size=12, domains_per_batch=2, epochs=2, seed=31)
    blobs, metric_docs = [], []
    for i in (0, 1):
        model, report = train(cfg, manifest, trials)
        save_checkpoint(tmp_path / f"ck{i}.tmk", model, cfg, manifest)
        blobs.append((tmp_path / f"ck{i}.tmk").read_bytes())
        metric_docs.append(report.to_json())
    assert blobs[0] == blobs[1], "checkpoints differ between identical runs"
    assert metric_docs[0] == metric_docs[1], "metrics differ between identical runs"
    print("\ncriterion 9 reproducibility: PASS (bit-identical checkpoints and metrics)")


# --- criterion 10 --------------------------------------------------------------------

def test_criterion_10_saliency_sanity(desk_runs):
    manifest = desk_runs["manifest"]
    model = desk_runs["model"]
    target = (0, DESK_BASE["target_session"])
    flexor_class = 0  # even classes activate the flexor block
    candidates = [t for t in desk_runs["trials"]
                  if t.domain == target and t.label == flexor_class][:20]
    flex = list(manifest.flexor_ids)
    ext = list(manifest.extensor_ids)
    flex_scores, ext_scores = [], []
    for trial in candidates:
        _, per_sensor = saliency(model, trial, flexor_class)
        flex_scores.append(per_sensor[flex].mean())
        ext_scores.append(per_sensor[ext].mean())
    flex_mean = float(np.mean(flex_scores))
    ext_mean = float(np.mean(ext_scores))
    assert flex_mean > ext_mean, (flex_mean, ext_mean)
    print(f"\ncriterion 10 saliency sanity: PASS (flexor {flex_mean:.4g} "
          f"> extensor {ext_mean:.4g})")


# --- auxiliary: feature export dispersion (supports the criterion-5 analysis) ---------

def test_export_dispersion_shrinks_after_dsbn(desk_runs):
    from tmknet.experiment import domain_dispersion

    model = desk_runs["model"]
    manifest = desk_runs["manifest"]
    plan = leave_one_session_out(manifest, 0, DESK_BASE["target_session"])
    chosen = [t for t in desk_runs["trials"]][::4]
    header, rows = export_features(model, chosen)
    dim = (len(header) - 4) // 2
    pre = domain_dispersion(rows, "pre", dim)
    post = domain_dispersion(rows, "post", dim)
    assert post <= pre, (pre, post)
    print(f"\nfeature dispersion across domains: {pre:.4f} -> {post:.4f} (shrinks) PASS")
