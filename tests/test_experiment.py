import copy
import itertools
import json
import math
import struct
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from conftest import reseal_checkpoint, seal_checkpoint, set_array_value

from tmknet import autodiff as ad
from tmknet import experiment
from tmknet.autodiff import Tape
from tmknet.backbone import dsbn_forward
from tmknet.data import DomainBatchSampler, SynthSpec, leave_one_session_out, synth_generate
from tmknet.errors import ConfigError, DataError
from tmknet.experiment import (
    ABLATION_VARIANTS,
    RunConfig,
    ablate,
    _tangent_vector,
    _validation_loss,
    ablation_table,
    adapt,
    build_model_config,
    domain_key,
    evaluate,
    export_features,
    load_checkpoint,
    run_uda,
    saliency,
    save_checkpoint,
    train,
)
from tmknet.geometry import airm_dist
from tmknet.linalg import sym_fn
from tmknet.metrics import report_from_predictions
from tmknet.model import EVAL_BLOCK, TMKNet, layout


SPEC = SynthSpec(n_classes=3, sensors=8, n_domains=3, trials_per_cell=12,
                 fs=256.0, domain_shift=1.0, seed=11)
MANIFEST, TRIALS = synth_generate(SPEC)

QUICK = dict(subject=0, target_session=2, n_t=4, n_s=6, n_b=4,
             batch_size=16, domains_per_batch=2, epochs=2, val_fraction=0.15)


def quick_cfg(**overrides):
    return RunConfig(**{**QUICK, **overrides, "seed": overrides.get("seed", 5)})


@pytest.fixture(scope="module")
def trained():
    cfg = quick_cfg(epochs=4)
    model, val_report = train(cfg, MANIFEST, TRIALS)
    return cfg, model, val_report


class TestTrain:
    def test_loss_curve_finite_and_recorded(self, trained):
        _, _, report = trained
        assert len(report.loss_curve) > 0
        assert np.all(np.isfinite(report.loss_curve))

    def test_zero_epoch_checkpoint_at_chance(self):
        cfg = quick_cfg(epochs=0)
        model, _ = train(cfg, MANIFEST, TRIALS)
        plan = leave_one_session_out(MANIFEST, 0, 2)
        source_trials = [t for t in TRIALS if t.domain in plan.sources]
        report = evaluate(model, source_trials, MANIFEST)
        assert abs(report.accuracy - 1.0 / MANIFEST.n_classes) < 0.25

    def test_determinism_bit_identical_checkpoints(self, tmp_path):
        cfg = quick_cfg(epochs=2)
        for i in (0, 1):
            model, report = train(cfg, MANIFEST, TRIALS)
            save_checkpoint(tmp_path / f"ck{i}.tmk", model, cfg, MANIFEST)
            (tmp_path / f"metrics{i}.json").write_text(report.to_json())
        assert (tmp_path / "ck0.tmk").read_bytes() == (tmp_path / "ck1.tmk").read_bytes()
        assert (tmp_path / "metrics0.json").read_text() == (tmp_path / "metrics1.json").read_text()

    def test_missing_source_domains(self):
        lone = [t for t in TRIALS if t.domain == (0, 2)]
        with pytest.raises(DataError):
            train(quick_cfg(), MANIFEST, lone)

    def test_batch_rounds_down_to_a_multiple_of_the_domains(self, monkeypatch):
        # the acceptance desk config: batch 32 from 3 of its 3 source sessions
        cfg = RunConfig(subject=0, target_session=3, epochs=25, n_t=6, n_s=10, n_b=6,
                        r_data=0.25, batch_size=32, domains_per_batch=3)
        manifest, trials = synth_generate(SynthSpec(n_classes=2, sensors=8, n_domains=4,
                                                    trials_per_cell=4, fs=256.0, seed=7))
        built = []

        class Built(Exception):
            pass

        def sampler(trials, batch_size, domains_per_batch, rng):
            built.append((batch_size, domains_per_batch))
            raise Built  # the sampler's batch is all this test reads

        monkeypatch.setattr("tmknet.experiment.DomainBatchSampler", sampler)
        with pytest.raises(Built):
            train(cfg, manifest, trials)
        assert built == [(30, 3)]


class TestAdapt:
    def test_stats_converge_on_repeat(self, trained):
        _, model, _ = trained
        plan = leave_one_session_out(MANIFEST, 0, 2)
        signals = np.stack([t.signal for t in TRIALS if t.domain == plan.target]
                           ).astype(np.float64)
        adapt(model, signals, plan.target, batch_size=12)
        g1 = model.dsbn.stats(domain_key(plan.target))[0].copy()
        adapt(model, signals, plan.target, batch_size=12)
        g2 = model.dsbn.stats(domain_key(plan.target))[0]
        assert airm_dist(g1, g2) < 1e-3 * max(1.0, airm_dist(np.eye(len(g1)), g1))

    def test_adapt_on_source_domain_rejected(self, trained):
        _, model, _ = trained
        signals = np.stack([t.signal for t in TRIALS if t.domain == (0, 0)][:6]
                           ).astype(np.float64)
        with pytest.raises(ConfigError):
            adapt(model, signals, (0, 0), batch_size=50)

    def test_shared_bn_model_rejected(self):
        cfg = quick_cfg(epochs=0, ablation=("shared_bn",))
        model, _ = train(cfg, MANIFEST, TRIALS)
        signals = np.stack([t.signal for t in TRIALS if t.domain == (0, 2)]
                           ).astype(np.float64)
        with pytest.raises(ConfigError, match="shared batch normalization"):
            adapt(model, signals, (0, 2), batch_size=12)

    def test_too_few_trials(self, trained):
        _, model, _ = trained
        with pytest.raises(DataError):
            adapt(model, np.zeros((1, 8, 64)), (0, 2), batch_size=50)

    @pytest.mark.parametrize("batch_size", [1, 0, -3])
    def test_batch_size_below_two_rejected(self, trained, batch_size):
        _, model, _ = trained
        signals = np.stack([t.signal for t in TRIALS if t.domain == (0, 2)]
                           ).astype(np.float64)
        with pytest.raises(ConfigError, match="batch_size"):
            adapt(model, signals, (0, 2), batch_size=batch_size)

    def test_trailing_single_trial_is_skipped(self):
        model, _ = train(quick_cfg(epochs=0), MANIFEST, TRIALS)
        signals = np.stack([t.signal for t in TRIALS if t.domain == (0, 2)][:7]
                           ).astype(np.float64)
        key = domain_key((0, 2))
        stats = []
        for n in (7, 6):
            adapted = copy.deepcopy(model)
            adapt(adapted, signals[:n], (0, 2), batch_size=3)
            assert adapted.dsbn.domains[key].steps == 2
            g_run, v_run = adapted.dsbn.stats(key)
            stats.append((g_run.tobytes(), v_run))
        assert stats[0] == stats[1]

    def test_float32_trial_signals_match_their_float64_stack(self):
        # run_uda, train and `tmknet adapt` hand adapt the stored signals
        model, _ = train(quick_cfg(epochs=0), MANIFEST, TRIALS)
        signals = [t.signal for t in TRIALS if t.domain == (0, 2)]
        assert all(s.dtype == np.float32 for s in signals)
        states = []
        for given in (signals, np.stack(signals).astype(np.float64)):
            adapted = copy.deepcopy(model)
            adapt(adapted, given, (0, 2), batch_size=5)
            states.append({k: v.tobytes() for k, v in adapted.state_arrays().items()})
        assert states[0] == states[1]
        assert adapted.dsbn.domains[domain_key((0, 2))].steps > 1

    def test_session_reset_restores_every_array(self):
        # a fresh session on one model: snapshot, adapt, load the snapshot back
        model, _ = train(quick_cfg(epochs=0), MANIFEST, TRIALS)
        signals = [t.signal for t in TRIALS if t.domain == (0, 2)]
        snap = {k: v.copy() for k, v in model.state_arrays().items()}
        adapt(model, signals, (0, 2), batch_size=12)
        first = {k: v.copy() for k, v in model.state_arrays().items()}
        assert first["state.dsbn.0/2.g_run"].tobytes() != snap["state.dsbn.0/2.g_run"].tobytes()
        model.load_state_arrays(snap, model.dsbn_domain_kinds())
        got = model.state_arrays()
        assert list(got) == list(snap)
        assert all(got[k].tobytes() == snap[k].tobytes() for k in snap)
        assert model.dsbn.domains[domain_key((0, 2))].steps == 0
        adapt(model, signals, (0, 2), batch_size=12)
        again = model.state_arrays()
        assert list(again) == list(first)
        assert all(again[k].tobytes() == first[k].tobytes() for k in first)

    def test_no_labels_in_signature(self):
        import inspect

        params = inspect.signature(adapt).parameters
        assert "labels" not in params and "trials" not in params
        # the input type is a bare signal stack, so labels cannot ride along
        assert params["signals"].name == "signals"


class TestEvaluate:
    def test_pure_and_bit_stable(self, trained):
        _, model, _ = trained
        plan = leave_one_session_out(MANIFEST, 0, 2)
        val = [t for t in TRIALS if t.domain in plan.sources][:20]
        r1 = evaluate(model, val, MANIFEST)
        r2 = evaluate(model, val, MANIFEST)
        assert r1 == r2

    def test_metrics_consistent_with_confusion(self, trained):
        _, model, _ = trained
        plan = leave_one_session_out(MANIFEST, 0, 2)
        val = [t for t in TRIALS if t.domain in plan.sources][:30]
        rep = evaluate(model, val, MANIFEST)
        cm = np.array(rep.confusion)
        assert abs(rep.accuracy - np.trace(cm) / cm.sum()) < 1e-12
        assert cm.sum(axis=1).tolist() == [sum(1 for t in val if t.label == k)
                                           for k in range(MANIFEST.n_classes)]

    def test_uninitialized_target_domain_rejected(self):
        cfg = quick_cfg(epochs=1, seed=9)
        model, _ = train(cfg, MANIFEST, TRIALS)
        target = [t for t in TRIALS if t.domain == (0, 2)][:4]
        with pytest.raises(ConfigError):
            evaluate(model, target, MANIFEST)


class TestRunUda:
    def test_protocol_produces_target_metrics(self):
        cfg = quick_cfg(epochs=20)
        _, val_rep, tgt_rep = run_uda(cfg, MANIFEST, TRIALS)
        assert 0.0 <= tgt_rep.accuracy <= 1.0
        assert tgt_rep.config_hash == cfg.hash()
        assert val_rep.accuracy > 0.5  # source-fit sanity on the quick config

    def test_missing_target_trials_rejected_before_training(self, monkeypatch):
        # the manifest lists the target session (0, 2); the trials hold none of it
        steps = []
        step = TMKNet.loss_and_grads
        monkeypatch.setattr(TMKNet, "loss_and_grads",
                            lambda model, *args: steps.append(1) or step(model, *args))
        sources = [t for t in TRIALS if t.domain != (0, 2)]
        with pytest.raises(DataError, match=r"no trials for target domain \(0, 2\)"):
            run_uda(quick_cfg(epochs=3), MANIFEST, sources)
        assert steps == []


class TestInterleavedAdaptation:
    def test_target_stats_accumulate_during_training(self):
        cfg = quick_cfg(epochs=2, adaptation="interleaved", seed=8)
        model, _ = train(cfg, MANIFEST, TRIALS)
        plan = leave_one_session_out(MANIFEST, 0, 2)
        # target statistics exist without any post-hoc pass
        g_run, v_run = model.dsbn.stats(domain_key(plan.target))
        assert np.all(np.isfinite(g_run)) and v_run > 0
        target = [t for t in TRIALS if t.domain == plan.target]
        report = evaluate(model, target, MANIFEST)
        assert 0.0 <= report.accuracy <= 1.0

    def test_shared_bn_skips_target_statistics(self):
        cfg = quick_cfg(epochs=1, adaptation="interleaved", ablation=("shared_bn",))
        model, _ = train(cfg, MANIFEST, TRIALS)
        assert model.dsbn_domain_kinds() == {"shared": "source"}

    def test_single_target_trial_is_a_data_error(self):
        cfg = quick_cfg(epochs=1, adaptation="interleaved")
        one_target = [t for t in TRIALS if t.domain != (0, 2)] + \
            [next(t for t in TRIALS if t.domain == (0, 2))]
        with pytest.raises(DataError, match="at least 2 target trials"):
            train(cfg, MANIFEST, one_target)


class TestSaliency:
    def test_shape_and_determinism(self, trained):
        _, model, _ = trained
        trial = next(t for t in TRIALS if t.domain == (0, 0))
        sal1, per1 = saliency(model, trial, target_class=1)
        sal2, per2 = saliency(model, trial, target_class=1)
        assert sal1.shape == trial.signal.shape
        assert per1.shape == (MANIFEST.sensors,)
        assert np.array_equal(sal1, sal2) and np.array_equal(per1, per2)
        assert np.array_equal(per1, sal1.max(axis=1))

    def test_invalid_class(self, trained):
        _, model, _ = trained
        trial = TRIALS[0]
        with pytest.raises(ConfigError):
            saliency(model, trial, target_class=99)

    def test_sensors_outside_gathered_branch_have_zero_saliency(self):
        # a flexor-only spatial layer leaves extensor sensors with no path to
        # the logits, so their saliency rows are exactly zero
        cfg = quick_cfg(epochs=1, seed=2)
        model_cfg = build_model_config(MANIFEST, cfg)
        from dataclasses import replace

        model_cfg.stem = replace(model_cfg.stem, mss_kernels=("flexor",))
        model = TMKNet(model_cfg, seed=2)
        model.register_domains([domain_key((0, 0)), domain_key((0, 1))], [])
        batch = [t for t in TRIALS if t.domain == (0, 0)][:8]
        x = np.stack([t.signal for t in batch]).astype(np.float64)
        model.prime_stats(x, [domain_key((0, 0))] * len(batch))
        sal, per_sensor = saliency(model, batch[0], target_class=0)
        flex = list(MANIFEST.flexor_ids)
        ext = list(MANIFEST.extensor_ids)
        assert np.all(per_sensor[ext] == 0.0)
        assert per_sensor[flex].max() > 0.0


class TestExportFeatures:
    def test_row_and_column_counts(self, trained):
        cfg, model, _ = trained
        plan = leave_one_session_out(MANIFEST, 0, 2)
        chosen = [t for t in TRIALS if t.domain in plan.sources][:25]
        header, rows = export_features(model, chosen)
        dim = cfg.n_b * (cfg.n_b + 1) // 2
        assert len(rows) == 25
        assert len(header) == 4 + 2 * dim
        assert all(len(r) == len(header) for r in rows)

    def test_deterministic(self, trained):
        _, model, _ = trained
        chosen = [t for t in TRIALS if t.domain == (0, 0)][:10]
        _, rows1 = export_features(model, chosen)
        _, rows2 = export_features(model, chosen)
        assert rows1 == rows2


# the acceptance suite's desk shape: 8 sensors at 256 Hz, n_t 6, n_s 10, n_b 6
DESK_SPEC = SynthSpec(n_classes=4, sensors=8, n_domains=4, trials_per_cell=50,
                      fs=256.0, domain_shift=1.4, seed=7)
DESK_CFG = RunConfig(subject=0, target_session=3, n_t=6, n_s=10, n_b=6, r_data=0.25,
                     batch_size=32, domains_per_batch=3, seed=1)


@pytest.fixture(scope="module")
def desk_primed():
    """An untrained desk-shape model with primed source and target statistics,
    and a trial list that mixes all four sessions."""
    manifest, trials = synth_generate(DESK_SPEC)
    plan = leave_one_session_out(manifest, 0, DESK_CFG.target_session)
    model = TMKNet(build_model_config(manifest, DESK_CFG), seed=DESK_CFG.seed)
    model.register_domains([domain_key(d) for d in plan.sources], [domain_key(plan.target)])
    sampler = DomainBatchSampler([t for t in trials if t.domain in plan.sources], 30, 3,
                                 np.random.default_rng(0))
    for _ in range(3):
        x, _, doms = sampler.next_batch()
        model.prime_stats(x, [domain_key(d) for d in doms])
    target = np.stack([t.signal for t in trials if t.domain == plan.target])
    adapt(model, target, plan.target, batch_size=50)
    return manifest, trials, model


def _whole(model, trials, capture=None):
    """Logits of one forward over every trial on a fresh tape: the unblocked
    oracle."""
    x = np.stack([t.signal for t in trials]).astype(np.float64)
    tape = Tape()
    return model.forward(tape, tape.leaf(x), [domain_key(t.domain) for t in trials],
                         "eval", capture=capture).value


def _spied(model):
    """A copy of `model` whose forward records (rows, logits, capture) per
    call, as a caller that replaces the attribute sees them."""
    model = copy.deepcopy(model)
    calls = []
    forward = model.forward

    def spy(tape, x, domain_ids, mode, pvars=None, capture=None):
        logits = forward(tape, x, domain_ids, mode, pvars, capture)
        calls.append((x.value, logits.value, capture))
        return logits

    model.forward = spy
    return model, calls


def _blocked(calls, trials):
    """The spied forwards' logits stacked in order, after checking that they
    cover `trials` in order, EVAL_BLOCK rows at most per forward."""
    assert all(len(x) <= EVAL_BLOCK for x, _, _ in calls)
    x = np.stack([t.signal for t in trials]).astype(np.float64)
    assert np.concatenate([x for x, _, _ in calls]).tobytes() == x.tobytes()
    return np.concatenate([logits for _, logits, _ in calls])


class TestBlockedForwards:
    """Evaluation, validation, feature export and adaptation run the stem in
    blocks of at most EVAL_BLOCK trials, with the bits of one whole forward."""

    def test_evaluate_matches_one_forward(self, desk_primed):
        manifest, trials, model = desk_primed
        chosen = trials[::8]
        whole = _whole(model, chosen)
        spied, calls = _spied(model)
        report = evaluate(spied, chosen, manifest)
        assert _blocked(calls, chosen).tobytes() == whole.tobytes()
        assert report == report_from_predictions([t.label for t in chosen],
                                                 whole.argmax(axis=1).tolist(),
                                                 manifest.n_classes)

    def test_validation_loss_matches_one_forward(self, desk_primed):
        _, trials, model = desk_primed
        chosen = [t for t in trials if t.domain != (0, 3)][::5]
        logp = ad.log_softmax(Tape().leaf(_whole(model, chosen))).value
        labels = [t.label for t in chosen]
        oracle = -logp[np.arange(len(chosen)), labels].sum() / len(chosen)
        spied, calls = _spied(model)
        loss = _validation_loss(spied, chosen)
        _blocked(calls, chosen)
        assert np.float64(loss).tobytes() == np.float64(oracle).tobytes()

    def test_export_features_matches_one_forward(self, desk_primed):
        _, trials, model = desk_primed
        chosen = trials[3::9]
        captured = {}
        whole = _whole(model, chosen, captured)
        spied, calls = _spied(model)
        _, rows = export_features(spied, chosen)
        assert _blocked(calls, chosen).tobytes() == whole.tobytes()
        for key in ("pre_dsbn", "post_dsbn"):
            assert (np.concatenate([c[key] for _, _, c in calls]).tobytes()
                    == captured[key].tobytes())
        pre = _tangent_vector(sym_fn(captured["pre_dsbn"], "log"))
        post = _tangent_vector(sym_fn(captured["post_dsbn"], "log"))
        assert rows == [[t.trial_id, t.label, t.domain[0], t.domain[1],
                         *pre[i].tolist(), *post[i].tolist()]
                        for i, t in enumerate(chosen)]

    @pytest.mark.parametrize("sizes", [(50, 50), (9,), (17, 32), (7, 2)])
    def test_adapt_batch_matches_one_features_call(self, desk_primed, sizes):
        _, trials, model = desk_primed
        signals = np.stack([t.signal for t in trials if t.domain == (0, 3)]).astype(np.float64)
        blocked, oracle = copy.deepcopy(model), copy.deepcopy(model)
        for m in (blocked, oracle):  # a fresh target domain
            m.dsbn.domains.pop("0/3")
            m.dsbn.register("0/3", "target")
        rows = []
        features = blocked.features

        def spy(x, mode, pvars):
            rows.append(len(x.value))
            return features(x, mode, pvars)

        blocked.features = spy
        start = 0
        for n in sizes:
            x, ids = signals[start:start + n], ["0/3"] * n
            start += n
            blocked.adapt_batch(x, ids)
            tape = Tape()
            h = oracle.features(tape.leaf(x), "eval", oracle.param_vars(tape, trainable=False))
            dsbn_forward(h, ids, oracle.dsbn, "adapt", None, None, 1e-5)
        assert max(rows) <= EVAL_BLOCK and sum(rows) == sum(sizes)
        got, want = blocked.dsbn.domains["0/3"], oracle.dsbn.domains["0/3"]
        assert got.g_run.tobytes() == want.g_run.tobytes()
        assert np.float64(got.v_run).tobytes() == np.float64(want.v_run).tobytes()
        assert got.steps == want.steps == len(sizes)

    def test_pooled_blocks_give_inline_results(self, desk_primed, monkeypatch):
        manifest, trials, model = desk_primed
        chosen = trials[::8]
        target = np.stack([t.signal for t in trials if t.domain == (0, 3)])
        pooled = copy.deepcopy(model)

        def run(m):
            adapt(m, target, (0, 3), batch_size=50)
            return (evaluate(m, chosen, manifest), _validation_loss(m, chosen),
                    export_features(m, chosen), m.state_arrays())

        inline = run(model)
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: True)
        forward = pooled.forward
        names = []

        def spy(*args, **kwargs):
            names.append(threading.current_thread().name)
            return forward(*args, **kwargs)

        pooled.forward = spy
        got = run(pooled)
        assert names and all(n.startswith("tmknet-eval") for n in names)
        assert got[:3] == inline[:3]
        assert all(got[3][k].tobytes() == v.tobytes() for k, v in inline[3].items())

    def test_evaluate_peak_memory_does_not_grow_with_trials(self, desk_primed):
        manifest, trials, model = desk_primed
        evaluate(model, trials[:EVAL_BLOCK], manifest)  # first-call allocations

        def peak(n):
            chosen = trials[:n]
            tracemalloc.start()
            try:
                evaluate(model, chosen, manifest)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4 * EVAL_BLOCK), peak(16 * EVAL_BLOCK)
        assert large <= 1.1 * small, (small, large)


class TestAblate:
    def test_empty_variant_list_gives_baseline_only(self):
        cfg = quick_cfg(epochs=1, seed=3)
        results = ablate(cfg, MANIFEST, TRIALS, [])
        assert [name for name, _ in results] == ["full"]
        table = ablation_table(results)
        assert "full" in table and "accuracy" in table

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            ablate(quick_cfg(), MANIFEST, TRIALS, ["no_such_layer"])

    def test_ablation_in_config_rejected_before_training(self, monkeypatch):
        def fail(*args):
            raise AssertionError("ablate trained a row")

        monkeypatch.setattr(experiment, "run_uda", fail)
        with pytest.raises(ConfigError, match="must not set ablation"):
            ablate(quick_cfg(ablation=("no_mrt",)), MANIFEST, TRIALS, ["no_dilated"])

    @pytest.mark.parametrize("variants,match", [
        (["no_dilated", "no_dilated"], "lists a variant twice"),
        (["no_dilated", "no_such_layer"], "unknown ablation variants"),
    ], ids=["repeated", "unknown-after-known"])
    def test_bad_variant_list_rejected_before_training(self, monkeypatch, variants, match):
        def fail(*args):
            raise AssertionError("ablate trained a row")

        monkeypatch.setattr(experiment, "run_uda", fail)
        with pytest.raises(ConfigError, match=match):
            ablate(quick_cfg(), MANIFEST, TRIALS, variants)

    def test_variant_rows_present(self):
        cfg = quick_cfg(epochs=1, seed=3)
        results = ablate(cfg, MANIFEST, TRIALS, ["no_dilated"])
        assert [name for name, _ in results] == ["full", "no_dilated"]


class TestBuildModelConfig:
    def test_no_mrt_keeps_first_kernel_only(self):
        mc = build_model_config(MANIFEST, quick_cfg(ablation=("no_mrt",)))
        assert len(mc.stem.r_resolution) == 1

    def test_no_mss_keeps_global_only(self):
        mc = build_model_config(MANIFEST, quick_cfg(ablation=("no_mss",)))
        assert mc.stem.mss_kernels == ("global",)

    def test_shared_bn_keeps_the_full_stem(self):
        full = build_model_config(MANIFEST, quick_cfg())
        shared = build_model_config(MANIFEST, quick_cfg(ablation=("shared_bn",)))
        assert shared.shared_bn and not full.shared_bn
        assert shared.stem == full.stem

    @pytest.mark.parametrize("ablation", [(), ("no_mrt",)])
    def test_no_resolution_rejected(self, ablation):
        with pytest.raises(ConfigError, match="at least one temporal branch"):
            build_model_config(MANIFEST, quick_cfg(r_resolution=(), ablation=ablation))

    @pytest.mark.parametrize("adaptation", ["posthoc", "interleaved"])
    def test_every_variant_subset_runs_or_is_rejected(self, adaptation):
        # 2^7 subsets: each builds a model that completes a 1-epoch run_uda,
        # or is a ConfigError from build_model_config
        rejected = []
        for k in range(len(ABLATION_VARIANTS) + 1):
            for flags in itertools.combinations(ABLATION_VARIANTS, k):
                cfg = quick_cfg(epochs=1, ablation=flags, adaptation=adaptation)
                try:
                    build_model_config(MANIFEST, cfg)
                except ConfigError as exc:
                    assert "at least one temporal branch" in str(exc), flags
                    rejected.append(flags)
                    continue
                _, _, report = run_uda(cfg, MANIFEST, TRIALS)
                assert 0.0 <= report.accuracy <= 1.0, flags
        # only a set that removes global and the four anatomical kernels
        # leaves the stem empty: with no_mss, or with all three of
        # no_flexor_extensor, no_proximal_distal and no_dilated; times the 4
        # choices of no_mrt and shared_bn
        assert all("no_global" in flags for flags in rejected)
        assert len(rejected) == (8 + 1) * 4

    def test_kernel_removals(self):
        mc = build_model_config(MANIFEST, quick_cfg(ablation=("no_flexor_extensor",)))
        assert "flexor" not in mc.stem.mss_kernels
        assert "extensor" not in mc.stem.mss_kernels
        assert "global" in mc.stem.mss_kernels

    @pytest.mark.parametrize("variant", ["full", *ABLATION_VARIANTS])
    def test_value_count_matches_model_arrays(self, variant):
        # the loader's value count is the sum of the layout's sizes; the
        # layout must name, shape, tag and order every array as the model does
        cfg = quick_cfg(ablation=(variant,) if variant in ABLATION_VARIANTS else ())
        mc = build_model_config(MANIFEST, cfg)
        model = TMKNet(mc, seed=0)
        model.register_domains(["0/0", "0/1"], ["0/2"])
        rows = layout(mc, model.dsbn_domain_kinds())
        # the parameters are a plain dict, so a repeated name would silently
        # overwrite an array that the checkpoint then misses
        names = [name for name, _, _ in rows]
        assert len(set(names)) == len(names)
        arrays = model.state_arrays()
        assert ([(name, shape) for name, shape, _ in rows]
                == [(k, a.shape) for k, a in arrays.items()])
        params = [(k, p.value.shape, p.tag) for k, p in model.params.items()]
        state = [(k, a.shape, "state") for k, a in sorted(arrays.items())
                 if k.startswith("state.")]
        assert rows == params + state
        count = sum(math.prod(shape) for _, shape, _ in rows)
        assert count == sum(a.size for a in arrays.values())


class TestCheckpoint:
    def test_round_trip_reproduces_metrics(self, tmp_path, trained):
        cfg, model, _ = trained
        plan = leave_one_session_out(MANIFEST, 0, 2)
        val = [t for t in TRIALS if t.domain in plan.sources][:20]
        before = evaluate(model, val, MANIFEST)
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        loaded, cfg2, manifest2 = load_checkpoint(tmp_path / "ck.tmk")
        after = evaluate(loaded, val, manifest2)
        assert before == after
        assert cfg2 == cfg

    def test_round_trip_is_bit_exact_in_model_order(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        loaded, _, _ = load_checkpoint(tmp_path / "ck.tmk")
        assert loaded.dsbn_domain_kinds() == model.dsbn_domain_kinds()
        arrays = [list(m.state_arrays().values()) for m in (model, loaded)]
        assert [a.shape for a in arrays[0]] == [a.shape for a in arrays[1]]
        assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]
        blob = (tmp_path / "ck.tmk").read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        assert blob[16 + header_len:-32] == b"".join(a.astype("<f8").tobytes()
                                                     for a in arrays[0])

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.tmk").write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "bad.tmk")

    def test_shorter_than_preamble(self, tmp_path):
        (tmp_path / "short.tmk").write_bytes(b"TMKN" + b"\x01" * 6)
        with pytest.raises(DataError, match="preamble"):
            load_checkpoint(tmp_path / "short.tmk")

    def test_version_one_rejected(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        blob = bytearray((tmp_path / "ck.tmk").read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        (tmp_path / "ck.tmk").write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 1"):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_flipped_payload_bit_rejected(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        blob = bytearray((tmp_path / "ck.tmk").read_bytes())
        blob[-40] ^= 0x01  # lowest mantissa bit of the last payload value
        (tmp_path / "ck.tmk").write_bytes(bytes(blob))
        with pytest.raises(DataError, match="digest"):
            load_checkpoint(tmp_path / "ck.tmk")

    @pytest.mark.parametrize("header,match", [(b"\xff\xfe{}", "UTF-8 JSON"),
                                              (b'{"config": ', "UTF-8 JSON"),
                                              (b"[1, 2]", "JSON object")])
    def test_header_not_json_object(self, tmp_path, header, match):
        (tmp_path / "bad.tmk").write_bytes(seal_checkpoint(header))
        with pytest.raises(DataError, match=match):
            load_checkpoint(tmp_path / "bad.tmk")

    @pytest.mark.parametrize("key", ["config", "manifest", "domain_kinds"])
    def test_header_missing_key(self, tmp_path, trained, key):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk", header=lambda h: h.pop(key))
        with pytest.raises(DataError, match=key):
            load_checkpoint(tmp_path / "ck.tmk")

    @pytest.mark.parametrize("key,value", [
        ("config", 5),
        ("config", {"r_resolution": 5}),
        ("config", {"no_such_field": 1}),
        ("manifest", [1, 2]),
        ("manifest", {"name": "x"}),
        ("domain_kinds", "0/0"),
    ], ids=["config-int", "config-bad-field-type", "config-unknown-field",
            "manifest-list", "manifest-incomplete", "domain-kinds-str"])
    def test_header_field_wrong_type(self, tmp_path, trained, key, value):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk", header=lambda h: h.update({key: value}))
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "ck.tmk")

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(adaptation="bogus"),
        lambda h: h["config"].update(n_t=0),
        lambda h: h["config"].update(n_b=0),
        lambda h: h["config"].update(n_b=h["config"]["n_s"] + 1),
        lambda h: h["config"].update(ablation=["no_such_variant"]),
        lambda h: h["manifest"].update(overlap_ms=h["manifest"]["window_ms"] + 1),
        lambda h: h["manifest"].update(flexor_ids=[0, 99]),
        lambda h: h["manifest"].update(fs=float("inf")),
        lambda h: h["domain_kinds"].update({"0/0": "neither"}),
    ], ids=["adaptation-bogus", "n_t-zero", "n_b-zero", "n_b-exceeds-n_s", "ablation-unknown",
            "manifest-overlap-exceeds-window", "manifest-index-out-of-range", "manifest-fs-inf",
            "domain-kind-unknown"])
    def test_header_config_invalid(self, tmp_path, trained, edit):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk", header=edit)
        with pytest.raises(DataError, match="does not describe a model"):
            load_checkpoint(tmp_path / "ck.tmk")

    @pytest.mark.parametrize("header,payload", [
        (None, lambda v: v[:-1]),
        (None, lambda v: np.append(v, 0.0)),
        (lambda h: h["config"].update(n_b=h["config"]["n_b"] - 1), None),
    ], ids=["one-short", "one-long", "n_b-edited"])
    def test_payload_length_mismatch(self, tmp_path, trained, header, payload):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk", header=header, payload=payload)
        with pytest.raises(DataError, match="payload holds"):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_header_model_bounded_before_allocation(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk",
                          header=lambda h: h["manifest"].update(fs=h["manifest"]["fs"] * 1e6))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="payload holds"):
                load_checkpoint(tmp_path / "ck.tmk")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_non_finite_step_count(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        # scalars = [v_run, steps]
        reseal_checkpoint(tmp_path / "ck.tmk",
                          payload=set_array_value(model, "state.dsbn.0/0.scalars", 1, np.nan))
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_header_domains_bounded_before_allocation(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk", header=lambda h: h["domain_kinds"].update(
            {f"9/{i}": "target" for i in range(20_000)}))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="payload holds"):
                load_checkpoint(tmp_path / "ck.tmk")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("name,index,value", [
        ("state.mss_bn.var", 0, -1.0),
        ("state.mrt_bn.flag", 0, 0.5),
        ("state.dsbn.0/0.scalars", 1, -1.0),
        ("state.dsbn.0/0.scalars", 1, 0.5),
        ("state.dsbn.0/2.scalars", 0, -0.5),
        ("state.dsbn.0/1.g_run", (1, 1), -50.0),
        ("dsbn.g_phi", (0, 0), -50.0),
    ], ids=["bn-var-negative", "bn-flag-half", "steps-negative", "steps-fractional",
            "v_run-negative", "g_run-not-spd", "g_phi-not-spd"])
    def test_state_out_of_range(self, tmp_path, trained, name, index, value):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk",
                          payload=set_array_value(model, name, index, value))
        with pytest.raises(DataError, match=f"checkpoint array '{name}'"):
            load_checkpoint(tmp_path / "ck.tmk")

    @pytest.mark.parametrize("name", ["state.dsbn.0/0.g_run", "dsbn.g_phi"],
                             ids=["g_run", "g_phi"])
    def test_asymmetric_spd_state(self, tmp_path, trained, name):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        moved = model.state_arrays()[name][0, 1] + 1e-3
        reseal_checkpoint(tmp_path / "ck.tmk", payload=set_array_value(model, name, (0, 1), moved))
        with pytest.raises(DataError, match=f"checkpoint array '{name}' is not a symmetric"):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_shared_bn_header_with_a_target_kind(self, tmp_path):
        # the shared bucket is registered as a source domain when the model is built
        cfg = quick_cfg(ablation=("shared_bn",))
        model = TMKNet(build_model_config(MANIFEST, cfg), seed=cfg.seed)
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        reseal_checkpoint(tmp_path / "ck.tmk",
                          header=lambda h: h.update(domain_kinds={"shared": "target"}))
        with pytest.raises(DataError, match="does not describe a model"):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_payload_cut_inside_a_value(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        blob = (tmp_path / "ck.tmk").read_bytes()
        (tmp_path / "ck.tmk").write_bytes(blob[:-3])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_manifest_document_is_to_doc(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        blob = (tmp_path / "ck.tmk").read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        assert sorted(header) == ["config", "domain_kinds", "manifest"]
        assert header["manifest"] == json.loads(json.dumps(asdict(MANIFEST)))

    def test_truncated_payload(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        blob = (tmp_path / "ck.tmk").read_bytes()
        (tmp_path / "ck.tmk").write_bytes(blob[:-64])
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_config_hash_stable(self):
        assert quick_cfg().hash() == quick_cfg().hash()
        assert quick_cfg().hash() != quick_cfg(seed=6).hash()


class TestRunConfigDoc:
    def test_hash_values_pinned(self):
        assert RunConfig().hash() == "d29ebe3f05019fc8"
        assert RunConfig(ablation=("no_mss",), r_resolution=(0.0625,),
                         cov_lambda=0.5).hash() == "8764674d5ff00f08"

    def test_every_order_of_a_variant_set_gives_one_hash(self):
        variants = ("no_mrt", "no_dilated", "shared_bn")
        configs = [RunConfig(ablation=order) for order in itertools.permutations(variants)]
        assert {c.hash() for c in configs} == {configs[0].hash()}
        assert all(c.ablation == ("no_mrt", "no_dilated", "shared_bn") for c in configs)

    @pytest.mark.parametrize("ablation", [("no_dilated", "no_dilated"),
                                          ("no_mrt", "no_mrt", "no_dilated")],
                             ids=["twice", "twice-with-another"])
    def test_repeated_variant_rejected(self, ablation):
        with pytest.raises(ConfigError, match="lists a variant twice"):
            RunConfig(ablation=ablation)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("lr", math.nan), ("lr", math.inf), ("lr", 0.0), ("lr", -1e-3),
        ("weight_decay", math.nan), ("weight_decay", math.inf), ("weight_decay", -1e-4),
    ], ids=["lr-nan", "lr-inf", "lr-zero", "lr-negative", "decay-nan", "decay-inf",
            "decay-negative"])
    def test_optimizer_setting_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match="need finite lr > 0 and weight_decay >= 0"):
            RunConfig(**{field: value})

    def test_absent_fields_take_defaults(self):
        assert RunConfig(**json.loads('{"epochs": 3}')) == RunConfig(epochs=3)
