import json
import struct

import numpy as np
import pytest

from tmknet.data import SynthSpec, leave_one_session_out, synth_generate
from tmknet.errors import ConfigError, DataError
from tmknet.experiment import (
    RunConfig,
    ablate,
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
from tmknet.model import TMKNet


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
            adapt(model, signals, (0, 0))

    def test_too_few_trials(self, trained):
        _, model, _ = trained
        with pytest.raises(DataError):
            adapt(model, np.zeros((1, 8, 64)), (0, 2))

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

    def test_kernel_removals(self):
        mc = build_model_config(MANIFEST, quick_cfg(ablation=("no_flexor_extensor",)))
        assert "flexor" not in mc.stem.mss_kernels
        assert "extensor" not in mc.stem.mss_kernels
        assert "global" in mc.stem.mss_kernels


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

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.tmk").write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "bad.tmk")

    def test_shorter_than_preamble(self, tmp_path):
        (tmp_path / "short.tmk").write_bytes(b"TMKN" + b"\x01" * 6)
        with pytest.raises(DataError, match="preamble"):
            load_checkpoint(tmp_path / "short.tmk")

    @pytest.mark.parametrize("header,match", [(b"\xff\xfe{}", "UTF-8 JSON"),
                                              (b'{"config": ', "UTF-8 JSON"),
                                              (b"[1, 2]", "JSON object")])
    def test_header_not_json_object(self, tmp_path, header, match):
        blob = b"TMKN" + struct.pack("<IQ", 1, len(header)) + header
        (tmp_path / "bad.tmk").write_bytes(blob)
        with pytest.raises(DataError, match=match):
            load_checkpoint(tmp_path / "bad.tmk")

    @staticmethod
    def _edit_header(path, edit):
        """Rewrite a checkpoint's JSON header through `edit(header)`."""
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:4] + struct.pack("<IQ", 1, len(raw)) + raw
                         + blob[16 + header_len:])

    @pytest.mark.parametrize("key", ["config", "manifest", "entries", "domain_kinds"])
    def test_header_missing_key(self, tmp_path, trained, key):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        self._edit_header(tmp_path / "ck.tmk", lambda h: h.pop(key))
        with pytest.raises(DataError, match=key):
            load_checkpoint(tmp_path / "ck.tmk")

    @pytest.mark.parametrize("key,value", [
        ("config", 5),
        ("config", {"r_resolution": 5}),
        ("config", {"no_such_field": 1}),
        ("manifest", [1, 2]),
        ("manifest", {"name": "x"}),
        ("domain_kinds", "0/0"),
        ("entries", {"kind": "param"}),
        ("entries", [5]),
        ("entries", [{"kind": "param", "name": "head.bias", "shape": [3]}]),
        ("entries", [{"kind": "param", "name": "head.bias", "shape": ["3"], "offset": 0}]),
        ("entries", [{"kind": "param", "name": "head.bias", "shape": [3], "offset": -8}]),
    ], ids=["config-int", "config-bad-field-type", "config-unknown-field",
            "manifest-list", "manifest-incomplete", "domain-kinds-str", "entries-object",
            "entries-int-row", "entry-no-offset", "entry-shape-str", "entry-negative-offset"])
    def test_header_field_wrong_type(self, tmp_path, trained, key, value):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        self._edit_header(tmp_path / "ck.tmk", lambda h: h.update({key: value}))
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_param_shape_mismatch(self, tmp_path, trained):
        # same element count, transposed shape: a silent reshape would load it
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)

        def transpose_head(header):
            for e in header["entries"]:
                if e["name"] == "head.weight":
                    e["shape"] = e["shape"][::-1]

        self._edit_header(tmp_path / "ck.tmk", transpose_head)
        with pytest.raises(DataError, match="head.weight"):
            load_checkpoint(tmp_path / "ck.tmk")

    def test_missing_state_entry(self, tmp_path, trained):
        cfg, model, _ = trained
        save_checkpoint(tmp_path / "ck.tmk", model, cfg, MANIFEST)
        self._edit_header(tmp_path / "ck.tmk", lambda h: h.update(
            entries=[e for e in h["entries"] if e["name"] != "state.mss_bn.var"]))
        with pytest.raises(DataError, match="state.mss_bn.var"):
            load_checkpoint(tmp_path / "ck.tmk")

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
        assert RunConfig().hash() == "66c94f21dbfe3a01"
        assert RunConfig(ablation=("no_mss",), r_resolution=(0.0625,),
                         cov_lambda=0.5).hash() == "4a28b1cb0671abe8"

    @pytest.mark.parametrize("cfg", [
        RunConfig(),
        RunConfig(ablation=("no_mss", "no_dilated"), r_resolution=(0.0625,), cov_lambda=0.5,
                  shared_bn=True, adaptation="interleaved"),
    ], ids=["default", "tuples-and-flags"])
    def test_json_round_trip(self, cfg):
        doc = cfg.to_doc()
        assert isinstance(doc["r_resolution"], list) and isinstance(doc["ablation"], list)
        assert RunConfig.from_doc(json.loads(json.dumps(doc))) == cfg

    def test_absent_fields_take_defaults(self):
        assert RunConfig.from_doc({"epochs": 3}) == RunConfig(epochs=3)
