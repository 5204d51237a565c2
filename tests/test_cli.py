import csv
import ctypes
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import reseal_checkpoint, set_array_value

from tmknet import experiment
from tmknet.autodiff import _openblas
from tmknet.cli import main
from tmknet.data import SynthSpec, save_dataset, synth_generate
from tmknet.experiment import load_checkpoint
from tmknet.metrics import MetricsReport, wilcoxon_signed_rank


TRAIN_FLAGS = ["--n-t", "4", "--n-s", "6", "--n-b", "4", "--batch-size", "16",
               "--domains-per-batch", "2", "--epochs", "2", "--seed", "5",
               "--target-session", "2"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(["synth", "--classes", "3", "--sensors", "8", "--domains", "3",
                 "--trials-per-cell", "10", "--fs", "256", "--domain-shift", "1.4",
                 "--seed", "7", "--out", str(data)])
    assert code == 0
    return data


@pytest.fixture(scope="module")
def trained_run(dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("cli-run") / "run"
    code = main(["train", "--data", str(dataset), "--out", str(run), *TRAIN_FLAGS])
    assert code == 0
    return run


class TestSynthImport:
    def test_synth_writes_dataset(self, dataset):
        assert (dataset / "manifest.json").exists()
        assert (dataset / "trials.f32").exists()
        assert (dataset / "index.csv").exists()

    def test_synth_defaults_are_synthspec_defaults(self, tmp_path):
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        assert main(["synth", "--classes", "2", "--domains", "2", "--trials-per-cell", "3",
                     "--seed", "4", "--out", str(cli)]) == 0
        save_dataset(lib, *synth_generate(SynthSpec(n_classes=2, n_domains=2,
                                                    trials_per_cell=3, seed=4)))
        names = sorted(p.name for p in lib.iterdir())
        assert sorted(p.name for p in cli.iterdir()) == names
        for name in names:
            assert (cli / name).read_bytes() == (lib / name).read_bytes(), name

    def test_import_round_trip(self, dataset, tmp_path):
        out = tmp_path / "copy"
        assert main(["import", "--src", str(dataset), "--out", str(out)]) == 0
        assert (out / "trials.f32").read_bytes() == (dataset / "trials.f32").read_bytes()

    def test_import_missing_dir_is_data_error(self, tmp_path):
        assert main(["import", "--src", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "o")]) == 2


class TestTrainEval:
    def test_run_dir_contents(self, trained_run):
        assert (trained_run / "checkpoint.tmk").exists()
        report = MetricsReport(**json.loads((trained_run / "metrics.json").read_text()))
        assert 0.0 <= report.accuracy <= 1.0
        snap = json.loads((trained_run / "config.json").read_text())
        assert snap["seed"] == 5
        assert snap["build_id"].startswith("tmknet-v")
        assert snap["config_hash"]

    @pytest.mark.skipif(_openblas("get_num_threads", ctypes.c_int) is None,
                        reason="numpy bundles no OpenBLAS with scipy_openblas_get_num_threads")
    def test_config_json_records_environment(self, dataset, trained_run, tmp_path):
        snap = json.loads((trained_run / "config.json").read_text())
        env = snap["environment"]
        assert list(env) == ["numpy", "blas", "blas_threads"]
        assert env["numpy"] == np.__version__ and isinstance(env["blas"], str)
        assert env["blas_threads"] == 1  # `main` pins OpenBLAS to one thread
        cfg = experiment.RunConfig(**snap["config"])
        assert snap["config_hash"] == cfg.hash() and snap["build_id"].endswith(cfg.hash()[:8])
        rerun = tmp_path / "rerun"
        assert main(["train", "--data", str(dataset), "--out", str(rerun),
                     "--config", str(trained_run / "config.json")]) == 0
        assert (rerun / "metrics.json").read_bytes() == (trained_run / "metrics.json").read_bytes()

    def test_rerun_from_snapshot_reproduces_bitwise(self, dataset, trained_run, tmp_path):
        snap = json.loads((trained_run / "config.json").read_text())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(snap["config"]))
        rerun = tmp_path / "rerun"
        assert main(["train", "--data", str(dataset), "--out", str(rerun),
                     "--config", str(cfg_file)]) == 0
        assert ((rerun / "metrics.json").read_text()
                == (trained_run / "metrics.json").read_text())
        assert ((rerun / "checkpoint.tmk").read_bytes()
                == (trained_run / "checkpoint.tmk").read_bytes())

    def test_rerun_from_run_config_json_reproduces_bitwise(self, dataset, trained_run,
                                                           tmp_path):
        rerun = tmp_path / "rerun"
        assert main(["train", "--data", str(dataset), "--out", str(rerun),
                     "--config", str(trained_run / "config.json")]) == 0
        for name in ("checkpoint.tmk", "metrics.json", "config.json"):
            assert (rerun / name).read_bytes() == (trained_run / name).read_bytes()

    def test_config_file_not_object_exits_two(self, dataset, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("5")
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     "--config", str(cfg_file)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_adapt_then_eval_target(self, dataset, trained_run, tmp_path):
        adapted = tmp_path / "adapted"
        assert main(["adapt", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(dataset), "--out", str(adapted)]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(adapted / "checkpoint.tmk"),
                     "--data", str(dataset), "--domain", "0/2", "--out", str(out)]) == 0
        report = MetricsReport(**json.loads((out / "metrics.json").read_text()))
        assert 0.0 <= report.accuracy <= 1.0

    def test_eval_unadapted_target_is_usage_error(self, dataset, trained_run, tmp_path):
        code = main(["eval", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(dataset), "--domain", "0/2",
                     "--out", str(tmp_path / "e")])
        assert code == 1  # uninitialized target statistics

    def test_config_file_unknown_key_rejected(self, dataset, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"epochs": 1, "not_a_field": 3}))
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     "--config", str(cfg_file)]) == 1

    @pytest.mark.parametrize("doc,message", [
        ({"epochs": "2"}, "epochs must be int, got '2'"),
        ({"epochs": True}, "epochs must be int, got True"),
        ({"lr": "0.1"}, "lr must be float, got '0.1'"),
    ], ids=["epochs-string", "epochs-bool", "lr-string"])
    def test_config_file_mistyped_value_exits_one(self, dataset, tmp_path, capsys, doc,
                                                  message):
        cfg_file = tmp_path / "bad.json"
        # flags would override the file, so the small run is spelled in it
        cfg_file.write_text(json.dumps({"n_t": 4, "n_s": 6, "n_b": 4, "batch_size": 16,
                                        "domains_per_batch": 2, "epochs": 2,
                                        "target_session": 2, **doc}))
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     "--config", str(cfg_file)]) == 1
        assert f"error: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize("slope", [-3.0, 0.0, 1.0, float("nan")],
                             ids=["negative", "zero", "one", "nan"])
    def test_config_file_leaky_slope_outside_unit_interval_exits_one(
            self, dataset, tmp_path, capsys, slope):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"n_t": 4, "n_s": 6, "n_b": 4, "batch_size": 16,
                                        "domains_per_batch": 2, "epochs": 2,
                                        "target_session": 2, "leaky_slope": slope}))
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     "--config", str(cfg_file)]) == 1
        assert "error: leaky_slope must lie in (0, 1)" in capsys.readouterr().err


class TestErrorPaths:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["synth", "--does-not-exist", "1", "--out", "x"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_one(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_non_integer_seed_variable_exits_one(self, dataset, tmp_path, monkeypatch,
                                                 capsys, command):
        monkeypatch.setenv("TMKNET_SEED", "abc")
        args = (["--out", str(tmp_path / "o")] if command == "synth" else
                ["--data", str(dataset), "--out", str(tmp_path / "o"), "--epochs", "0"])
        assert main([command, *args]) == 1
        assert "error: TMKNET_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "ablate"])
    def test_seed_help_names_the_variable(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        assert "--seed SEED default TMKNET_SEED or 0" in " ".join(capsys.readouterr().out.split())

    def test_missing_data_dir_exits_two(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "r"), *TRAIN_FLAGS]) == 2

    def test_short_checkpoint_exits_two(self, dataset, tmp_path, capsys):
        short = tmp_path / "short.tmk"
        short.write_bytes(b"TMKN" + b"\x01" * 6)
        assert main(["adapt", "--checkpoint", str(short), "--data", str(dataset),
                     "--out", str(tmp_path / "a")]) == 2
        assert "data error:" in capsys.readouterr().err


    @pytest.mark.parametrize("name", ["missing.tmk", "."], ids=["missing", "directory"])
    def test_unreadable_checkpoint_exits_two(self, dataset, tmp_path, capsys, name):
        assert main(["eval", "--checkpoint", str(tmp_path / name), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 2
        assert "data error: cannot read" in capsys.readouterr().err

    def test_config_file_is_directory_exits_two(self, dataset, tmp_path, capsys):
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     "--config", str(tmp_path)]) == 2
        assert "data error: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()  # rejected before the run directory

    def test_non_finite_checkpoint_exits_two(self, dataset, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.tmk"
        shutil.copy(trained_run / "checkpoint.tmk", bad)
        reseal_checkpoint(bad, payload=lambda v: np.concatenate([[np.nan], v[1:]]))
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                     "--domain", "0/0", "--out", str(tmp_path / "e")]) == 2
        assert "data error:" in capsys.readouterr().err

    def test_out_of_range_checkpoint_state_exits_two(self, dataset, trained_run, tmp_path,
                                                     capsys):
        bad = tmp_path / "bad.tmk"
        shutil.copy(trained_run / "checkpoint.tmk", bad)
        model, _, _ = load_checkpoint(bad)
        reseal_checkpoint(bad, payload=set_array_value(model, "state.dsbn.0/0.scalars", 1, -1.0))
        assert main(["adapt", "--checkpoint", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "a")]) == 2
        assert "step count" in capsys.readouterr().err

    def test_asymmetric_running_mean_exits_two(self, dataset, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.tmk"
        shutil.copy(trained_run / "checkpoint.tmk", bad)
        model, _, _ = load_checkpoint(bad)
        name = "state.dsbn.0/0.g_run"
        moved = model.arrays()[name][0, 1] + 1e-3
        reseal_checkpoint(bad, payload=set_array_value(model, name, (0, 1), moved))
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                     "--domain", "0/0", "--out", str(tmp_path / "e")]) == 2
        assert f"checkpoint array '{name}' is not a symmetric" in capsys.readouterr().err

    def test_eval_before_stem_statistics_exits_one(self, dataset, trained_run, tmp_path,
                                                   capsys):
        unprimed = tmp_path / "unprimed.tmk"
        shutil.copy(trained_run / "checkpoint.tmk", unprimed)
        model, _, _ = load_checkpoint(unprimed)
        reseal_checkpoint(unprimed, payload=set_array_value(model, "state.mss_bn.flag", 0, 0.0))
        assert main(["eval", "--checkpoint", str(unprimed), "--data", str(dataset),
                     "--domain", "0/0", "--out", str(tmp_path / "e")]) == 1
        assert "uninitialized" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--batch-size", "3", "--domains-per-batch", "3"], "batch_size >= 2"),
        (["--batch-size", "2", "--domains-per-batch", "3"], "batch_size >= 2"),
        (["--batch-size", "0"], "batch_size >= 2"),
        (["--domains-per-batch", "0"], "domains_per_batch >= 1"),
        (["--epochs", "-1"], "epochs must be non-negative"),
        (["--gamma-source", "2"], "gamma_source must lie in [0, 1]"),
        (["--gamma-target", "-0.5"], "gamma_target must lie in [0, 1]"),
        (["--lr", "nan"], "error: need finite lr > 0"),
        (["--lr", "inf"], "error: need finite lr > 0"),
        (["--weight-decay", "nan"], "error: need finite lr > 0 and weight_decay >= 0"),
    ], ids=["one-trial-per-domain", "fewer-trials-than-domains", "batch-zero",
            "domains-zero", "epochs-negative", "gamma-source-above-one",
            "gamma-target-negative", "lr-nan", "lr-inf", "weight-decay-nan"])
    def test_bad_batch_flags_exit_one(self, dataset, tmp_path, capsys, flags, message):
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     *TRAIN_FLAGS, *flags]) == 1
        assert message in capsys.readouterr().err

    def test_pool_size_beyond_conv_output_exits_one(self, dataset, tmp_path, capsys):
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     *TRAIN_FLAGS, "--pool-size", "1000"]) == 1
        assert "error: pool size 1000 exceeds" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()  # rejected before the run directory

    def test_adapt_without_target_trials_exits_two(self, trained_run, tmp_path, capsys):
        # the dataset of the checkpoint less its target session 2
        data = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--sensors", "8", "--domains", "2",
                     "--trials-per-cell", "10", "--fs", "256", "--domain-shift", "1.4",
                     "--seed", "7", "--out", str(data)]) == 0
        assert main(["adapt", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(data), "--out", str(tmp_path / "a")]) == 2
        assert "no trials for target domain" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,flags", [
        ({"r_resolution": []}, []),
        ({}, ["--ablation", "no_global,no_flexor_extensor,no_proximal_distal,no_dilated"]),
        ({}, ["--ablation", "no_mss,no_global"]),
    ], ids=["no-resolution", "every-kernel", "no-mss-no-global"])
    def test_empty_stem_exits_one(self, dataset, tmp_path, capsys, doc, flags):
        cfg_file = tmp_path / "stem.json"
        cfg_file.write_text(json.dumps(doc))
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     *TRAIN_FLAGS, "--config", str(cfg_file), *flags]) == 1
        assert "at least one temporal branch" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()  # rejected before the run directory

    @pytest.mark.parametrize("edit", [
        {"r_resolution": []},
        {"ablation": ["no_mss", "no_global"]},
    ], ids=["no-resolution", "no-mss-no-global"])
    def test_checkpoint_header_empty_stem_exits_two(self, dataset, trained_run, tmp_path,
                                                    capsys, edit):
        bad = tmp_path / "bad.tmk"
        shutil.copy(trained_run / "checkpoint.tmk", bad)
        reseal_checkpoint(bad, header=lambda h: h["config"].update(edit))
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                     "--domain", "0/0", "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "at least one temporal branch" in err

    def test_checkpoint_version_two_exits_two(self, dataset, trained_run, tmp_path, capsys):
        old = tmp_path / "old.tmk"
        blob = bytearray((trained_run / "checkpoint.tmk").read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        old.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(old), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 2
        assert "unsupported checkpoint version 2" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_ablate_with_ablation_set_exits_one(self, dataset, tmp_path, capsys, how):
        # each row sets its own ablation, so a set one would be recorded
        # in config.json yet never trained
        if how == "flag":
            flags = ["--ablation", "no_mrt"]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"ablation": ["no_mrt"]}))
            flags = ["--config", str(tmp_path / "c.json")]
        assert main(["ablate", "--data", str(dataset), "--out", str(tmp_path / "a"),
                     "--variants", "no_dilated", *TRAIN_FLAGS, *flags]) == 1
        assert "must not set ablation" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_repeated_variant_exits_one_before_training(self, dataset, tmp_path, capsys,
                                                        monkeypatch, command):
        def fail(*args):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(experiment, "run_uda", fail)  # what ablate trains each row with
        flag = "--ablation" if command == "train" else "--variants"
        assert main([command, "--data", str(dataset), "--out", str(tmp_path / "r"),
                     *TRAIN_FLAGS, flag, "no_dilated,no_dilated"]) == 1
        assert "lists a variant twice" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command,flags,env", [
        ("train", ["--seed", "-1"], None),
        ("ablate", ["--seed", "-1", "--variants", "no_dilated"], None),
        ("synth", [], "-5"),
        ("synth", ["--seed", "-3"], None),
    ], ids=["train-flag", "ablate-flag", "synth-variable", "synth-flag"])
    def test_negative_seed_exits_one(self, dataset, tmp_path, capsys, monkeypatch,
                                     command, flags, env):
        if env is not None:
            monkeypatch.setenv("TMKNET_SEED", env)
        data = [] if command == "synth" else ["--data", str(dataset), *TRAIN_FLAGS]
        assert main([command, *data, *flags, "--out", str(tmp_path / "o")]) == 1
        assert "error: seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--fs", "nan", "fs must be positive and finite"),
        ("--fs", "inf", "fs must be positive and finite"),
        ("--fs", "-256", "fs must be positive and finite"),
        ("--fs", "0", "fs must be positive and finite"),
        ("--window-ms", "inf", "window_ms must be positive and finite"),
        ("--domain-shift", "nan", "domain_shift must be non-negative and finite"),
        ("--window-ms", "5", "1.28 samples; it needs a finite count of at least 2"),
    ])
    def test_synth_bad_number_exits_one(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--domains", "2", "--trials-per-cell", "2",
                     "--fs", "256", "--domain-shift", "1.4", flag, value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("eps_var", float("inf")), ("eps_reeig", float("nan")), ("cov_lambda", float("nan")),
    ], ids=["eps-var-inf", "eps-reeig-nan", "cov-lambda-nan"])
    def test_non_finite_model_constant_exits_one(self, dataset, tmp_path, capsys, field,
                                                 value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: value}))  # Python's json spells NaN, Infinity
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     *TRAIN_FLAGS, "--config", str(cfg_file)]) == 1
        assert f"error: {field} must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()  # rejected before the run directory

    def test_overflowing_lr_exits_three(self, dataset, tmp_path, capsys):
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     *TRAIN_FLAGS, "--lr", "1e308"]) == 3
        assert "numerical failure: Stiefel retraction failed" in capsys.readouterr().err

    def test_n_b_above_n_s_exits_one(self, dataset, tmp_path, capsys):
        flags = [*TRAIN_FLAGS, "--n-s", "4", "--n-b", "6"]
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r"),
                     *flags]) == 1
        assert "exceeds n_s" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()  # rejected before the run directory

    def test_checkpoint_header_wrong_type_exits_two(self, dataset, trained_run, tmp_path,
                                                    capsys):
        bad = tmp_path / "bad.tmk"
        shutil.copy(trained_run / "checkpoint.tmk", bad)
        reseal_checkpoint(bad, header=lambda h: h.update(config=5))
        assert main(["adapt", "--checkpoint", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "a")]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section,edit", [
        ("config", {"adaptation": "bogus"}),
        ("config", {"n_t": 0}),
        ("manifest", {"overlap_ms": 1000.0}),
        ("config", {"lr": "0.1"}),
        ("config", {"gamma_target": 2}),
        ("config", {"leaky_slope": -3.0}),
        ("config", {"seed": -1}),
    ], ids=["adaptation-bogus", "n_t-zero", "manifest-overlap-exceeds-window",
            "lr-string", "gamma-target-above-one", "leaky-slope-negative", "seed-negative"])
    def test_checkpoint_header_invalid_config_exits_two(self, dataset, trained_run, tmp_path,
                                                        capsys, section, edit):
        bad = tmp_path / "bad.tmk"
        shutil.copy(trained_run / "checkpoint.tmk", bad)
        reseal_checkpoint(bad, header=lambda h: h[section].update(edit))
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                     "--domain", "0/0", "--out", str(tmp_path / "e")]) == 2
        assert "data error:" in capsys.readouterr().err

    def test_manifest_overlap_exceeds_window_exits_two(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        doc = json.loads((data / "manifest.json").read_text())
        doc["overlap_ms"] = doc["window_ms"] + 1.0
        (data / "manifest.json").write_text(json.dumps(doc))
        assert main(["import", "--src", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["index.csv", "trials.f32"])
    def test_missing_store_file_exits_two(self, dataset, tmp_path, capsys, name):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        (data / name).unlink()
        assert main(["import", "--src", str(data), "--out", str(tmp_path / "o")]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        (0, "0", "trial id 0 appears more than once"),
        (4, "9", "does not list"),
        (1, "4", "not a multiple"),
    ], ids=["duplicate-id", "unlisted-session", "misaligned-offset"])
    def test_inconsistent_index_exits_two(self, dataset, tmp_path, capsys, field, value,
                                          message):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        with open(data / "index.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][field] = value
        with open(data / "index.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["import", "--src", str(data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and message in err

    def test_non_integer_index_field_exits_two(self, dataset, trained_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        with open(data / "index.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[4][3] = "zero"  # subject
        with open(data / "index.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(data), "--domain", "0/0",
                     "--out", str(tmp_path / "e")]) == 2
        assert "index.csv line 5" in capsys.readouterr().err

    def test_label_out_of_range_exits_two(self, dataset, trained_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        with open(data / "index.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][2] = "3"  # three classes: label ids 0..2
        with open(data / "index.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(data), "--domain", "0/0",
                     "--out", str(tmp_path / "e")]) == 2
        assert "label_id" in capsys.readouterr().err

    @pytest.mark.parametrize("synth_flags,fields", [
        (["--fs", "512"], ["fs"]),
        (["--classes", "5"], ["class_names"]),
        (["--fs", "512", "--classes", "2"], ["fs", "class_names"]),
    ], ids=["fs-512", "five-classes", "fs-and-classes"])
    @pytest.mark.parametrize("command,flags", [
        ("adapt", []),
        ("eval", ["--domain", "0/0"]),
        ("saliency", ["--trial-id", "0", "--target-class", "0"]),
        ("export-features", []),
    ], ids=["adapt", "eval", "saliency", "export-features"])
    def test_dataset_recorded_differently_exits_two(self, trained_run, tmp_path, capsys,
                                                    synth_flags, fields, command, flags):
        data = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--sensors", "8", "--domains", "3",
                     "--trials-per-cell", "10", "--fs", "256", "--domain-shift", "1.4",
                     "--seed", "7", *synth_flags, "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(data), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "recorded differently" in err
        differ = err.split("trained on: ", 1)[1]
        assert [part.split()[0] for part in differ.split("; ")] == fields
        assert not out.exists()


class TestSharedBn:
    @pytest.fixture(scope="class")
    def shared_run(self, dataset, tmp_path_factory):
        run = tmp_path_factory.mktemp("cli-shared") / "run"
        assert main(["train", "--data", str(dataset), "--out", str(run), *TRAIN_FLAGS,
                     "--ablation", "shared_bn", "--adaptation", "interleaved"]) == 0
        return run

    def test_train_interleaved_writes_checkpoint(self, shared_run):
        assert (shared_run / "checkpoint.tmk").exists()
        assert (shared_run / "metrics.json").exists()
        snap = json.loads((shared_run / "config.json").read_text())
        assert snap["config"]["ablation"] == ["shared_bn"]

    def test_adapt_exits_one(self, dataset, shared_run, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["adapt", "--checkpoint", str(shared_run / "checkpoint.tmk"),
                     "--data", str(dataset), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the model uses shared batch normalization")
        assert not out.exists()


class TestSaliencyExport:
    def test_saliency_outputs(self, dataset, trained_run, tmp_path):
        out = tmp_path / "sal"
        assert main(["saliency", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(dataset), "--trial-id", "0",
                     "--target-class", "0", "--out", str(out)]) == 0
        sal = np.loadtxt(out / "saliency.csv", delimiter=",")
        assert sal.shape == (8, 64)
        with open(out / "saliency_per_sensor.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sensor", "max_saliency"]
        assert len(rows) == 1 + 8

    def test_export_features(self, dataset, trained_run, tmp_path):
        adapted = tmp_path / "adapted"
        assert main(["adapt", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(dataset), "--out", str(adapted)]) == 0
        out = tmp_path / "feats"
        assert main(["export-features",
                     "--checkpoint", str(adapted / "checkpoint.tmk"),
                     "--data", str(dataset), "--out", str(out)]) == 0
        with open(out / "features.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["trial_id", "label", "subject", "session"]
        assert len(rows) == 1 + 90  # 3 classes x 3 domains x 10 trials

    def test_export_without_target_stats_is_usage_error(self, dataset, trained_run, tmp_path):
        assert main(["export-features",
                     "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(dataset), "--out", str(tmp_path / "f")]) == 1


class TestCompare:
    def test_matches_wilcoxon_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        a_vals = rng.uniform(0.6, 0.9, size=6)
        b_vals = a_vals - rng.uniform(0.01, 0.1, size=6)
        a_files, b_files = [], []
        for i, (av, bv) in enumerate(zip(a_vals, b_vals)):
            ra = MetricsReport(accuracy=float(av), macro_f1=float(av), precision=[],
                               recall=[], f1=[], confusion=[])
            rb = MetricsReport(accuracy=float(bv), macro_f1=float(bv), precision=[],
                               recall=[], f1=[], confusion=[])
            pa, pb = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
            pa.write_text(ra.to_json())
            pb.write_text(rb.to_json())
            a_files.append(str(pa))
            b_files.append(str(pb))
        assert main(["compare", "--a", *a_files, "--b", *b_files]) == 0
        out = capsys.readouterr().out
        w, p = wilcoxon_signed_rank(a_vals, b_vals)
        assert f"W={w:g}" in out
        assert f"p={p:.6g}" in out

    def test_unpaired_lengths_exit_one(self, tmp_path):
        rep = MetricsReport(accuracy=0.5, macro_f1=0.5, precision=[], recall=[],
                            f1=[], confusion=[])
        p1 = tmp_path / "x.json"
        p1.write_text(rep.to_json())
        assert main(["compare", "--a", str(p1), str(p1), "--b", str(p1)]) == 1

    @pytest.mark.parametrize("text", ["accuracy: 0.5", '{"accuracy": 1}', None,
                                      {"precision": "0.5"}, {"seed": 1.5}],
                             ids=["not-json", "missing-fields", "directory",
                                  "precision-string", "seed-not-int"])
    def test_malformed_report_exits_two(self, tmp_path, capsys, text):
        fields = dict(accuracy=0.5, macro_f1=0.5, precision=[], recall=[], f1=[],
                      confusion=[])
        good = tmp_path / "good.json"
        good.write_text(MetricsReport(**fields).to_json())
        bad = tmp_path / "bad.json"
        if text is None:
            bad.mkdir()
        elif isinstance(text, dict):  # a report with one field mistyped
            bad.write_text(json.dumps({**fields, **text}))
        else:
            bad.write_text(text)
        assert main(["compare", "--a", str(good), "--b", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err

    @pytest.mark.parametrize("value", ["x", True, float("nan"), float("inf"), None],
                             ids=["string", "bool", "nan", "inf", "null"])
    def test_metric_not_a_finite_number_exits_two(self, tmp_path, capsys, value):
        def report(accuracy):  # JSON text: the constructor rejects a mistyped accuracy
            return json.dumps(dict(accuracy=accuracy, macro_f1=0.5, precision=[], recall=[],
                                   f1=[], confusion=[]))

        good = [tmp_path / f"good{i}.json" for i in range(5)]
        for i, p in enumerate(good):
            p.write_text(report(0.5 + 0.05 * i))
        bad = tmp_path / "bad.json"
        bad.write_text(report(value))
        args = ["compare", "--a", *map(str, good), "--b", *map(str, good[1:]), str(bad)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err


@pytest.mark.skipif(_openblas("set_num_threads", None, ctypes.c_int) is None,
                    reason="numpy bundles no OpenBLAS with scipy_openblas_set_num_threads")
def test_train_bits_do_not_depend_on_blas_threads(tmp_path):
    """`tmknet train` at the paper's n_t, n_s and n_b, with OpenBLAS asked for
    1 and for 2 threads: the CLI pins one, so both checkpoints are equal byte
    for byte. Without the pin their backward GEMMs round differently. About
    3 s on 2 cores."""
    data = tmp_path / "data"
    save_dataset(data, *synth_generate(SynthSpec(n_classes=2, sensors=8, n_domains=3,
                                                 trials_per_cell=10, seed=3)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"run{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "tmknet.cli", "train", "--data", str(data),
             "--out", str(out), "--n-t", "64", "--n-s", "40", "--n-b", "30",
             "--batch-size", "16", "--domains-per-batch", "2", "--epochs", "1",
             "--target-session", "2", "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append((out / "checkpoint.tmk").read_bytes())
    assert runs[0] == runs[1]
