import csv
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from tmknet.cli import main
from tmknet.metrics import MetricsReport, wilcoxon_signed_rank


TRAIN_FLAGS = ["--n-t", "4", "--n-s", "6", "--n-b", "4", "--batch-size", "16",
               "--domains-per-batch", "2", "--epochs", "2", "--seed", "5",
               "--target-session", "2"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(["synth", "--classes", "3", "--sensors", "8", "--domains", "3",
                 "--trials-per-cell", "10", "--seed", "7", "--out", str(data)])
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
        report = MetricsReport.from_json((trained_run / "metrics.json").read_text())
        assert 0.0 <= report.accuracy <= 1.0
        snap = json.loads((trained_run / "config.json").read_text())
        assert snap["seed"] == 5
        assert snap["build_id"].startswith("tmknet-v")
        assert snap["config_hash"]

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

    def test_adapt_then_eval_target(self, dataset, trained_run, tmp_path):
        adapted = tmp_path / "adapted"
        assert main(["adapt", "--checkpoint", str(trained_run / "checkpoint.tmk"),
                     "--data", str(dataset), "--out", str(adapted)]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(adapted / "checkpoint.tmk"),
                     "--data", str(dataset), "--domain", "0/2", "--out", str(out)]) == 0
        report = MetricsReport.from_json((out / "metrics.json").read_text())
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


class TestErrorPaths:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["synth", "--does-not-exist", "1", "--out", "x"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_data_dir_exits_two(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "r"), *TRAIN_FLAGS]) == 2

    def test_short_checkpoint_exits_two(self, dataset, tmp_path, capsys):
        short = tmp_path / "short.tmk"
        short.write_bytes(b"TMKN" + b"\x01" * 6)
        assert main(["adapt", "--checkpoint", str(short), "--data", str(dataset),
                     "--out", str(tmp_path / "a")]) == 2
        assert "data error:" in capsys.readouterr().err


    def test_checkpoint_header_wrong_type_exits_two(self, dataset, trained_run, tmp_path,
                                                    capsys):
        blob = (trained_run / "checkpoint.tmk").read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        header["config"] = 5
        raw = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.tmk"
        bad.write_bytes(blob[:4] + struct.pack("<IQ", 1, len(raw)) + raw
                        + blob[16 + header_len:])
        assert main(["adapt", "--checkpoint", str(bad), "--data", str(dataset),
                     "--out", str(tmp_path / "a")]) == 2
        assert "data error:" in capsys.readouterr().err

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
