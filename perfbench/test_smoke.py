"""Smoke test of the benchmark at tiny shapes, a few seconds per workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run(name, trace, workdir, seed=1):
    workdir.mkdir()
    return workloads.WORKLOADS[name](seed, 0.4, workdir, workloads.TINY).run(trace)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reports_every_metric_and_passes_its_checks(name, tmp_path):
    out = run(name, False, tmp_path / "plain")
    assert out.attempted >= 1 and out.failed == 0, out.failures
    assert set(out.end_to_end) == END_TO_END
    assert all(math.isfinite(v) and v > 0 for v in out.end_to_end.values())
    assert {"setup_s", "peak_rss_mb", "failed_frac"} <= set(out.detail)
    for value, unit in out.detail.values():
        assert math.isfinite(value) and isinstance(unit, str) and unit


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_covers_no_more_than_wall_and_counts_repeat(name, tmp_path):
    first = run(name, True, tmp_path / "first")
    second = run(name, True, tmp_path / "second")
    for out in (first, second):
        assert out.failed == 0, out.failures
        assert set(out.per_layer) == PER_LAYER
        assert all(math.isfinite(v) for v in out.per_layer.values())
        assert 0 < out.per_layer["trace.coverage_pct"] <= 100.0
        assert out.per_layer["linalg.eigh.calls"] > 0
    for count in ("linalg.eigh.calls", "linalg.eigh.matrices", "autodiff.tape.nodes",
                  "backbone.dsbn.update_calls"):
        assert first.per_layer[count] == second.per_layer[count], count


def test_session_records_no_backward(tmp_path):
    out = run("session_paper", True, tmp_path / "session")
    assert out.per_layer["autodiff.tape.nodes"] == 0
    assert out.per_layer["autodiff.backward_ms"] == 0
    assert out.per_layer["experiment.load_checkpoint.ms"] > 0


def test_tracer_restores_every_wrapped_function(tmp_path):
    import numpy as np
    from tmknet import autodiff, backbone

    before = (np.linalg.eigh, autodiff.Tape.record, backbone.dsbn_forward)
    run("train_paper", True, tmp_path / "train")
    assert (np.linalg.eigh, autodiff.Tape.record, backbone.dsbn_forward) == before


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
