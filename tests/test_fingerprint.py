import contextlib
import io
import re

import pytest

from tmknet import autodiff as ad

from fingerprint import combined, diff, main, probes

PROBES = ["train_steps", "adapted_state", "eval_b64", "eval_b1", "saliency",
          "checkpoint_header", "checkpoint_payload"]


def test_desk_probes_repeat_in_one_process():
    first, second = probes("desk", 1), probes("desk", 1)
    assert list(first) == PROBES
    assert all(re.fullmatch("[0-9a-f]{64}", v) for v in first.values())
    assert first == second
    # every probe sees the seed: none hashes a constant
    other = probes("desk", 2)
    assert all(other[k] != first[k] for k in PROBES)


def test_worker_threads_leave_every_probe_unchanged(monkeypatch):
    # eval blocks, stem units, adapt, saliency and the checkpoint, end to end
    digests = []
    for pooled in (False, True):
        monkeypatch.setattr(ad, "_pooled", lambda unit_bytes: pooled)
        digests.append(probes("desk", 1))
    assert digests[0] == digests[1]


def test_script_prints_each_probe_then_combined_then_environment(capsys):
    assert main(["--shape", "desk", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = dict(line.split() for line in lines[:len(PROBES)])
    assert digests == probes("desk", 1)
    assert lines[len(PROBES)].split() == ["combined", combined(digests)]
    assert lines[-1].startswith("numpy ") and "threads" in lines[-1]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved output of `--shape desk --seed 1`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--shape", "desk", "--seed", "1"]) == 0
    path = tmp_path_factory.mktemp("fingerprint") / "a.txt"
    path.write_text(out.getvalue())
    return path


def test_diff_of_identical_outputs_exits_zero(saved, capsys):
    copy = saved.with_name("copy.txt")
    copy.write_bytes(saved.read_bytes())
    assert main(["--diff", str(saved), str(copy)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"all {len(PROBES)} probes match",
                                                    "environment matches"]


def test_diff_names_the_altered_probe_and_environment(saved, capsys):
    lines = saved.read_text().splitlines()
    i = PROBES.index("eval_b1")
    name, digest = lines[i].split()
    lines[i] = f"{name} {'0' * 64}"
    env = lines[-1]
    lines[-1] = env.replace("numpy ", "numpy 0.")
    altered = saved.with_name("altered.txt")
    altered.write_text("\n".join(lines) + "\n")
    assert diff(str(saved), str(altered)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["eval_b1", digest, "0" * 64]
    assert out[1:] == ["environment differs:", f"  {env}", f"  {lines[-1]}"]
