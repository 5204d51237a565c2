import re

from tmknet import autodiff as ad

from fingerprint import combined, main, probes

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
