"""Seeded fuzz of the two loaders. Truncated and byte-flipped dataset
directories may fail only through the package's error types; every truncated
or byte-flipped checkpoint must fail with DataError."""

import shutil

import numpy as np
import pytest

from tmknet.data import (SynthSpec, leave_one_session_out, load_dataset, save_dataset,
                         synth_generate)
from tmknet.errors import DataError, TmknetError
from tmknet.experiment import (RunConfig, build_model_config, domain_key, load_checkpoint,
                               save_checkpoint)
from tmknet.model import TMKNet

SEED = 20260
CUTS = 200  # truncation lengths per file
FLIPS = 800  # single-byte flips per file


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A small dataset directory and a checkpoint of a primed model on it."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = SynthSpec(n_classes=3, sensors=8, n_domains=3, trials_per_cell=4, seed=3)
    manifest, trials = synth_generate(spec)
    save_dataset(root / "data", manifest, trials)
    cfg = RunConfig(target_session=2, n_t=3, n_s=4, n_b=3, r_data=0.25, seed=1)
    plan = leave_one_session_out(manifest, cfg.subject, cfg.target_session)
    model = TMKNet(build_model_config(manifest, cfg), seed=cfg.seed)
    model.register_domains([domain_key(d) for d in plan.sources], [domain_key(plan.target)])
    source = [t for t in trials if t.domain in plan.sources][:8]
    model.prime_stats(np.stack([t.signal for t in source]).astype(np.float64),
                      [domain_key(t.domain) for t in source])
    save_checkpoint(root / "ck.tmk", model, cfg, manifest)
    return root


def _cuts(rng, n):
    """Every length near both ends, the rest drawn from the seeded generator."""
    edges = {*range(min(n, 24)), *range(max(0, n - 24), n)}
    return sorted(edges | set(rng.integers(0, n, size=CUTS).tolist()))


def _flips(rng, blob, end):
    """Copies of `blob`, each with one byte in [0, end) xor-ed with a non-zero mask."""
    for pos, mask in zip(rng.integers(0, end, size=FLIPS), rng.integers(1, 256, size=FLIPS)):
        out = bytearray(blob)
        out[pos] ^= mask
        yield f"byte {pos} ^ {mask:#04x}", bytes(out)


def _escapes(load, target, cases, expected=TmknetError, may_load=True):
    """Write each (label, bytes) case to `target`, call `load`, and collect
    each case that raises anything but `expected`, or that loads although
    `may_load` is false."""
    escaped = []
    for label, blob in cases:
        target.write_bytes(blob)
        try:
            load()
        except expected:
            continue
        except Exception as exc:  # noqa: BLE001 - the point of the test
            escaped.append(f"{target.name} {label}: {type(exc).__name__}: {exc}")
            continue
        if not may_load:
            escaped.append(f"{target.name} {label}: loaded")
    return escaped


def test_checkpoint_every_cut_and_flip_is_a_data_error(store, tmp_path):
    """Every truncation length, and one seeded xor mask at every byte."""
    rng = np.random.default_rng(SEED)
    blob = (store / "ck.tmk").read_bytes()
    target = tmp_path / "ck.tmk"
    cases = [(f"cut at {n}", blob[:n]) for n in range(len(blob))]
    for pos, mask in enumerate(rng.integers(1, 256, size=len(blob))):
        out = bytearray(blob)
        out[pos] ^= mask
        cases.append((f"byte {pos} ^ {mask:#04x}", bytes(out)))
    assert _escapes(lambda: load_checkpoint(target), target, cases,
                    expected=DataError, may_load=False) == []


@pytest.mark.parametrize("name", ["manifest.json", "index.csv", "trials.f32"])
def test_dataset_truncation(store, tmp_path, name):
    rng = np.random.default_rng([SEED, len(name)])
    data = tmp_path / "data"
    shutil.copytree(store / "data", data)
    blob = (data / name).read_bytes()
    cases = [(f"cut at {n}", blob[:n]) for n in _cuts(rng, len(blob))]
    assert _escapes(lambda: load_dataset(data), data / name, cases) == []


def test_index_flips(store, tmp_path):
    rng = np.random.default_rng(SEED + 1)
    data = tmp_path / "data"
    shutil.copytree(store / "data", data)
    blob = (data / "index.csv").read_bytes()
    cases = list(_flips(rng, blob, len(blob)))
    assert _escapes(lambda: load_dataset(data), data / "index.csv", cases) == []
