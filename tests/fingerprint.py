"""Bit-identity fingerprint of tmknet: one SHA-256 per probe.

    python3 tests/fingerprint.py --shape desk|paper --seed N
    python3 tests/fingerprint.py --diff A B

Run from the repository root. `--seed` seeds the synthetic dataset, the
model's initialization and the batch sampler. Each probe hashes the dtype,
shape, strides and bytes of its arrays in a fixed order:

- `train_steps`: the loss and every gradient of each of 3 training steps,
  and every parameter and state array after it;
- `adapted_state`: every state array after adapting the target domain;
- `eval_b64`, `eval_b1`: eval logits of the first 64 target trials in one
  forward, and of the first target trial alone, each with its pre- and
  post-DSBN captures;
- `saliency`: the input saliency of the first target trial for class 0;
- `checkpoint_header`: the checkpoint's preamble and JSON header;
- `checkpoint_payload`: its float64 payload.

A combined digest over all probes follows, then the numpy version, BLAS build
and BLAS thread count, on which the digests depend. `probes(shape, seed)`
returns the probe digests to a caller in the same process.

`--diff A B` compares two saved outputs of the script: it prints each probe
whose digest differs, in probe order, so the first line names the probe where
a change enters, and says whether the environment lines differ. It exits 0
when every probe matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tmknet.cli import _environment  # noqa: E402
from tmknet.data import (DomainBatchSampler, SynthSpec, leave_one_session_out,  # noqa: E402
                         synth_generate)
from tmknet.experiment import (DIGEST_LEN, RunConfig, adapt, build_model_config,  # noqa: E402
                               domain_key, saliency, save_checkpoint)
from tmknet.model import TMKNet  # noqa: E402
from tmknet.optim import adam_step  # noqa: E402

# shape -> (SynthSpec fields, RunConfig fields): the acceptance suite's desk
# spec and config, and the benchmark's paper shape
SHAPES = {
    "desk": (dict(n_classes=4, sensors=8, n_domains=4, trials_per_cell=50, fs=256.0,
                  domain_shift=1.4),
             dict(target_session=3, n_t=6, n_s=10, n_b=6, r_data=0.25, batch_size=32,
                  domains_per_batch=3)),
    "paper": (dict(n_classes=4, sensors=8, n_domains=6, trials_per_cell=64, fs=512.0),
              dict(target_session=5, n_t=64, n_s=40, n_b=30, batch_size=50,
                   domains_per_batch=5)),
}
TRAIN_STEPS = 3
EVAL_BATCH = 64


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}{a.strides}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def probes(shape: str, seed: int) -> dict[str, str]:
    """{probe name: SHA-256} for `shape` ("desk" or "paper") and `seed`."""
    spec, fields = SHAPES[shape]
    manifest, trials = synth_generate(SynthSpec(seed=seed, **spec))
    cfg = RunConfig(seed=seed, **fields)
    plan = leave_one_session_out(manifest, cfg.subject, cfg.target_session)
    model = TMKNet(build_model_config(manifest, cfg), seed=cfg.seed)
    model.register_domains([domain_key(d) for d in plan.sources], [domain_key(plan.target)])
    sources = [t for t in trials if t.domain in plan.sources]
    target = [t for t in trials if t.domain == plan.target]
    batch = cfg.batch_size - cfg.batch_size % cfg.domains_per_batch
    sampler = DomainBatchSampler(sources, batch, cfg.domains_per_batch,
                                 np.random.default_rng(cfg.seed))
    out = {}

    steps = []
    for _ in range(TRAIN_STEPS):
        x, y, doms = sampler.next_batch()
        loss, grads = model.loss_and_grads(x, y, [domain_key(d) for d in doms])
        adam_step(model.params, grads, lr=cfg.lr, weight_decay=cfg.weight_decay)
        steps.append(_digest(np.float64(loss), *(grads[k] for k in model.params),
                             *model.state_arrays().values()))
    out["train_steps"] = hashlib.sha256("".join(steps).encode()).hexdigest()

    signals = np.stack([t.signal for t in target]).astype(np.float64)
    adapt(model, signals, plan.target, batch_size=cfg.batch_size)
    arrays = model.state_arrays()
    out["adapted_state"] = _digest(*(arrays[k] for k in sorted(arrays) if k.startswith("state.")))

    for name, rows in (("eval_b64", target[:EVAL_BATCH]), ("eval_b1", target[:1])):
        x = np.stack([t.signal for t in rows]).astype(np.float64)
        captured = {}
        logits = model.predict_logits(x, [domain_key(t.domain) for t in rows], captured)
        out[name] = _digest(logits, captured["pre_dsbn"], captured["post_dsbn"])

    out["saliency"] = _digest(*saliency(model, target[0], 0))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.tmk"
        save_checkpoint(path, model, cfg, manifest)
        blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    out["checkpoint_header"] = hashlib.sha256(blob[:16 + header_len]).hexdigest()
    out["checkpoint_payload"] = hashlib.sha256(blob[16 + header_len:-DIGEST_LEN]).hexdigest()
    return out


def combined(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k}={v}\n" for k, v in digests.items())
                          .encode()).hexdigest()


def environment() -> str:
    """numpy version, BLAS build and BLAS thread count, as a run's config.json
    records them."""
    env = _environment()
    return f"numpy {env['numpy']} | BLAS {env['blas']} | threads {env['blas_threads']}"


def _saved(path: str) -> tuple[dict[str, str], str]:
    """The probe digests and the environment line of a saved output."""
    *probe_lines, _combined, env = Path(path).read_text().splitlines()
    return dict(line.split() for line in probe_lines), env


def diff(a: str, b: str) -> int:
    """Print each probe whose digest differs between the saved outputs `a`
    and `b` (a probe missing from one shows "-"), then whether their
    environment lines differ; 0 when every probe matches, else 1."""
    (digests_a, env_a), (digests_b, env_b) = _saved(a), _saved(b)
    names = [*digests_a, *(k for k in digests_b if k not in digests_a)]
    changed = [k for k in names if digests_a.get(k) != digests_b.get(k)]
    width = max(map(len, names)) + 2
    for name in changed:
        print(f"{name:<{width}}{digests_a.get(name, '-')} {digests_b.get(name, '-')}")
    if not changed:
        print(f"all {len(names)} probes match")
    print(f"environment differs:\n  {env_a}\n  {env_b}" if env_a != env_b
          else "environment matches")
    return 1 if changed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--shape", choices=sorted(SHAPES))
    p.add_argument("--seed", type=int)
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="compare two saved outputs of this script")
    args = p.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.shape is None or args.seed is None:
        p.error("--shape and --seed are required without --diff")
    digests = probes(args.shape, args.seed)
    width = max(map(len, digests)) + 2
    for name, value in digests.items():
        print(f"{name:<{width}}{value}")
    print(f"{'combined':<{width}}{combined(digests)}")
    print(environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
