import hashlib
import json
import struct

import numpy as np
import pytest

from tmknet.backbone import DsbnState
from tmknet.experiment import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, DIGEST_LEN, RunConfig
from tmknet.model import ModelConfig
from tmknet.stem import MSS_KERNELS, StemConfig

from spd_oracles import frechet_variance, karcher_mean


def random_spd(rng, n, eig_range=(0.5, 3.0), min_gap=0.0):
    """SPD matrix with a controlled spectrum and random orthogonal frame."""
    lo, hi = eig_range
    lam = np.sort(rng.uniform(lo, hi, size=n))
    if min_gap > 0.0:
        lam = lo + np.cumsum(rng.uniform(min_gap, (hi - lo) / n, size=n))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * lam) @ q.T


def batch_stats_oracle(x):
    """Numpy oracle for DSBN's batch statistics: one Karcher step from the
    identity, and the root Frechet variance about it."""
    g = karcher_mean(x, iters=1)
    return g, float(np.sqrt(frechet_variance(x, g)))


def stem_config(**fields):
    """StemConfig with the pool size and LeakyReLU slope of `RunConfig()` and
    every spatial kernel, unless `fields` gives them."""
    run = RunConfig()
    return StemConfig(**{"pool_size": run.pool_size, "leaky_slope": run.leaky_slope,
                         "mss_kernels": MSS_KERNELS, **fields})


def model_config(stem, n_b, n_c, **fields):
    """ModelConfig with the backbone settings of `RunConfig()`, unless `fields`
    gives them."""
    run = RunConfig()
    return ModelConfig(stem=stem, n_b=n_b, n_c=n_c, **{
        "cov_lambda": run.cov_lambda, "eps_reeig": run.eps_reeig, "eps_var": run.eps_var,
        "gamma_source": run.gamma_source, "gamma_target": run.gamma_target,
        "shared_bn": False, **fields})


def dsbn_state(n):
    """DsbnState for n x n matrices with the momentum floors of `RunConfig()`."""
    run = RunConfig()
    return DsbnState(n, run.gamma_source, run.gamma_target)


def random_sym(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = max(np.linalg.norm(exact.ravel()), 1e-12)
    return np.linalg.norm((approx - exact).ravel()) / denom


def central_diff(f, x, h=1e-6):
    """Dense central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def seal_checkpoint(header: bytes, payload: bytes = b"") -> bytes:
    """Checkpoint bytes around a raw header and payload, with a valid digest."""
    body = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header)) + header
    body += payload
    return body + hashlib.sha256(body).digest()


def reseal_checkpoint(path, header=None, payload=None):
    """Rewrite the checkpoint at `path` and recompute its digest, so that the
    loader checks the edit rather than stopping at the digest. `header(doc)`
    edits the JSON header in place; `payload(values)` returns the float64
    payload values to store."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    doc = json.loads(blob[16:16 + header_len])
    values = np.frombuffer(blob[16 + header_len:-DIGEST_LEN], dtype="<f8").copy()
    if header is not None:
        header(doc)
    if payload is not None:
        values = payload(values)
    raw = json.dumps(doc, sort_keys=True).encode("utf-8")
    path.write_bytes(seal_checkpoint(raw, np.asarray(values, dtype="<f8").tobytes()))


def set_array_value(model, name, index, value):
    """A `reseal_checkpoint` payload edit for a checkpoint of `model`: sets
    entry `index` of the array `name` to `value`."""
    arrays = model.state_arrays()
    names = list(arrays)
    start = sum(arrays[k].size for k in names[:names.index(name)])

    def edit(values):
        values[start:start + arrays[name].size].reshape(arrays[name].shape)[index] = value
        return values

    return edit


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
