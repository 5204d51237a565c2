"""SPD test oracles on the affine-invariant metric: the Karcher flow, the
Frechet variance about a point and the log map. No run calls them. DSBN's
batch statistics are checked against the first two (`batch_stats_oracle` in
tests/conftest.py); the geometry and data tests also call them directly."""

import numpy as np

from tmknet.geometry import _at_base, _sqrt_pair, airm_dist
from tmknet.linalg import sym_fn, symmetrize


def karcher_mean(
    batch: np.ndarray,
    iters: int = 20,
    init: np.ndarray | None = None,
    tol: float = 1e-8,
) -> np.ndarray:
    """Frechet mean estimate by fixed-point iteration (Karcher flow).

    Each step maps the batch to the tangent space at the current estimate,
    averages there and maps back:
        G <- G^{1/2} exp(mean_j log(G^{-1/2} Z_j G^{-1/2})) G^{1/2}

    With `init=None` the flow starts at the identity, so one iteration gives
    exp(mean_j log Z_j). Stops early when the tangent-mean norm drops below
    `tol`.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ValueError(f"karcher_mean expects a non-empty (K, n, n) batch, got {batch.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = batch.shape[-1]
    g = np.eye(n) if init is None else init
    for _ in range(iters):
        s, inv_s = _sqrt_pair(g)
        t = sym_fn(symmetrize(inv_s @ batch @ inv_s), "log").mean(axis=0)
        g = symmetrize(s @ sym_fn(t, "exp") @ s)
        if np.linalg.norm(t) < tol:
            break
    return g


def frechet_variance(batch: np.ndarray, g: np.ndarray) -> float:
    """Mean squared affine-invariant distance from `g` to the batch."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ValueError(f"frechet_variance expects a non-empty (K, n, n) batch, got {batch.shape}")
    d = airm_dist(g, batch)
    return float(np.mean(np.square(d)))


def log_map(base: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Tangent vector at `base` pointing to `z`: base^{1/2} log(base^{-1/2} z base^{-1/2}) base^{1/2}."""
    return _at_base(base, z, "log")
