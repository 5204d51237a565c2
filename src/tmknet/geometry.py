"""Riemannian primitives on the manifold of symmetric positive definite matrices.

All functions use the affine-invariant metric. Inputs may be batched over
leading axes; an SPD batch has shape (K, n, n).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .linalg import sym_eig, sym_fn, symmetrize

__all__ = [
    "check_spd",
    "airm_dist",
    "geo_mean",
    "karcher_mean",
    "frechet_variance",
    "parallel_transport",
    "log_map",
    "exp_map",
]


def check_spd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    lam = np.linalg.eigvalsh(symmetrize(m))
    if lam.min(initial=np.inf) <= 0.0:
        raise NumericalError(f"{name} is not positive definite (min eig {lam.min():.3e})")
    return m


def _whiten(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """z1^{-1/2} z2 z1^{-1/2}, broadcasting over leading axes."""
    e = sym_eig(z1)
    inv_sqrt = sym_fn(z1, "inv_sqrt", eig=e)
    return symmetrize(inv_sqrt @ z2 @ inv_sqrt)


def airm_dist(z1: np.ndarray, z2: np.ndarray) -> float | np.ndarray:
    """Affine-invariant distance ||log(z1^{-1/2} z2 z1^{-1/2})||_F.

    Broadcasts over leading axes; scalar for single matrices.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape[-1] != z2.shape[-1]:
        raise NumericalError(
            f"dimension mismatch: {z1.shape[-2:]} vs {z2.shape[-2:]}"
        )
    check_spd(z1, "z1")
    check_spd(z2, "z2")
    lam = np.linalg.eigvalsh(_whiten(z1, z2))
    if lam.min(initial=np.inf) <= 0.0:
        raise NumericalError("whitened matrix has non-positive spectrum")
    d = np.sqrt((np.log(lam) ** 2).sum(axis=-1))
    return float(d) if d.ndim == 0 else d


def geo_mean(z1: np.ndarray, z2: np.ndarray, w: float) -> np.ndarray:
    """Weighted geometric mean z1^{1/2} (z1^{-1/2} z2 z1^{-1/2})^w z1^{1/2}.

    w=0 returns z1 and w=1 returns z2 (up to round-trip error); intermediate
    values trace the geodesic between the two points.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight w must lie in [0, 1], got {w}")
    z1 = check_spd(np.asarray(z1, dtype=np.float64), "z1")
    z2 = check_spd(np.asarray(z2, dtype=np.float64), "z2")
    if w == 0.0:
        return z1.copy()
    if w == 1.0:
        return z2.copy()
    e = sym_eig(z1)
    s = sym_fn(z1, "sqrt", eig=e)
    inv_s = sym_fn(z1, "inv_sqrt", eig=e)
    mid = sym_fn(symmetrize(inv_s @ z2 @ inv_s), "pow", w)
    return symmetrize(s @ mid @ s)


def log_map(base: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Tangent vector at `base` pointing to `z`: base^{1/2} log(base^{-1/2} z base^{-1/2}) base^{1/2}."""
    e = sym_eig(base)
    s = sym_fn(base, "sqrt", eig=e)
    inv_s = sym_fn(base, "inv_sqrt", eig=e)
    return symmetrize(s @ sym_fn(symmetrize(inv_s @ z @ inv_s), "log") @ s)


def exp_map(base: np.ndarray, s_tan: np.ndarray) -> np.ndarray:
    """Inverse of :func:`log_map`: base^{1/2} exp(base^{-1/2} s base^{-1/2}) base^{1/2}."""
    e = sym_eig(base)
    s = sym_fn(base, "sqrt", eig=e)
    inv_s = sym_fn(base, "inv_sqrt", eig=e)
    return symmetrize(s @ sym_fn(symmetrize(inv_s @ s_tan @ inv_s), "exp") @ s)


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
    g = np.eye(n) if init is None else check_spd(np.asarray(init, dtype=np.float64), "init")
    for _ in range(iters):
        e = sym_eig(g)
        s = sym_fn(g, "sqrt", eig=e)
        inv_s = sym_fn(g, "inv_sqrt", eig=e)
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


def parallel_transport(s_tan: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Transport the tangent vector `s_tan` at z1 to the tangent space at z2.

    Uses E s E^T with E = (z2 z1^{-1})^{1/2}, computed through symmetric
    factorizations as E = z1^{1/2} (z1^{-1/2} z2 z1^{-1/2})^{1/2} z1^{-1/2}.
    The congruence preserves the metric norm; the output is symmetrized
    against round-off.
    """
    z1 = check_spd(np.asarray(z1, dtype=np.float64), "z1")
    z2 = check_spd(np.asarray(z2, dtype=np.float64), "z2")
    s_tan = np.asarray(s_tan, dtype=np.float64)
    e1 = sym_eig(z1)
    sqrt1 = sym_fn(z1, "sqrt", eig=e1)
    inv_sqrt1 = sym_fn(z1, "inv_sqrt", eig=e1)
    mid = sym_fn(symmetrize(inv_sqrt1 @ z2 @ inv_sqrt1), "sqrt")
    e = sqrt1 @ mid @ inv_sqrt1
    return symmetrize(e @ s_tan @ np.swapaxes(e, -1, -2))
