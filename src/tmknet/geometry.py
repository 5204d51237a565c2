"""Riemannian primitives on the manifold of symmetric positive definite matrices.

All functions use the affine-invariant metric. Inputs may be batched over
leading axes; an SPD batch has shape (K, n, n).

An SPD argument is checked once, by the eigendecomposition that factors it
(z2 as z1^{-1/2} z2 z1^{-1/2}, SPD exactly when z2 is).
The whitened z2 is symmetrized before it is factored, which would hide an
asymmetric z2, so z2 first passes `linalg.check_sym` (the eigensolver's own
input checks, O(n^2)) and must have z1's size: either argument fails the
same way.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .linalg import check_sym, sym_eig, sym_fn, symmetrize

__all__ = [
    "airm_dist",
    "geo_mean",
    "parallel_transport",
    "exp_map",
]


def _check_z2(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """`z2` as float64 once it passes `check_sym` and has `z1`'s matrix size."""
    z2 = check_sym(z2)
    if z2.shape[-1:] != np.shape(z1)[-1:]:
        raise NumericalError(f"dimension mismatch: {np.shape(z1)[-2:]} vs {z2.shape[-2:]}")
    return z2


def _sqrt_pair(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b^{1/2}, b^{-1/2}) from one eigendecomposition of b."""
    e = sym_eig(b)
    return sym_fn(b, "sqrt", eig=e), sym_fn(b, "inv_sqrt", eig=e)


def _whiten(base: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base^{1/2}, base^{-1/2}, base^{-1/2} x base^{-1/2}) once `x` passes
    `_check_z2`, the last symmetrized and broadcast over `x`'s leading axes."""
    x = _check_z2(base, x)
    s, inv_s = _sqrt_pair(base)
    return s, inv_s, symmetrize(inv_s @ x @ inv_s)


def _at_base(base: np.ndarray, x: np.ndarray, tag: str, param=None) -> np.ndarray:
    """base^{1/2} f(base^{-1/2} x base^{-1/2}) base^{1/2} for the spectral
    function `tag`, broadcasting `x` over leading axes."""
    s, _, w = _whiten(base, x)
    return symmetrize(s @ sym_fn(w, tag, param) @ s)


def airm_dist(z1: np.ndarray, z2: np.ndarray) -> float | np.ndarray:
    """Affine-invariant distance ||log(z1^{-1/2} z2 z1^{-1/2})||_F.

    Broadcasts over leading axes; scalar for single matrices.
    """
    lam = sym_eig(_whiten(z1, z2)[2])[0]
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
    return _at_base(z1, z2, "pow", w)


def exp_map(base: np.ndarray, s_tan: np.ndarray) -> np.ndarray:
    """The point that the tangent vector `s_tan` at `base` reaches:
    base^{1/2} exp(base^{-1/2} s base^{-1/2}) base^{1/2}."""
    return _at_base(base, s_tan, "exp")


def parallel_transport(s_tan: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Transport the tangent vector `s_tan` at z1 to the tangent space at z2.

    Uses E s E^T with E = (z2 z1^{-1})^{1/2}, computed through symmetric
    factorizations as E = z1^{1/2} (z1^{-1/2} z2 z1^{-1/2})^{1/2} z1^{-1/2}.
    The congruence preserves the metric norm; the output is symmetrized
    against round-off.
    """
    s_tan = np.asarray(s_tan, dtype=np.float64)
    sqrt1, inv_sqrt1, w = _whiten(z1, z2)
    e = sqrt1 @ sym_fn(w, "sqrt") @ inv_sqrt1
    return symmetrize(e @ s_tan @ np.swapaxes(e, -1, -2))
