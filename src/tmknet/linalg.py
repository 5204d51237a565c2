"""Dense symmetric linear algebra: eigendecomposition and spectral matrix functions.

All tensors are 64-bit real numpy arrays, row-major. Matrix arguments may be
batched: an array of shape ``(..., n, n)`` is treated as a stack of square
matrices and every routine maps over the leading axes.

Spectral functions f(M) = U diag(f(lam)) U^T are identified by a string tag
plus an optional parameter. One table, `_SPECTRAL`, holds each tag's f, its
derivative f' and whether it needs a positive spectrum:

    tag          param      f(lam)            positive spectrum
    'log'        -          log lam           yes
    'exp'        -          exp lam           no
    'sqrt'       -          lam^(1/2)         yes
    'inv_sqrt'   -          lam^(-1/2)        yes
    'pow'        w          lam^w             yes
    'clamp_min'  eps        max(lam, eps)     no

The reverse-mode derivative of a spectral function is the Loewner-matrix
product implemented by :func:`sym_fn_vjp`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = [
    "check_sym",
    "sym_eig",
    "sym_fn",
    "sym_fn_vjp",
    "symmetrize",
]

# Relative eigen-gap below which the Loewner quotient degenerates to f'.
EIG_GAP_RTOL = 1e-10


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(m + m^T)/2 over the trailing two axes."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def check_sym(m: np.ndarray) -> np.ndarray:
    """`m` as float64; NumericalError unless it is a stack of square, finite
    matrices, symmetric to 1e-8 relative. These are `sym_eig`'s input checks,
    for arguments that reach the eigensolver only after a congruence."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NumericalError(f"expected square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix contains NaN or Inf")
    scale = np.abs(m).max(initial=0.0)
    asym = np.abs(m - np.swapaxes(m, -1, -2)).max(initial=0.0)
    if scale > 0 and asym > 1e-8 * scale:
        raise NumericalError(
            f"matrix asymmetry {asym:.3e} exceeds 1e-8 relative tolerance"
        )
    return m


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (lam, u) of a symmetric matrix (stack): eigenvalues
    lam (..., n) ascending along the last axis, and orthogonal u (..., n, n)
    whose columns are the eigenvectors.

    The input is symmetrized as (m + m^T)/2 before factorization. Raises
    NumericalError when the input fails `check_sym` or the eigensolver fails.
    """
    m = check_sym(m)
    try:
        lam, u = np.linalg.eigh(symmetrize(m))
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded in LAPACK
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return lam, u


# --- scalar spectral functions -------------------------------------------------

# tag -> (f(lam, param), f'(lam, param), needs a positive spectrum)
_SPECTRAL = {
    "log": (lambda lam, p: np.log(lam), lambda lam, p: 1.0 / lam, True),
    "exp": (lambda lam, p: np.exp(lam), lambda lam, p: np.exp(lam), False),
    "sqrt": (lambda lam, p: np.sqrt(lam), lambda lam, p: 0.5 * lam ** -0.5, True),
    "inv_sqrt": (lambda lam, p: lam ** -0.5, lambda lam, p: -0.5 * lam ** -1.5, True),
    "pow": (lambda lam, p: lam ** float(p),
            lambda lam, p: float(p) * lam ** (float(p) - 1.0), True),
    "clamp_min": (lambda lam, p: np.maximum(lam, float(p)),
                  lambda lam, p: (lam > float(p)).astype(np.float64), False),
}


def _spectral(tag: str, lam: np.ndarray):
    """The table's (f, f') for `tag`, once `lam` is checked against its domain."""
    if tag not in _SPECTRAL:
        raise ValueError(f"unknown spectral function tag {tag!r}")
    f, deriv, positive = _SPECTRAL[tag]
    if positive and lam.min(initial=np.inf) <= 0.0:
        raise NumericalError(
            f"spectral function {tag!r} requires positive eigenvalues, "
            f"min eigenvalue = {lam.min():.3e}"
        )
    return f, deriv


def sym_fn(m: np.ndarray, tag: str, param=None,
           eig: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Apply a scalar function to the spectrum: U diag(f(lam)) U^T.

    `m` may be a stack (..., n, n). Pass a precomputed `eig=(lam, u)` from
    :func:`sym_eig` to reuse a factorization.
    """
    lam, u = sym_eig(m) if eig is None else eig
    f = _spectral(tag, lam)[0](lam, param)
    return symmetrize((u * f[..., None, :]) @ np.swapaxes(u, -1, -2))


def sym_fn_vjp(
    eig: tuple[np.ndarray, np.ndarray],
    tag: str,
    upstream: np.ndarray,
    param,
) -> np.ndarray:
    """Reverse-mode derivative of :func:`sym_fn` against `upstream`, at the
    matrix (stack) that `eig` = (lam, u) from :func:`sym_eig` decomposes.

    Returns U (K o (U^T sym(upstream) U)) U^T where K is the Loewner matrix
    K_ij = (f(lam_i) - f(lam_j)) / (lam_i - lam_j), replaced by f'(lam_i) when
    |lam_i - lam_j| <= EIG_GAP_RTOL * max|lam|.
    """
    lam, u = eig
    fn, deriv = _spectral(tag, lam)
    f, d = fn(lam, param), deriv(lam, param)

    gap = lam[..., :, None] - lam[..., None, :]
    tau = EIG_GAP_RTOL * np.abs(lam).max(axis=-1, keepdims=True)[..., None]
    degenerate = np.abs(gap) <= tau
    num = f[..., :, None] - f[..., None, :]
    # Safe divide; degenerate entries are overwritten with f'(lam_i).
    k = np.where(degenerate, d[..., :, None], num / np.where(degenerate, 1.0, gap))

    ut = np.swapaxes(u, -1, -2)
    inner = ut @ symmetrize(upstream) @ u
    return symmetrize(u @ (k * inner) @ ut)
