"""Dense symmetric linear algebra: eigendecomposition and spectral matrix functions.

All tensors are 64-bit real numpy arrays, row-major. Matrix arguments may be
batched: an array of shape ``(..., n, n)`` is treated as a stack of square
matrices and every routine maps over the leading axes.

Spectral functions f(M) = U diag(f(lam)) U^T are identified by a string tag
plus an optional parameter:

    'log', 'exp', 'sqrt', 'inv_sqrt'        no parameter
    'pow'          param = exponent w
    'clamp_min'    param = floor eps

The reverse-mode derivative of a spectral function is the Loewner-matrix
product implemented by :func:`sym_fn_vjp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "SymEig",
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


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix (stack).

    eigenvalues: shape (..., n), ascending along the last axis.
    eigenvectors: shape (..., n, n), orthogonal, columns are eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u, lam = self.eigenvectors, self.eigenvalues
        return (u * lam[..., None, :]) @ np.swapaxes(u, -1, -2)


def sym_eig(m: np.ndarray, check_symmetry: bool = True) -> SymEig:
    """Eigendecomposition of a symmetric matrix (stack), eigenvalues ascending.

    The input is symmetrized as (m + m^T)/2 before factorization. Raises
    NumericalError when the input is not square, is asymmetric beyond 1e-8
    relative, contains non-finite values, or the eigensolver fails.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NumericalError(f"sym_eig expects square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError("sym_eig input contains NaN or Inf")
    if check_symmetry:
        scale = np.abs(m).max(initial=0.0)
        asym = np.abs(m - np.swapaxes(m, -1, -2)).max(initial=0.0)
        if scale > 0 and asym > 1e-8 * scale:
            raise NumericalError(
                f"matrix asymmetry {asym:.3e} exceeds 1e-8 relative tolerance"
            )
    try:
        lam, u = np.linalg.eigh(symmetrize(m))
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded in LAPACK
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return SymEig(eigenvalues=lam, eigenvectors=u)


# --- scalar spectral functions -------------------------------------------------

def _fn_values(tag: str, lam: np.ndarray, param) -> np.ndarray:
    if tag == "log":
        return np.log(lam)
    if tag == "exp":
        return np.exp(lam)
    if tag == "sqrt":
        return np.sqrt(lam)
    if tag == "inv_sqrt":
        return lam ** -0.5
    if tag == "pow":
        return lam ** float(param)
    if tag == "clamp_min":
        return np.maximum(lam, float(param))
    raise ValueError(f"unknown spectral function tag {tag!r}")


def _fn_deriv(tag: str, lam: np.ndarray, param) -> np.ndarray:
    if tag == "log":
        return 1.0 / lam
    if tag == "exp":
        return np.exp(lam)
    if tag == "sqrt":
        return 0.5 * lam ** -0.5
    if tag == "inv_sqrt":
        return -0.5 * lam ** -1.5
    if tag == "pow":
        w = float(param)
        return w * lam ** (w - 1.0)
    if tag == "clamp_min":
        return (lam > float(param)).astype(np.float64)
    raise ValueError(f"unknown spectral function tag {tag!r}")


_NEEDS_POSITIVE = {"log", "sqrt", "inv_sqrt", "pow"}


def _check_domain(tag: str, lam: np.ndarray) -> None:
    if tag in _NEEDS_POSITIVE and lam.min(initial=np.inf) <= 0.0:
        raise NumericalError(
            f"spectral function {tag!r} requires positive eigenvalues, "
            f"min eigenvalue = {lam.min():.3e}"
        )


def sym_fn(m: np.ndarray, tag: str, param=None, eig: SymEig | None = None) -> np.ndarray:
    """Apply a scalar function to the spectrum: U diag(f(lam)) U^T.

    `m` may be a stack (..., n, n). Pass a precomputed `eig` to reuse a
    factorization. Integer powers skip the positivity requirement only when
    the exponent is a non-negative integer.
    """
    if eig is None:
        eig = sym_eig(m)
    lam = eig.eigenvalues
    if not (tag == "pow" and float(param).is_integer() and float(param) >= 0):
        _check_domain(tag, lam)
    f = _fn_values(tag, lam, param)
    u = eig.eigenvectors
    return symmetrize((u * f[..., None, :]) @ np.swapaxes(u, -1, -2))


def sym_fn_vjp(
    m: np.ndarray,
    tag: str,
    upstream: np.ndarray,
    param=None,
    eig: SymEig | None = None,
) -> np.ndarray:
    """Reverse-mode derivative of :func:`sym_fn` at `m` against `upstream`.

    Returns U (K o (U^T sym(upstream) U)) U^T where K is the Loewner matrix
    K_ij = (f(lam_i) - f(lam_j)) / (lam_i - lam_j), replaced by f'(lam_i) when
    |lam_i - lam_j| <= EIG_GAP_RTOL * max|lam|.
    """
    if eig is None:
        eig = sym_eig(m)
    lam, u = eig.eigenvalues, eig.eigenvectors
    if not (tag == "pow" and float(param).is_integer() and float(param) >= 0):
        _check_domain(tag, lam)
    f = _fn_values(tag, lam, param)
    d = _fn_deriv(tag, lam, param)

    gap = lam[..., :, None] - lam[..., None, :]
    tau = EIG_GAP_RTOL * np.abs(lam).max(axis=-1, keepdims=True)[..., None]
    degenerate = np.abs(gap) <= tau
    num = f[..., :, None] - f[..., None, :]
    # Safe divide; degenerate entries are overwritten with f'(lam_i).
    k = np.where(degenerate, d[..., :, None], num / np.where(degenerate, 1.0, gap))

    ut = np.swapaxes(u, -1, -2)
    inner = ut @ symmetrize(upstream) @ u
    return symmetrize(u @ (k * inner) @ ut)

