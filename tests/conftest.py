import numpy as np
import pytest

from tmknet.geometry import frechet_variance, karcher_mean


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
