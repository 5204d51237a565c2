"""Riemannian backbone: covariance pooling, bilinear dimension reduction,
eigenvalue rectification, domain-specific SPD batch normalization with
momentum running statistics, tangent-space projection, and the linear head.

The batch Frechet statistics computed inside the normalization layer are part
of the differentiated graph; the per-domain running statistics are inference
state updated out-of-band and never enter the tape. Adaptation runs the same
batch statistics on a tape that records no gradients.

DSBN is one stacked computation for all domains of a batch: train and adapt
sort the samples into equal domain groups (D, k, n, n) and compute every
group's statistics at once; eval factors each domain's running mean once and
stacks the factor per sample. Its tape length does not depend on the number
of domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geometry, linalg
from .autodiff import Variable
from .errors import ConfigError

__all__ = [
    "DsbnState",
    "cov_pool",
    "bimap",
    "reeig",
    "logeig",
    "batch_stats",
    "dsbn_forward",
    "classify",
]


def cov_pool(z_s: Variable, lam: float | None) -> Variable:
    """Project (b, n_s, c_s, t_t) features to SPD matrices (b, n_s, n_s).

    The trailing two axes are flattened, rows are mean-centered, and the
    unbiased covariance is shrunk by lam * I. With lam=None the shrinkage is
    trace-scaled: lam = 1e-4 * trace(cov)/n_s + 1e-6 per sample.
    """
    b, n_s, c_s, t_t = z_s.value.shape
    flat = ad.reshape(z_s, (b, n_s, c_s * t_t))
    c_raw = ad.covariance(flat)
    eye = np.eye(n_s)
    if lam is None:
        tr = ad.sum_(ad.mul(c_raw, eye), axis=(1, 2), keepdims=True)
        lam_b = ad.add(ad.mul(tr, 1e-4 / n_s), 1e-6)
        return ad.add(c_raw, ad.mul(lam_b, eye))
    return ad.add(c_raw, lam * eye)


def bimap(c: Variable, w: Variable) -> Variable:
    """Bilinear map W C W^T, batched over the leading axes of `c`; W
    row-orthonormal keeps the output SPD."""
    wt = ad.transpose(w)
    return ad.matmul(ad.matmul(w, c), wt)


def reeig(h: Variable, eps_reeig: float) -> Variable:
    """Clamp eigenvalues below eps_reeig and reconstruct."""
    return ad.sym_fn(h, "clamp_min", eps_reeig)


def logeig(h: Variable) -> Variable:
    """Matrix logarithm: project SPD matrices to the tangent space at identity."""
    return ad.sym_fn(h, "log")


def _log_whitened(z: Variable, w: Variable) -> Variable:
    """log(w Z w) for w = g^{-1/2}: the batch at the tangent space of g."""
    return ad.sym_fn(ad.matmul(ad.matmul(w, z), w), "log")


def batch_stats(z: Variable) -> tuple[Variable, Variable, Variable]:
    """Batch Frechet statistics of domain groups (..., k, n, n), one per
    group of k samples along axis -3.

    Returns (g_b, v_b, logm): the mean exp(mean_j log Z_j), which is one
    Karcher step from the identity; the dispersion sqrt(mean_j ||logm_j||_F^2);
    and logm_j = log(g_b^{-1/2} Z_j g_b^{-1/2}), the batch at the tangent space
    of its mean, ready for `_rescale`. The group axis is kept, so g_b is
    (..., 1, n, n) and v_b is (..., 1, 1, 1).
    """
    g_b = ad.sym_fn(ad.mean(ad.sym_fn(z, "log"), axis=-3, keepdims=True), "exp")
    logm = _log_whitened(z, ad.sym_fn(g_b, "inv_sqrt"))
    sq = ad.sum_(ad.mul(logm, logm), axis=(-2, -1), keepdims=True)
    v_b = ad.power(ad.mean(sq, axis=-3, keepdims=True), 0.5)
    return g_b, v_b, logm


def _rescale(logm: Variable, v_ref: Variable, g_phi: Variable, v_phi: Variable,
             eps_var: float) -> Variable:
    """g_phi^{1/2} exp(p logm) g_phi^{1/2} with p = v_phi / (v_ref + eps_var)."""
    p = ad.div(v_phi, ad.add(v_ref, eps_var))
    powed = ad.sym_fn(ad.mul(logm, p), "exp")
    sqrt_phi = ad.sym_fn(g_phi, "sqrt")
    return ad.matmul(ad.matmul(sqrt_phi, powed), sqrt_phi)


# --- domain-specific running statistics -----------------------------------------

@dataclass
class _DomainStats:
    kind: str  # 'source' | 'target'
    g_run: np.ndarray
    v_run: float = field(default=1.0, init=False)
    steps: int = field(default=0, init=False)


@dataclass
class DsbnState:
    """Per-domain running Frechet mean and dispersion with momentum schedules.

    The momentum gamma(s) = max(floor, 1/(s+1)) makes the first update adopt
    the batch statistics outright and later updates an exponential average;
    source and target domains carry separate floors. The shared learnable
    bias/dispersion pair lives in the parameter store, not here.
    """

    n: int
    gamma_source: float
    gamma_target: float
    domains: dict[str, _DomainStats] = field(default_factory=dict, init=False)

    def register(self, domain_id: str, kind: str) -> None:
        if kind not in ("source", "target"):
            raise ConfigError(f"domain kind must be source or target, got {kind!r}")
        if domain_id in self.domains:
            if self.domains[domain_id].kind != kind:
                raise ConfigError(f"domain {domain_id!r} already registered as "
                                  f"{self.domains[domain_id].kind}")
            return
        self.domains[domain_id] = _DomainStats(kind=kind, g_run=np.eye(self.n))

    def _get(self, domain_id: str) -> _DomainStats:
        if domain_id not in self.domains:
            raise ConfigError(f"unknown domain id {domain_id!r}")
        return self.domains[domain_id]

    def gamma(self, domain_id: str) -> float:
        st = self._get(domain_id)
        floor = self.gamma_source if st.kind == "source" else self.gamma_target
        return max(floor, 1.0 / (st.steps + 1))

    def update(self, domain_id: str, g_batch: np.ndarray, v_batch: float) -> None:
        st = self._get(domain_id)
        g = self.gamma(domain_id)
        # weight 1 adopts the batch mean as is: nothing to factor
        st.g_run = g_batch.copy() if g == 1.0 else geometry.geo_mean(st.g_run, g_batch, g)
        st.v_run = (1.0 - g) * st.v_run + g * float(v_batch)
        st.steps += 1

    def stats(self, domain_id: str) -> tuple[np.ndarray, float]:
        st = self._get(domain_id)
        if st.steps == 0:
            raise ConfigError(f"domain {domain_id!r} has no accumulated statistics; "
                              "train or adapt on it first")
        return st.g_run, st.v_run


def dsbn_forward(
    h: Variable,
    domain_ids: list[str],
    state: DsbnState,
    mode: str,
    g_phi: Variable | None,
    v_phi: Variable | None,
    eps_var: float,
) -> Variable | None:
    """Domain-specific SPD batch normalization, one stacked computation for
    all domains of the batch.

    train: stably sort the samples (source only) by domain, in order of first
      appearance, into equal groups stacked as (D, k, n, n); normalize each
      group with its differentiable batch statistics, fold those statistics
      into the running ones and return the samples in their original order.
    adapt: the same grouping for target domains; folds the batch statistics
      into the running ones and returns None (no output, so g_phi, v_phi and
      eps_var are not read, and g_phi and v_phi may be None).
    eval: normalize each sample with its domain's stored running statistics,
      g_phi^{1/2} (w Z w)^p g_phi^{1/2} with w = g_run^{-1/2} and p = v_phi /
      (v_run + eps_var), the power taken as exp(p log(w Z w)) by the same
      `_log_whitened` and `_rescale` that train applies after `batch_stats`.
      The inverse square root of each distinct domain's running mean is
      computed once and gathered per sample into (b, n, n), the dispersions
      into (b, 1, 1). A stacked eigendecomposition gives each matrix the bits
      of its own, so this equals factoring every sample's copy.
    """
    if len(domain_ids) != h.value.shape[0]:
        raise ValueError("one domain id per sample is required")
    if mode not in ("train", "adapt", "eval"):
        raise ValueError(f"unknown dsbn mode {mode!r}")
    keys = list(dict.fromkeys(domain_ids))
    pos = {d: i for i, d in enumerate(keys)}
    grp = np.array([pos[d] for d in domain_ids], dtype=np.intp)

    if mode == "eval":
        stats = [state.stats(d) for d in keys]
        w_run = linalg.sym_fn(np.stack([g for g, _ in stats]), "inv_sqrt")[grp]
        v_run = np.array([v for _, v in stats])[grp, None, None]
        return _rescale(_log_whitened(h, h.tape.leaf(w_run)), h.tape.leaf(v_run),
                        g_phi, v_phi, eps_var)

    kind = "source" if mode == "train" else "target"
    for d in keys:
        if state._get(d).kind != kind:
            raise ConfigError(f"{mode} mode is restricted to {kind} domains, got {d!r}")
    sizes = np.bincount(grp)
    if sizes.min() < 2:
        raise ValueError(f"{mode} needs >= 2 samples per domain, got {sizes.min()}")
    if sizes.min() != sizes.max():
        raise ValueError(f"{mode} needs equal-sized domain groups, got sizes "
                         f"{dict(zip(keys, sizes.tolist()))}")
    order = np.argsort(grp, kind="stable")
    n = h.value.shape[-1]
    z = ad.reshape(ad.gather(h, order, axis=0), (len(keys), sizes[0], n, n))
    g_b, v_b, logm = batch_stats(z)
    for i, d in enumerate(keys):
        state.update(d, g_b.value[i, 0], float(v_b.value[i, 0, 0, 0]))
    if mode == "adapt":
        return None
    out = ad.reshape(_rescale(logm, v_b, g_phi, v_phi, eps_var), h.value.shape)
    return ad.gather(out, np.argsort(order), axis=0)


def classify(h_log: Variable, weight: Variable, bias: Variable) -> Variable:
    """Flatten (b, n, n) tangent matrices row-major and apply the affine head."""
    flat = ad.reshape(h_log, (h_log.value.shape[0], -1))
    if weight.value.shape[1] != flat.value.shape[1]:
        raise ValueError(
            f"head expects weight shaped (n_c, {flat.value.shape[1]}), "
            f"got {weight.value.shape}"
        )
    return ad.add(ad.matmul(flat, ad.transpose(weight)), bias)
