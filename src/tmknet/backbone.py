"""Riemannian backbone: covariance pooling, bilinear dimension reduction,
eigenvalue rectification, domain-specific SPD batch normalization with
momentum running statistics, tangent-space projection, and the linear head.

The batch Frechet statistics computed inside the normalization layer are part
of the differentiated graph; the per-domain running statistics are inference
state updated out-of-band and never enter the tape. Adaptation runs the same
batch statistics on a tape that records no gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geometry
from .autodiff import Variable
from .errors import ConfigError

__all__ = [
    "BackboneConfig",
    "DsbnState",
    "cov_pool",
    "bimap",
    "reeig",
    "logeig",
    "batch_stats",
    "spdbn_normalize",
    "dsbn_forward",
    "classify",
]


@dataclass
class BackboneConfig:
    n_b: int
    n_c: int
    cov_lambda: float | None = None  # None -> trace-scaled shrinkage
    eps_reeig: float = 1e-4
    eps_var: float = 1e-5

    def __post_init__(self):
        if self.cov_lambda is not None and self.cov_lambda <= 0:
            raise ConfigError("cov_lambda must be positive")
        if self.eps_reeig <= 0 or self.eps_var <= 0:
            raise ConfigError("eps_reeig and eps_var must be positive")


def cov_pool(z_s: Variable, lam: float | None = None) -> Variable:
    """Project (b, n_s, c_s, t_t) features to SPD matrices (b, n_s, n_s).

    The trailing two axes are flattened, rows are mean-centered, and the
    unbiased covariance is shrunk by lam * I. With lam=None the shrinkage is
    trace-scaled: lam = 1e-4 * trace(cov)/n_s + 1e-6 per sample.
    """
    b, n_s, c_s, t_t = z_s.value.shape
    m = c_s * t_t
    if m < 2:
        raise ValueError(f"covariance needs at least 2 observations, got {m}")
    flat = ad.reshape(z_s, (b, n_s, m))
    c_raw = ad.covariance(flat)
    eye = np.eye(n_s)
    if lam is None:
        tr = ad.sum_(ad.mul(c_raw, eye), axis=(1, 2), keepdims=True)
        lam_b = ad.add(ad.mul(tr, 1e-4 / n_s), 1e-6)
        return ad.add(c_raw, ad.mul(lam_b, eye))
    return ad.add(c_raw, lam * eye)


def bimap(c: Variable, w: Variable) -> Variable:
    """Bilinear map W C W^T; W row-orthonormal keeps the output SPD."""
    return ad.bilinear(w, c)


def reeig(h: Variable, eps_reeig: float = 1e-4) -> Variable:
    """Clamp eigenvalues below eps_reeig and reconstruct."""
    return ad.sym_fn(h, "clamp_min", eps_reeig)


def logeig(h: Variable) -> Variable:
    """Matrix logarithm: project SPD matrices to the tangent space at identity."""
    return ad.sym_fn(h, "log")


def batch_stats(z: Variable) -> tuple[Variable, Variable, Variable]:
    """Batch Frechet statistics of one domain group (b, n, n).

    Returns (g_b, v_b, logm): the mean exp(mean_j log Z_j), which is one
    Karcher step from the identity; the dispersion sqrt(mean_j ||logm_j||_F^2);
    and logm_j = log(g_b^{-1/2} Z_j g_b^{-1/2}), the batch at the tangent space
    of its mean, ready for `_rescale`.
    """
    g_b = ad.sym_fn(ad.mean(ad.sym_fn(z, "log"), axis=0), "exp")
    inv_sqrt = ad.sym_fn(g_b, "inv_sqrt")
    logm = ad.sym_fn(ad.matmul(ad.matmul(inv_sqrt, z), inv_sqrt), "log")
    v_b = ad.power(ad.mean(ad.sum_(ad.mul(logm, logm), axis=(1, 2))), 0.5)
    return g_b, v_b, logm


def _rescale(logm: Variable, v_ref: Variable, g_phi: Variable, v_phi: Variable,
             eps_var: float) -> Variable:
    """g_phi^{1/2} exp(p logm) g_phi^{1/2} with p = v_phi / (v_ref + eps_var)."""
    p = ad.div(v_phi, ad.add(v_ref, eps_var))
    powed = ad.sym_fn(ad.mul(logm, p), "exp")
    sqrt_phi = ad.sym_fn(g_phi, "sqrt")
    return ad.matmul(ad.matmul(sqrt_phi, powed), sqrt_phi)


def spdbn_normalize(
    z: Variable,
    g_ref: Variable,
    v_ref: Variable,
    g_phi: Variable,
    v_phi: Variable,
    eps_var: float,
) -> Variable:
    """Transport the batch to identity, rescale dispersion, re-bias at g_phi.

    Computes g_phi^{1/2} (g_ref^{-1/2} Z g_ref^{-1/2})^p g_phi^{1/2} with
    p = v_phi / (v_ref + eps_var); the matrix power runs as exp(p * log M) so
    the exponent stays differentiable.
    """
    inv_sqrt_ref = ad.sym_fn(g_ref, "inv_sqrt")
    logm = ad.sym_fn(ad.matmul(ad.matmul(inv_sqrt_ref, z), inv_sqrt_ref), "log")
    return _rescale(logm, v_ref, g_phi, v_phi, eps_var)


# --- domain-specific running statistics -----------------------------------------

@dataclass
class _DomainStats:
    kind: str  # 'source' | 'target'
    g_run: np.ndarray
    v_run: float = 1.0
    steps: int = 0

    @property
    def initialized(self) -> bool:
        return self.steps > 0


@dataclass
class DsbnState:
    """Per-domain running Frechet mean and dispersion with momentum schedules.

    The momentum gamma(s) = max(floor, 1/(s+1)) makes the first update adopt
    the batch statistics outright and later updates an exponential average;
    source and target domains carry separate floors. The shared learnable
    bias/dispersion pair lives in the parameter store, not here.
    """

    n: int
    gamma_source: float = 0.1
    gamma_target: float = 0.05
    domains: dict[str, _DomainStats] = field(default_factory=dict)

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
        st.g_run = geometry.geo_mean(st.g_run, g_batch, g)
        st.v_run = (1.0 - g) * st.v_run + g * float(v_batch)
        st.steps += 1

    def stats(self, domain_id: str) -> tuple[np.ndarray, float]:
        st = self._get(domain_id)
        if not st.initialized:
            raise ConfigError(f"domain {domain_id!r} has no accumulated statistics; "
                              "train or adapt on it first")
        return st.g_run, st.v_run

    def copy(self) -> "DsbnState":
        out = DsbnState(self.n, self.gamma_source, self.gamma_target)
        out.domains = {
            k: _DomainStats(v.kind, v.g_run.copy(), v.v_run, v.steps)
            for k, v in self.domains.items()
        }
        return out


def dsbn_forward(
    h: Variable,
    domain_ids: list[str],
    state: DsbnState,
    mode: str,
    g_phi: Variable | None = None,
    v_phi: Variable | None = None,
    eps_var: float = 1e-5,
) -> Variable | None:
    """Domain-specific SPD batch normalization.

    train: group samples by domain (source only), normalize each group with
      its differentiable batch statistics and fold those statistics into the
      running ones.
    adapt: fold the batch statistics of target domains into their running
      ones; returns None (no output, so g_phi and v_phi are not read).
    eval: normalize each sample with its domain's stored running statistics.
    """
    if len(domain_ids) != h.value.shape[0]:
        raise ValueError("one domain id per sample is required")
    if mode not in ("train", "adapt", "eval"):
        raise ValueError(f"unknown dsbn mode {mode!r}")
    ids = np.asarray(domain_ids, dtype=object)

    order: list[np.ndarray] = []
    outs: list[Variable] = []
    for d in dict.fromkeys(domain_ids):
        idx = np.where(ids == d)[0]
        st = state._get(d)
        grp = ad.gather(h, idx, axis=0)
        if mode == "eval":
            g_run, v_run = state.stats(d)
            out = spdbn_normalize(grp, h.tape.constant(g_run), h.tape.constant(v_run),
                                  g_phi, v_phi, eps_var)
        else:
            kind = "source" if mode == "train" else "target"
            if st.kind != kind:
                raise ConfigError(f"{mode} mode is restricted to {kind} domains, got {d!r}")
            if idx.size < 2:
                raise ValueError(f"{mode} needs >= 2 samples per domain, got {idx.size}")
            g_b, v_b, logm = batch_stats(grp)
            state.update(d, g_b.value, float(v_b.value))
            if mode == "adapt":
                continue
            out = _rescale(logm, v_b, g_phi, v_phi, eps_var)
        order.append(idx)
        outs.append(out)

    if mode == "adapt":
        return None
    merged = ad.concat(outs, axis=0) if len(outs) > 1 else outs[0]
    perm = np.concatenate(order)
    return ad.gather(merged, np.argsort(perm, kind="stable"), axis=0)


def classify(h_log: Variable, weight: Variable, bias: Variable) -> Variable:
    """Flatten (b, n, n) tangent matrices row-major and apply the affine head."""
    flat = ad.flatten_rows(h_log)
    if weight.value.shape[1] != flat.value.shape[1]:
        raise ValueError(
            f"head expects weight shaped (n_c, {flat.value.shape[1]}), "
            f"got {weight.value.shape}"
        )
    return ad.add(ad.matmul(flat, ad.transpose(weight)), bias)
