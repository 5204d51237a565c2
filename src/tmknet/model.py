"""Full network assembly: Euclidean stem -> covariance pooling -> SPD backbone
with domain-specific batch normalization -> tangent-space classifier.

The network owns its parameter store, the stem batch-norm running statistics
and the per-domain SPD statistics. Forward passes record on a caller-supplied
tape; parameters enter the tape as leaves so a single backward yields every
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone as bk
from . import stem
from .autodiff import Tape, Variable
from .backbone import BackboneConfig, DsbnState
from .errors import ConfigError
from .optim import ParamStore
from .stem import BnState, StemConfig

SHARED_DOMAIN = "shared"


@dataclass
class ModelConfig:
    stem: StemConfig
    backbone: BackboneConfig
    gamma_source: float = 0.1
    gamma_target: float = 0.05
    shared_bn: bool = False  # single normalization bucket for all domains


class TMKNet:
    """Gesture classifier on the SPD manifold with unsupervised domain adaptation."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        rng = np.random.default_rng(seed)
        scfg, bcfg = cfg.stem, cfg.backbone

        self.params = ParamStore()
        for name, value in stem.init_mrt(rng, scfg).items():
            self.params.add(name, value, "euclidean", decay=name.endswith(".weight"))
        for name, value in stem.init_mss(rng, scfg).items():
            self.params.add(name, value, "euclidean", decay=name.endswith(".weight"))

        a = rng.normal(size=(scfg.n_s, bcfg.n_b))
        q, r = np.linalg.qr(a)
        q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
        self.params.add("bimap.weight", q.T.copy(), "stiefel")

        self.params.add("dsbn.g_phi", np.eye(bcfg.n_b), "spd")
        self.params.add("dsbn.log_v_phi", np.zeros(()), "log_scalar")

        d = bcfg.n_b * bcfg.n_b
        self.params.add("head.weight", rng.normal(scale=d ** -0.5, size=(bcfg.n_c, d)),
                        "euclidean", decay=True)
        self.params.add("head.bias", np.zeros(bcfg.n_c), "euclidean")

        self.mrt_bn = BnState.create(scfg.n_t)
        self.mss_bn = BnState.create(scfg.n_s)
        self.dsbn = DsbnState(bcfg.n_b, cfg.gamma_source, cfg.gamma_target)
        if cfg.shared_bn:
            self.dsbn.register(SHARED_DOMAIN, "source")

    # --- domain bookkeeping ---------------------------------------------------

    def register_domains(self, source_ids: list[str], target_ids: list[str]) -> None:
        if self.cfg.shared_bn:
            return
        for d in source_ids:
            self.dsbn.register(d, "source")
        for d in target_ids:
            self.dsbn.register(d, "target")

    def _bn_ids(self, domain_ids: list[str]) -> list[str]:
        if self.cfg.shared_bn:
            return [SHARED_DOMAIN] * len(domain_ids)
        return list(domain_ids)

    # --- forward passes ---------------------------------------------------------

    def param_vars(self, tape: Tape, trainable: bool) -> dict[str, Variable]:
        return {
            name: tape.leaf(p.value, requires_grad=trainable)
            for name, p in self.params.items()
        }

    def features(self, tape: Tape, x: Variable, mode: str,
                 pvars: dict[str, Variable]) -> Variable:
        """Stem, covariance pooling, BiMap and ReEig on (b, c, t) input
        signals: the SPD matrices that enter DSBN. `mode` is the stem's."""
        b, c, t = x.value.shape
        if c != self.cfg.stem.sensors:
            raise ConfigError(f"expected {self.cfg.stem.sensors} sensors, got {c}")
        z = ad.reshape(x, (b, 1, c, t))
        z = stem.mrt_forward(z, pvars, self.cfg.stem, self.mrt_bn, mode)
        z = stem.mss_forward(z, pvars, self.cfg.stem, self.mss_bn, mode)
        h = bk.cov_pool(z, self.cfg.backbone.cov_lambda)
        h = bk.bimap(h, pvars["bimap.weight"])
        return bk.reeig(h, self.cfg.backbone.eps_reeig)

    def forward(
        self,
        tape: Tape,
        x: Variable,
        domain_ids: list[str],
        mode: str,
        pvars: dict[str, Variable] | None = None,
        capture: dict | None = None,
    ) -> Variable:
        """Run the network on (b, c, t) input signals.

        mode 'train' uses batch statistics throughout and updates running
        ones; mode 'eval' uses the stored statistics and mutates nothing.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown forward mode {mode!r}")
        if pvars is None:
            pvars = self.param_vars(tape, trainable=(mode == "train"))
        h = self.features(tape, x, mode, pvars)
        if capture is not None:
            capture["pre_dsbn"] = h.value.copy()
        v_phi = ad.exp(pvars["dsbn.log_v_phi"])
        # symmetrize the manifold parameter; its tangent space is symmetric
        g_phi = ad.mul(ad.add(pvars["dsbn.g_phi"], ad.transpose(pvars["dsbn.g_phi"])), 0.5)
        h = bk.dsbn_forward(h, self._bn_ids(domain_ids), self.dsbn, mode,
                            g_phi, v_phi, self.cfg.backbone.eps_var)
        if capture is not None:
            capture["post_dsbn"] = h.value.copy()
        h = bk.logeig(h)
        return bk.classify(h, pvars["head.weight"], pvars["head.bias"])

    def loss_and_grads(
        self, x: np.ndarray, labels: np.ndarray, domain_ids: list[str]
    ) -> tuple[float, dict[str, np.ndarray]]:
        """One training forward/backward; returns scalar loss and named grads."""
        tape = Tape()
        pvars = self.param_vars(tape, trainable=True)
        logits = self.forward(tape, tape.constant(x), domain_ids, "train", pvars)
        loss = ad.cross_entropy(logits, labels)
        tape.backward(loss)
        grads = {name: v.grad for name, v in pvars.items()}
        return float(loss.value), grads

    def predict_logits(self, x: np.ndarray, domain_ids: list[str],
                       capture: dict | None = None) -> np.ndarray:
        tape = Tape()
        logits = self.forward(tape, tape.constant(x), domain_ids, "eval", capture=capture)
        return logits.value

    def prime_stats(self, x: np.ndarray, domain_ids: list[str]) -> None:
        """One train-mode forward without gradients: initializes the stem and
        domain running statistics so an untrained checkpoint is evaluable."""
        tape = Tape()
        self.forward(tape, tape.constant(x), domain_ids, "train",
                     pvars=self.param_vars(tape, trainable=False))

    def adapt_batch(self, x: np.ndarray, domain_ids: list[str]) -> None:
        """Update target-domain SPD statistics from an unlabeled batch.

        The stem runs in eval mode (its running statistics stay source-only);
        nothing is recorded for differentiation.
        """
        tape = Tape()
        h = self.features(tape, tape.constant(x), "eval",
                          self.param_vars(tape, trainable=False))
        bk.dsbn_forward(h, self._bn_ids(domain_ids), self.dsbn, "adapt")

    # --- state snapshot ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All non-parameter numeric state, flat-named, for checkpointing."""
        out = {
            "state.mrt_bn.mean": self.mrt_bn.mean,
            "state.mrt_bn.var": self.mrt_bn.var,
            "state.mrt_bn.flag": np.array([float(self.mrt_bn.initialized)]),
            "state.mss_bn.mean": self.mss_bn.mean,
            "state.mss_bn.var": self.mss_bn.var,
            "state.mss_bn.flag": np.array([float(self.mss_bn.initialized)]),
        }
        for d, st in self.dsbn.domains.items():
            key = f"state.dsbn.{d}"
            out[f"{key}.g_run"] = st.g_run
            out[f"{key}.scalars"] = np.array([st.v_run, float(st.steps)])
        return out

    def dsbn_domain_kinds(self) -> dict[str, str]:
        return {d: st.kind for d, st in self.dsbn.domains.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray],
                          domain_kinds: dict[str, str]) -> None:
        self.mrt_bn.mean = arrays["state.mrt_bn.mean"].copy()
        self.mrt_bn.var = arrays["state.mrt_bn.var"].copy()
        self.mrt_bn.initialized = bool(arrays["state.mrt_bn.flag"][0])
        self.mss_bn.mean = arrays["state.mss_bn.mean"].copy()
        self.mss_bn.var = arrays["state.mss_bn.var"].copy()
        self.mss_bn.initialized = bool(arrays["state.mss_bn.flag"][0])
        self.dsbn.domains.clear()
        for d, kind in domain_kinds.items():
            self.dsbn.register(d, kind)
            st = self.dsbn.domains[d]
            st.g_run = arrays[f"state.dsbn.{d}.g_run"].copy()
            scalars = arrays[f"state.dsbn.{d}.scalars"]
            st.v_run = float(scalars[0])
            st.steps = int(scalars[1])
