"""Full network assembly: Euclidean stem -> covariance pooling -> SPD backbone
with domain-specific batch normalization -> tangent-space classifier.

The network owns its named parameters, the stem batch-norm running statistics
and the per-domain SPD statistics. Forward passes record on a caller-supplied
tape; parameters enter the tape as leaves so a single backward yields every
gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone as bk
from . import stem
from .autodiff import Tape, Variable
from .backbone import DsbnState
from .errors import ConfigError
from .optim import Param, stiefel_retract_rows
from .stem import BnState, StemConfig

SHARED_DOMAIN = "shared"
# most trials per gradient-free stem forward (evaluation, adaptation); larger
# forwards hold feature maps that grow with the batch and score no faster
EVAL_BLOCK = 8


def eval_blocks(n: int) -> list[slice]:
    """ceil(n / EVAL_BLOCK) ordered slices covering range(n), with the sizes
    `np.array_split` gives: for n >= EVAL_BLOCK every block holds between
    EVAL_BLOCK // 2 and EVAL_BLOCK rows, so none is left with one or two."""
    k = -(-n // EVAL_BLOCK)
    q, r = divmod(n, max(k, 1))
    edges = [i * q + min(i, r) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


@dataclass
class ModelConfig:
    stem: StemConfig
    n_b: int
    n_c: int
    cov_lambda: float | None  # None -> trace-scaled shrinkage
    eps_reeig: float
    eps_var: float
    gamma_source: float
    gamma_target: float
    shared_bn: bool  # single normalization bucket for all domains

    def __post_init__(self):
        if self.n_b < 1 or self.n_c < 1:
            raise ConfigError("n_b and n_c must be positive")
        for name in ("cov_lambda", "eps_reeig", "eps_var"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.n_b > self.stem.n_s:
            raise ConfigError(f"n_b={self.n_b} exceeds n_s={self.stem.n_s}")
        # the DSBN momentum floors weight a geodesic step between SPD matrices
        for name in ("gamma_source", "gamma_target"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


def layout(cfg: ModelConfig,
           domain_kinds: dict[str, str]) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, tag) of every array of the TMKNet that `cfg` and the DSBN
    domains `domain_kinds` describe, without building it: each parameter in
    registration order, tagged with its manifold, then the state arrays,
    tagged "state" and sorted by name. This is also a checkpoint's array order.
    """
    s, n_b, n_c = cfg.stem, cfg.n_b, cfg.n_c
    params = []
    for i, k in enumerate(s.temporal_kernel_sizes):
        params += [(f"mrt.branch{i}.weight", (s.n_t, 1, 1, k)), (f"mrt.branch{i}.bias", (s.n_t,))]
    params += [("mrt.bn.gamma", (s.n_t,)), ("mrt.bn.beta", (s.n_t,))]
    for name, (_, height, _, _) in s.mss_geometry.items():
        params += [(f"mss.{name}.weight", (s.n_s, s.n_t, height, 1)),
                   (f"mss.{name}.bias", (s.n_s,))]
    params += [("mss.bn.gamma", (s.n_s,)), ("mss.bn.beta", (s.n_s,)),
               ("bimap.weight", (n_b, s.n_s)), ("dsbn.g_phi", (n_b, n_b)),
               ("dsbn.log_v_phi", ()), ("head.weight", (n_c, n_b * n_b)),
               ("head.bias", (n_c,))]
    tags = {"bimap.weight": "stiefel", "dsbn.g_phi": "spd", "dsbn.log_v_phi": "log_scalar"}
    state = []
    for bn, ch in (("mrt_bn", s.n_t), ("mss_bn", s.n_s)):
        state += [(f"state.{bn}.mean", (ch,)), (f"state.{bn}.var", (ch,)),
                  (f"state.{bn}.flag", (1,))]
    for d in set(domain_kinds) | ({SHARED_DOMAIN} if cfg.shared_bn else set()):
        state += [(f"state.dsbn.{d}.g_run", (n_b, n_b)), (f"state.dsbn.{d}.scalars", (2,))]
    return ([(name, shape, tags.get(name, "euclidean")) for name, shape in params]
            + [(name, shape, "state") for name, shape in sorted(state)])


class TMKNet:
    """Gesture classifier on the SPD manifold with unsupervised domain adaptation."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        rng = np.random.default_rng(seed)

        self.params: dict[str, Param] = {}
        for name, shape, tag in layout(cfg, {}):
            if tag == "state":
                break
            if tag == "stiefel":
                value = stiefel_retract_rows(rng.normal(size=shape[::-1]).T)
            elif tag == "spd":
                value = np.eye(shape[0])
            elif name == "head.weight":
                value = rng.normal(scale=shape[1] ** -0.5, size=shape)
            elif name.endswith(".weight"):
                value = rng.normal(scale=1.0 / np.sqrt(math.prod(shape[1:])), size=shape)
            elif name.endswith(".gamma"):
                value = np.ones(shape)
            else:
                value = np.zeros(shape)
            self.params[name] = Param(value, tag,
                                      decay=tag == "euclidean" and name.endswith(".weight"))

        self.mrt_bn = BnState.create(cfg.stem.n_t)
        self.mss_bn = BnState.create(cfg.stem.n_s)
        self.dsbn = DsbnState(cfg.n_b, cfg.gamma_source, cfg.gamma_target)
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
        h = bk.cov_pool(z, self.cfg.cov_lambda)
        h = bk.bimap(h, pvars["bimap.weight"])
        return bk.reeig(h, self.cfg.eps_reeig)

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
                            g_phi, v_phi, self.cfg.eps_var)
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
        logits = self.forward(tape, tape.leaf(x), domain_ids, "train", pvars)
        loss = ad.cross_entropy(logits, labels)
        tape.backward(loss)
        grads = {name: v.grad for name, v in pvars.items()}
        return float(loss.value), grads

    def _run_blocks(self, block, x) -> list[np.ndarray]:
        """`block(s)` for every `eval_blocks(len(x))` slice s of the b signals
        `x`, each block returning a list of arrays; returns each position's
        arrays concatenated in block order.

        A block computes the same bytes on any thread, so the blocks are the
        units of one `autodiff.run_units` call; the result does not depend on
        the worker count. Zero rows run as one empty block.
        """
        blocks = eval_blocks(len(x)) or [slice(0, 0)]
        rows = blocks[0].stop  # the first block is a largest one
        # a largest block's temporal conv output of one branch (rows x n_t x
        # sensors x samples x 8 bytes), counted twice so that the blocks pool
        # from 512 KiB of it against the 1 MiB unit gate. Measured on 2 cores
        # with OpenBLAS on one thread, 64 trials in 8-row blocks, pooled
        # against inline: the paper shape (4 MiB) 1.7-1.85x faster, the same
        # with n_t 8 (512 KiB) 1.2-1.65x, while desk-shape blocks (192 KiB)
        # hold the GIL for most of their time and gained nothing (0.96-1.15x)
        conv_bytes = 2 * rows * np.size(x[0]) * self.cfg.stem.n_t * 8
        parts = ad.run_units([functools.partial(block, s) for s in blocks], conv_bytes,
                             "tmknet-eval")
        return [np.concatenate(arrays) for arrays in zip(*parts)]

    def predict_logits(self, x: np.ndarray | list[np.ndarray], domain_ids: list[str],
                       capture: dict | None = None) -> np.ndarray:
        """Eval-mode logits of b signals: a (b, c, t) array, or a sequence of
        b (c, t) arrays such as the trials' own signals.

        The network runs over `eval_blocks` slices of the rows, each made
        float64 and run on its own tape (see `_run_blocks`), so memory does
        not grow with b beyond the input and outputs. `capture`, if given,
        receives the pre- and post-DSBN matrices of all rows in order.
        """
        if len(domain_ids) != len(x):
            raise ValueError("one domain id per sample is required")

        def block(s):
            tape, captured = Tape(), {}
            logits = self.forward(tape, tape.leaf(x[s]), domain_ids[s], "eval",
                                  capture=None if capture is None else captured)
            return [logits.value, *captured.values()]

        logits, *captured = self._run_blocks(block, x)
        if capture is not None:
            capture["pre_dsbn"], capture["post_dsbn"] = captured
        return logits

    def prime_stats(self, x: np.ndarray, domain_ids: list[str]) -> None:
        """One train-mode forward without gradients: initializes the stem and
        domain running statistics so an untrained checkpoint is evaluable."""
        tape = Tape()
        self.forward(tape, tape.leaf(x), domain_ids, "train",
                     pvars=self.param_vars(tape, trainable=False))

    def adapt_batch(self, x: np.ndarray, domain_ids: list[str]) -> None:
        """Update target-domain SPD statistics from an unlabeled batch.

        The stem runs in eval mode (its running statistics stay source-only)
        over `eval_blocks` slices of the batch (see `_run_blocks`), each on a
        tape that records nothing for differentiation. DSBN then folds the
        statistics of the whole batch, as one forward of all rows would.
        """
        def block(s):
            tape = Tape()
            pvars = self.param_vars(tape, trainable=False)
            return [self.features(tape, tape.leaf(x[s]), "eval", pvars).value]

        (h,) = self._run_blocks(block, x)
        bk.dsbn_forward(Tape().leaf(h), self._bn_ids(domain_ids), self.dsbn, "adapt",
                        None, None, self.cfg.eps_var)

    # --- array snapshot ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Every parameter and state array by name, in `layout` order; the
        parameters are the live arrays."""
        return {**{name: p.value for name, p in self.params.items()},
                **dict(sorted(self.state_arrays().items()))}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of `arrays`: copy every parameter and state array in."""
        for name, p in self.params.items():
            p.value = np.asarray(arrays[name], dtype=np.float64).reshape(p.value.shape).copy()
        self.load_state_arrays(arrays, self.dsbn_domain_kinds())

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
