"""Experiment harness: training with the unsupervised domain-adaptation
protocol, post-hoc or interleaved target-statistics adaptation, evaluation,
saliency maps, DSBN feature export, and the ablation table.

The target-domain path never sees labels: adaptation takes bare signal stacks,
and only `evaluate` pairs predictions with ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .data import DatasetManifest, DomainBatchSampler, Trial, _read_store_file
from .data import _check_field_types, _json_object, leave_one_session_out
from .errors import ConfigError, DataError, NumericalError
from .linalg import sym_fn
from .metrics import MetricsReport, report_from_predictions
from .model import ModelConfig, TMKNet, layout
from .optim import adam_step
from .stem import MSS_KERNELS, StemConfig

CHECKPOINT_MAGIC = b"TMKN"
CHECKPOINT_VERSION = 3
DIGEST_LEN = 32  # trailing SHA-256 of every checkpoint byte before it

# ablation variant -> the parts of the full model it removes: spatial kernels
# by name, "mrt_branches" (every temporal branch but the first) and
# "domain_bn" (one SPD batch-norm bucket for all domains, not one per domain)
ABLATION_VARIANTS = {
    "no_mrt": ("mrt_branches",),
    "no_mss": ("flexor", "extensor", "proximal_distal", "dilated"),
    "no_global": ("global",),
    "no_flexor_extensor": ("flexor", "extensor"),
    "no_proximal_distal": ("proximal_distal",),
    "no_dilated": ("dilated",),
    "shared_bn": ("domain_bn",),
}


@dataclass
class RunConfig:
    """Every setting of a run, each with its default. `ModelConfig`,
    `StemConfig`, `DsbnState` and `adam_step` hold no second default: their
    values come from here.

    A training batch holds `batch_size` trials rounded down to a multiple of
    min(`domains_per_batch`, number of source sessions), in equal groups per
    domain: batch 32 from 3 domains trains on 30 trials.
    """

    subject: int = 0
    target_session: int = 0
    n_t: int = 64
    n_s: int = 40
    n_b: int = 30
    r_data: float = 0.2
    r_resolution: tuple[float, ...] = (1 / 16, 1 / 32, 1 / 64)
    pool_size: int = 4
    leaky_slope: float = 0.01
    eps_reeig: float = 1e-4
    eps_var: float = 1e-5
    cov_lambda: float | None = None
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 50
    domains_per_batch: int = 5
    epochs: int = 50
    seed: int = 0
    val_fraction: float = 0.1
    adaptation: str = "posthoc"  # 'posthoc' | 'interleaved'
    ablation: tuple[str, ...] = ()
    gamma_source: float = 0.1
    gamma_target: float = 0.05

    def __post_init__(self):
        # values arrive from JSON (--config files, checkpoint headers)
        _check_field_types(self)
        if self.adaptation not in ("posthoc", "interleaved"):
            raise ConfigError(f"unknown adaptation mode {self.adaptation!r}")
        unknown = set(self.ablation) - set(ABLATION_VARIANTS)
        if unknown:
            raise ConfigError(f"unknown ablation variants: {sorted(unknown)}")
        if len(set(self.ablation)) < len(self.ablation):
            raise ConfigError(f"ablation lists a variant twice: {list(self.ablation)}")
        # table order, so that one set of variants has one config hash
        self.ablation = tuple(v for v in ABLATION_VARIANTS if v in self.ablation)
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in [0, 1)")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise ConfigError(f"need finite lr > 0 and weight_decay >= 0, got "
                              f"lr={self.lr}, weight_decay={self.weight_decay}")
        # every domain group of a batch needs 2 trials for its batch statistics
        if self.domains_per_batch < 1 or self.batch_size < 2 * self.domains_per_batch:
            raise ConfigError(f"need domains_per_batch >= 1 and batch_size >= 2 * "
                              f"domains_per_batch, got batch_size={self.batch_size}, "
                              f"domains_per_batch={self.domains_per_batch}")

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def domain_key(domain: tuple[int, int]) -> str:
    return f"{domain[0]}/{domain[1]}"


def build_model_config(manifest: DatasetManifest, cfg: RunConfig) -> ModelConfig:
    """The network `cfg` describes for `manifest`'s trials, less what its
    ablation variants remove; ConfigError if none fits."""
    removed = {part for v in cfg.ablation for part in ABLATION_VARIANTS[v]}
    stem = StemConfig(
        fs=manifest.fs,
        r_data=cfg.r_data,
        r_resolution=cfg.r_resolution[:1] if "mrt_branches" in removed else cfg.r_resolution,
        n_t=cfg.n_t,
        n_s=cfg.n_s,
        flexor_ids=tuple(manifest.flexor_ids),
        extensor_ids=tuple(manifest.extensor_ids),
        proximal_ids=tuple(manifest.proximal_ids),
        distal_ids=tuple(manifest.distal_ids),
        pool_size=cfg.pool_size,
        leaky_slope=cfg.leaky_slope,
        mss_kernels=tuple(k for k in MSS_KERNELS if k not in removed),
    )
    stem.check_window(manifest.window_samples)
    return ModelConfig(stem=stem, n_b=cfg.n_b, n_c=manifest.n_classes,
                       cov_lambda=cfg.cov_lambda, eps_reeig=cfg.eps_reeig,
                       eps_var=cfg.eps_var, gamma_source=cfg.gamma_source,
                       gamma_target=cfg.gamma_target, shared_bn="domain_bn" in removed)


# --- training ---------------------------------------------------------------------

def _split_validation(trials: list[Trial], fraction: float,
                      rng: np.random.Generator) -> tuple[list[Trial], list[Trial]]:
    """Per-domain holdout so every source domain stays represented."""
    by_domain: dict[tuple[int, int], list[Trial]] = {}
    for tr in trials:
        by_domain.setdefault(tr.domain, []).append(tr)
    train, val = [], []
    for d in sorted(by_domain):
        pool = by_domain[d]
        k = int(round(fraction * len(pool)))
        picks = set(rng.permutation(len(pool))[:k].tolist())
        for i, tr in enumerate(pool):
            (val if i in picks else train).append(tr)
    return train, val


def train(cfg: RunConfig, manifest: DatasetManifest,
          trials: list[Trial]) -> tuple[TMKNet, MetricsReport]:
    """Train on all source sessions of the split; returns the model restored
    to its best source-validation epoch plus the validation report."""
    plan = leave_one_session_out(manifest, cfg.subject, cfg.target_session)
    source_trials = [t for t in trials if t.domain in plan.sources]
    target_trials = [t for t in trials if t.domain == plan.target]
    if not source_trials:
        raise DataError("no source-domain trials in the dataset")

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_split, rng_batches, rng_target = (np.random.default_rng(s) for s in seeds)

    model = TMKNet(build_model_config(manifest, cfg), seed=cfg.seed)
    model.register_domains([domain_key(d) for d in plan.sources],
                           [domain_key(plan.target)])

    train_trials, val_trials = _split_validation(source_trials, cfg.val_fraction, rng_split)
    d_per_batch = min(cfg.domains_per_batch, len(plan.sources))
    batch = cfg.batch_size - cfg.batch_size % d_per_batch
    sampler = DomainBatchSampler(train_trials, batch, d_per_batch, rng_batches)
    # a model with shared batch normalization has no target statistics to adapt
    target_signals = [] if model.cfg.shared_bn else [t.signal for t in target_trials]

    if cfg.epochs == 0:
        # zero-epoch runs still deliver an evaluable checkpoint: prime the
        # running statistics over one epoch of batches, weights untouched
        for _ in range(sampler.batches_per_epoch()):
            x, _, doms = sampler.next_batch()
            model.prime_stats(x, [domain_key(d) for d in doms])

    loss_curve: list[float] = []
    best = (-np.inf, None)  # (score, arrays)
    for epoch in range(cfg.epochs):
        for _ in range(sampler.batches_per_epoch()):
            x, y, doms = sampler.next_batch()
            loss, grads = model.loss_and_grads(x, y, [domain_key(d) for d in doms])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged at epoch {epoch}: loss={loss} "
                    f"(lr={cfg.lr}, batch={batch})"
                )
            loss_curve.append(loss)
            adam_step(model.params, grads, lr=cfg.lr, weight_decay=cfg.weight_decay)
            if cfg.adaptation == "interleaved" and target_signals:
                k = min(batch, len(target_signals))
                picks = rng_target.choice(len(target_signals), size=k, replace=False)
                adapt(model, [target_signals[i] for i in picks], plan.target, batch_size=batch)

        if val_trials:
            # select on validation loss: small validation sets quantize
            # accuracy too coarsely to rank saturated epochs
            score = -_validation_loss(model, val_trials)
        else:
            score = -float(np.mean(loss_curve[-sampler.batches_per_epoch():]))
        # ties go to the later epoch: the model keeps refining its domain
        # alignment after the source score saturates
        if score >= best[0]:
            best = (score, {k: v.copy() for k, v in model.state_arrays().items()})

    if best[1] is not None:
        model.load_state_arrays(best[1], model.dsbn_domain_kinds())

    if val_trials:
        val_report = evaluate(model, val_trials, manifest)
    else:
        val_report = MetricsReport(accuracy=float("nan"), macro_f1=float("nan"),
                                   precision=[], recall=[], f1=[], confusion=[])
    val_report.loss_curve = loss_curve
    val_report.seed = cfg.seed
    val_report.config_hash = cfg.hash()
    return model, val_report


def _logits(model: TMKNet, trials: list[Trial], capture: dict | None = None) -> np.ndarray:
    """Eval-mode logits of `trials` in order, from one `model.predict_logits`
    call on their signals. Passing the trials' own arrays, not a stacked copy,
    keeps memory from growing with the number of trials."""
    return model.predict_logits([t.signal for t in trials],
                                [domain_key(t.domain) for t in trials], capture)


def _validation_loss(model: TMKNet, trials: list[Trial]) -> float:
    """Mean eval-mode cross-entropy over a labeled trial list."""
    return float(ad.cross_entropy(Tape().leaf(_logits(model, trials)),
                                  [t.label for t in trials]).value)


def adapt(model: TMKNet, signals: np.ndarray | list[np.ndarray],
          domain: tuple[int, int], batch_size: int) -> None:
    """Accumulate target-domain normalization statistics from unlabeled data.

    `signals` is an (n, c, t) array or a sequence of n (c, t) arrays, of
    any float dtype; labels are structurally absent from this path. Weights
    are untouched. Each `batch_size` batch updates the statistics once;
    within it the stem runs in `model.eval_blocks` slices (see
    `TMKNet.adapt_batch`). ConfigError for a model with shared batch
    normalization, which keeps no statistics per target domain, and for a
    `batch_size` below 2, which cannot form batch statistics.
    """
    if model.cfg.shared_bn:
        raise ConfigError("the model uses shared batch normalization (ablation "
                          "shared_bn), so it has no target-domain statistics to adapt")
    if batch_size < 2:
        raise ConfigError(f"adapt batch_size must be at least 2, got {batch_size}")
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 3:
        raise DataError(f"expected an (n, c, t) signal stack, got {signals.shape}")
    if signals.shape[0] < 2:
        raise DataError("adaptation needs at least 2 target trials")
    key = domain_key(domain)
    for start in range(0, signals.shape[0], batch_size):
        chunk = signals[start: start + batch_size]
        if chunk.shape[0] < 2:
            break  # a trailing singleton cannot form batch statistics
        model.adapt_batch(chunk, [key] * chunk.shape[0])


def evaluate(model: TMKNet, trials: list[Trial], manifest: DatasetManifest) -> MetricsReport:
    """Eval-mode predictions against labels; pure given (model, trials)."""
    if not trials:
        raise DataError("no trials to evaluate")
    preds = np.argmax(_logits(model, trials), axis=1).tolist()
    return report_from_predictions([t.label for t in trials], preds, manifest.n_classes)


# --- UDA protocol -----------------------------------------------------------------

def run_uda(cfg: RunConfig, manifest: DatasetManifest,
            trials: list[Trial]) -> tuple[TMKNet, MetricsReport, MetricsReport]:
    """train -> (post-hoc) adapt -> evaluate the held-out session.

    Returns (model, source-validation report, target report). Under shared
    batch normalization the target is evaluated on the statistics accumulated
    during training, without any adaptation pass. DataError before any
    training when the dataset holds no trial of the target session.
    """
    plan = leave_one_session_out(manifest, cfg.subject, cfg.target_session)
    target_trials = [t for t in trials if t.domain == plan.target]
    if not target_trials:
        raise DataError(f"no trials for target domain {plan.target}")
    model, val_report = train(cfg, manifest, trials)
    if cfg.adaptation == "posthoc" and not model.cfg.shared_bn:
        adapt(model, [t.signal for t in target_trials], plan.target, batch_size=cfg.batch_size)
    target_report = evaluate(model, target_trials, manifest)
    target_report.seed = cfg.seed
    target_report.config_hash = cfg.hash()
    return model, val_report, target_report


# --- saliency and feature export ----------------------------------------------------

def saliency(model: TMKNet, trial: Trial, target_class: int) -> tuple[np.ndarray, np.ndarray]:
    """|d logit_target / d input| per entry, plus the per-sensor max over time."""
    n_c = model.cfg.n_c
    if not 0 <= target_class < n_c:
        raise ConfigError(f"class id {target_class} out of range [0, {n_c})")
    tape = Tape()
    xv = tape.leaf(trial.signal[None], requires_grad=True)
    logits = model.forward(tape, xv, [domain_key(trial.domain)], "eval")
    tape.backward(ad.gather(logits, [target_class], axis=1))
    sal = np.abs(xv.grad[0])
    return sal, sal.max(axis=1)


def _tangent_vector(mats: np.ndarray) -> np.ndarray:
    """Upper-triangular vectorization of symmetric matrices with sqrt(2)
    off-diagonal scaling (norm-preserving); shape (b, n(n+1)/2)."""
    n = mats.shape[-1]
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return mats[:, iu[0], iu[1]] * scale


def export_features(model: TMKNet, trials: list[Trial]) -> tuple[list[str], list[list]]:
    """Tangent-space features immediately before and after the DSBN layer.

    Returns (header, rows) ready for CSV: trial id, label, domain, then the
    logeig-vectorized pre- and post-normalization features.
    """
    n_b = model.cfg.n_b
    dim = n_b * (n_b + 1) // 2
    header = (["trial_id", "label", "subject", "session"]
              + [f"pre_{i}" for i in range(dim)] + [f"post_{i}" for i in range(dim)])
    if not trials:
        return header, []
    captured: dict = {}
    _logits(model, trials, captured)
    pre = _tangent_vector(sym_fn(captured["pre_dsbn"], "log"))
    post = _tangent_vector(sym_fn(captured["post_dsbn"], "log"))
    return header, [[t.trial_id, t.label, t.domain[0], t.domain[1],
                     *pre[i].tolist(), *post[i].tolist()] for i, t in enumerate(trials)]


def domain_dispersion(rows: list[list], block: str, n_features: int) -> float:
    """Mean pairwise distance between per-domain feature centroids."""
    offset = 4 if block == "pre" else 4 + n_features
    groups: dict[tuple, list[np.ndarray]] = {}
    for row in rows:
        key = (row[2], row[3])
        groups.setdefault(key, []).append(np.asarray(row[offset: offset + n_features]))
    cents = [np.mean(v, axis=0) for v in groups.values()]
    if len(cents) < 2:
        return 0.0
    dists = [np.linalg.norm(cents[i] - cents[j])
             for i in range(len(cents)) for j in range(i + 1, len(cents))]
    return float(np.mean(dists))


# --- ablation ------------------------------------------------------------------------

def ablate(cfg: RunConfig, manifest: DatasetManifest, trials: list[Trial],
           variants: list[str]) -> list[tuple[str, MetricsReport]]:
    """Train and evaluate the full model plus each requested variant with the
    shared seed; returns (variant, target report) pairs, full model first.
    ConfigError before any training if `cfg` sets `ablation` (each row sets its
    own) or if `variants` names an unknown variant or one variant twice."""
    if cfg.ablation:
        raise ConfigError(f"ablate trains the full model and each variant on its own, "
                          f"so the config must not set ablation (got {list(cfg.ablation)})")
    if len(set(variants)) < len(variants):
        raise ConfigError(f"ablate lists a variant twice: {variants}")
    # every row's config first: RunConfig rejects an unknown variant before any training
    rows = [("full", cfg)] + [(v, replace(cfg, ablation=(v,))) for v in variants]
    return [(name, run_uda(row_cfg, manifest, trials)[2]) for name, row_cfg in rows]


def ablation_table(results: list[tuple[str, MetricsReport]]) -> str:
    width = max(len(name) for name, _ in results) + 2
    lines = [f"{'variant':<{width}} {'accuracy':>9} {'macro_f1':>9}"]
    for name, rep in results:
        lines.append(f"{name:<{width}} {rep.accuracy:>9.4f} {rep.macro_f1:>9.4f}")
    return "\n".join(lines)


# --- checkpoints -----------------------------------------------------------------------

def save_checkpoint(path: str | Path, model: TMKNet, cfg: RunConfig,
                    manifest: DatasetManifest) -> None:
    """Write `MAGIC | <IQ version, header_len> | header | payload | SHA-256`.

    The JSON header (`config`, `manifest`, `domain_kinds`) fixes the model and
    so every array's shape; the payload is the model's arrays in
    `model.layout` order as little-endian float64; the SHA-256 covers every
    byte before it. Round trips bit-exactly."""
    header = json.dumps({"config": asdict(cfg), "manifest": asdict(manifest),
                         "domain_kinds": model.dsbn_domain_kinds()}, sort_keys=True).encode()
    body = b"".join([CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(header)),
                     header, *(np.ascontiguousarray(a, dtype="<f8").tobytes()
                               for a in model.state_arrays().values())])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body + hashlib.sha256(body).digest())


def load_checkpoint(path: str | Path) -> tuple[TMKNet, RunConfig, DatasetManifest]:
    path = Path(path)
    raw = _read_store_file(path)
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path} is not a tmknet checkpoint (bad magic)")
    if len(raw) < 16 + DIGEST_LEN:
        raise DataError(f"{path} is truncated: {len(raw)} bytes, shorter than the "
                        f"16-byte preamble and {DIGEST_LEN}-byte digest")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version} "
                        f"(this reader reads version {CHECKPOINT_VERSION})")
    body = raw[:-DIGEST_LEN]
    if hashlib.sha256(body).digest() != raw[-DIGEST_LEN:]:
        raise DataError(f"{path}: SHA-256 digest mismatch; the checkpoint is "
                        "truncated or corrupt")
    header = _json_object(body[16:16 + header_len], f"{path}: checkpoint header")
    for key in ("config", "manifest", "domain_kinds"):
        if not isinstance(header.get(key), dict):
            raise DataError(f"{path}: checkpoint header field {key!r} is missing or "
                            "not a JSON object")
    payload = body[16 + header_len:]

    try:
        cfg = RunConfig(**header["config"])
        manifest = DatasetManifest(**header["manifest"])
        model_cfg = build_model_config(manifest, cfg)
        # size the model from the header before allocating it
        rows = layout(model_cfg, header["domain_kinds"])
        sizes = [math.prod(shape) for _, shape, _ in rows]
        if len(payload) != 8 * sum(sizes):
            raise DataError(f"{path}: checkpoint payload holds {len(payload)} bytes, "
                            f"the model its header describes needs {8 * sum(sizes)}")
        values = np.frombuffer(payload, dtype="<f8")
        if not np.isfinite(values).all():
            raise DataError(f"{path}: checkpoint payload holds a non-finite value")
        chunks = np.split(values, np.cumsum(sizes)[:-1])
        arrays = {name: chunk.reshape(shape) for (name, shape, _), chunk in zip(rows, chunks)}
        for name, _, tag in rows:
            problem = _state_problem(name, tag, arrays[name])
            if problem:
                raise DataError(f"{path}: checkpoint array {name!r} {problem}")
        model = TMKNet(model_cfg, seed=cfg.seed)
        model.load_state_arrays(arrays, header["domain_kinds"])
    except (TypeError, ValueError, ArithmeticError, ConfigError) as exc:
        raise DataError(f"{path}: checkpoint header does not describe a model ({exc})") from exc
    return model, cfg, manifest


def _state_problem(name: str, tag: str, a: np.ndarray) -> str | None:
    """What makes the checkpoint array `name`, a `model.layout` row tagged
    `tag`, unusable by the model; None if nothing does."""
    if name.endswith("_bn.var") and not (a > 0).all():
        return "has a batch-norm variance that is not positive"
    if name.endswith("_bn.flag") and not np.isin(a, (0.0, 1.0)).all():
        return "has a batch-norm flag other than 0 or 1"
    if name.endswith(".scalars") and not a[0] >= 0:
        return "has a negative running dispersion"
    if name.endswith(".scalars") and not (a[1] >= 0 and a[1] == np.floor(a[1])):
        return "has a step count that is not a non-negative integer"
    if (tag == "spd" or name.endswith(".g_run")) and not (
            np.array_equal(a, a.T) and np.linalg.eigvalsh(a)[0] > 0):
        return "is not a symmetric positive definite matrix"
    return None
