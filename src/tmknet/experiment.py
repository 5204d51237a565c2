"""Experiment harness: training with the unsupervised domain-adaptation
protocol, post-hoc or interleaved target-statistics adaptation, evaluation,
saliency maps, DSBN feature export, and the ablation table.

The target-domain path never sees labels: adaptation takes bare signal stacks,
and only `evaluate` pairs predictions with ground truth.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .backbone import BackboneConfig
from .data import DatasetManifest, Trial, leave_one_session_out
from .data import DomainBatchSampler
from .errors import ConfigError, DataError, NumericalError
from .linalg import sym_fn
from .metrics import MetricsReport, report_from_predictions
from .model import ModelConfig, TMKNet
from .optim import adam_step
from .stem import MSS_KERNELS, StemConfig

CHECKPOINT_MAGIC = b"TMKN"
CHECKPOINT_VERSION = 1
INFER_CHUNK = 256  # rows per eval-mode forward in chunked inference

ABLATION_VARIANTS = (
    "no_mrt",
    "no_mss",
    "no_global",
    "no_flexor_extensor",
    "no_proximal_distal",
    "no_dilated",
)


@dataclass
class RunConfig:
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
    shared_bn: bool = False
    gamma_source: float = 0.1
    gamma_target: float = 0.05

    def __post_init__(self):
        if self.adaptation not in ("posthoc", "interleaved"):
            raise ConfigError(f"unknown adaptation mode {self.adaptation!r}")
        unknown = set(self.ablation) - set(ABLATION_VARIANTS)
        if unknown:
            raise ConfigError(f"unknown ablation variants: {sorted(unknown)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in [0, 1)")

    def to_doc(self) -> dict:
        """The fields as a JSON-ready dict; tuple fields become lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_doc(cls, doc: dict) -> "RunConfig":
        """Inverse of `to_doc`; absent fields take their defaults."""
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})

    def hash(self) -> str:
        blob = json.dumps(self.to_doc(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def domain_key(domain: tuple[int, int]) -> str:
    return f"{domain[0]}/{domain[1]}"


def build_model_config(manifest: DatasetManifest, cfg: RunConfig) -> ModelConfig:
    r_resolution = cfg.r_resolution
    mss_kernels = list(MSS_KERNELS)
    if "no_mrt" in cfg.ablation:
        r_resolution = (cfg.r_resolution[0],)
    if "no_mss" in cfg.ablation:
        mss_kernels = ["global"]
    else:
        removals = {
            "no_global": ("global",),
            "no_flexor_extensor": ("flexor", "extensor"),
            "no_proximal_distal": ("proximal_distal",),
            "no_dilated": ("dilated",),
        }
        for flag, kernels in removals.items():
            if flag in cfg.ablation:
                mss_kernels = [k for k in mss_kernels if k not in kernels]
    stem = StemConfig(
        fs=manifest.fs,
        r_data=cfg.r_data,
        r_resolution=tuple(r_resolution),
        n_t=cfg.n_t,
        n_s=cfg.n_s,
        flexor_ids=tuple(manifest.flexor_ids),
        extensor_ids=tuple(manifest.extensor_ids),
        proximal_ids=tuple(manifest.proximal_ids),
        distal_ids=tuple(manifest.distal_ids),
        pool_size=cfg.pool_size,
        leaky_slope=cfg.leaky_slope,
        mss_kernels=tuple(mss_kernels),
    )
    backbone = BackboneConfig(
        n_b=cfg.n_b, n_c=manifest.n_classes, cov_lambda=cfg.cov_lambda,
        eps_reeig=cfg.eps_reeig, eps_var=cfg.eps_var,
    )
    return ModelConfig(stem=stem, backbone=backbone, gamma_source=cfg.gamma_source,
                       gamma_target=cfg.gamma_target, shared_bn=cfg.shared_bn)


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
    target_signals = np.stack([t.signal for t in target_trials]).astype(np.float64) \
        if target_trials else None

    if cfg.epochs == 0:
        # zero-epoch runs still deliver an evaluable checkpoint: prime the
        # running statistics over one epoch of batches, weights untouched
        for _ in range(sampler.batches_per_epoch()):
            x, _, doms = sampler.next_batch()
            model.prime_stats(x, [domain_key(d) for d in doms])

    loss_curve: list[float] = []
    best = (-np.inf, None, None, None)  # (score, params, state, kinds)
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
            if cfg.adaptation == "interleaved" and target_signals is not None:
                k = min(batch, len(target_signals))
                picks = rng_target.choice(len(target_signals), size=k, replace=False)
                adapt(model, target_signals[picks], plan.target, batch_size=k)

        if val_trials:
            # select on validation loss: small validation sets quantize
            # accuracy too coarsely to rank saturated epochs
            score = -_validation_loss(model, val_trials)
        else:
            score = -float(np.mean(loss_curve[-sampler.batches_per_epoch():]))
        # ties go to the later epoch: the model keeps refining its domain
        # alignment after the source score saturates
        if score >= best[0]:
            best = (score, model.params.copy_values(),
                    {k: v.copy() for k, v in model.state_arrays().items()},
                    model.dsbn_domain_kinds())

    if best[1] is not None:
        model.params.load_values(best[1])
        model.load_state_arrays(best[2], best[3])

    if val_trials:
        val_report = evaluate(model, val_trials, manifest)
    else:
        val_report = MetricsReport(accuracy=float("nan"), macro_f1=float("nan"),
                                   precision=[], recall=[], f1=[], confusion=[])
    val_report.loss_curve = loss_curve
    val_report.seed = cfg.seed
    val_report.config_hash = cfg.hash()
    return model, val_report


def _validation_loss(model: TMKNet, trials: list[Trial]) -> float:
    """Mean eval-mode cross-entropy over a labeled trial list."""
    total = 0.0
    for chunk, logits, _ in _predict_chunks(model, trials):
        logp = ad.log_softmax(Tape().constant(logits)).value
        labels = np.array([t.label for t in chunk])
        total += -logp[np.arange(len(chunk)), labels].sum()
    return total / len(trials)


def adapt(model: TMKNet, signals: np.ndarray, domain: tuple[int, int],
          batch_size: int = 50) -> None:
    """Accumulate target-domain normalization statistics from unlabeled data.

    `signals` is a bare (n, c, t) stack; labels are structurally absent from
    this path. Weights are untouched.
    """
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


def _predict_chunks(model: TMKNet, trials: list[Trial], capture: bool = False):
    """Eval-mode logits over `trials`, INFER_CHUNK rows per forward.

    Yields (chunk, logits, captured): `captured` holds the chunk's pre- and
    post-DSBN matrices when `capture` is set, and is None otherwise.
    """
    for start in range(0, len(trials), INFER_CHUNK):
        chunk = trials[start: start + INFER_CHUNK]
        x = np.stack([t.signal for t in chunk]).astype(np.float64)
        captured = {} if capture else None
        logits = model.predict_logits(x, [domain_key(t.domain) for t in chunk], captured)
        yield chunk, logits, captured


def evaluate(model: TMKNet, trials: list[Trial], manifest: DatasetManifest) -> MetricsReport:
    """Eval-mode predictions against labels; pure given (model, trials)."""
    if not trials:
        raise DataError("no trials to evaluate")
    preds = []
    for _, logits, _ in _predict_chunks(model, trials):
        preds.extend(np.argmax(logits, axis=1).tolist())
    y_true = [t.label for t in trials]
    return report_from_predictions(y_true, preds, manifest.n_classes)


# --- UDA protocol -----------------------------------------------------------------

def run_uda(cfg: RunConfig, manifest: DatasetManifest,
            trials: list[Trial]) -> tuple[TMKNet, MetricsReport, MetricsReport]:
    """train -> (post-hoc) adapt -> evaluate the held-out session.

    Returns (model, source-validation report, target report). Under shared
    batch normalization the target is evaluated on the statistics accumulated
    during training, without any adaptation pass.
    """
    model, val_report = train(cfg, manifest, trials)
    plan = leave_one_session_out(manifest, cfg.subject, cfg.target_session)
    target_trials = [t for t in trials if t.domain == plan.target]
    if not target_trials:
        raise DataError(f"no trials for target domain {plan.target}")
    if not cfg.shared_bn and cfg.adaptation == "posthoc":
        signals = np.stack([t.signal for t in target_trials]).astype(np.float64)
        adapt(model, signals, plan.target, batch_size=cfg.batch_size)
    target_report = evaluate(model, target_trials, manifest)
    target_report.seed = cfg.seed
    target_report.config_hash = cfg.hash()
    return model, val_report, target_report


# --- saliency and feature export ----------------------------------------------------

def saliency(model: TMKNet, trial: Trial, target_class: int) -> tuple[np.ndarray, np.ndarray]:
    """|d logit_target / d input| per entry, plus the per-sensor max over time."""
    n_c = model.cfg.backbone.n_c
    if not 0 <= target_class < n_c:
        raise ConfigError(f"class id {target_class} out of range [0, {n_c})")
    x = trial.signal.astype(np.float64)[None]
    tape = Tape()
    xv = tape.leaf(x, requires_grad=True)
    logits = model.forward(tape, xv, [domain_key(trial.domain)], "eval")
    tape.backward(ad.take_scalar(logits, (0, target_class)))
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
    n_b = model.cfg.backbone.n_b
    dim = n_b * (n_b + 1) // 2
    header = (["trial_id", "label", "subject", "session"]
              + [f"pre_{i}" for i in range(dim)] + [f"post_{i}" for i in range(dim)])
    rows: list[list] = []
    for chunk, _, captured in _predict_chunks(model, trials, capture=True):
        pre = _tangent_vector(sym_fn(captured["pre_dsbn"], "log"))
        post = _tangent_vector(sym_fn(captured["post_dsbn"], "log"))
        for i, t in enumerate(chunk):
            rows.append([t.trial_id, t.label, t.domain[0], t.domain[1],
                         *pre[i].tolist(), *post[i].tolist()])
    return header, rows


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
    shared seed; returns (variant, target report) pairs, full model first."""
    for v in variants:
        if v not in ABLATION_VARIANTS:
            raise ConfigError(f"unknown ablation variant {v!r}")
    results = []
    for name in ["full", *variants]:
        flags = () if name == "full" else (name,)
        variant_cfg = replace(cfg, ablation=flags)
        _, _, target_report = run_uda(variant_cfg, manifest, trials)
        results.append((name, target_report))
    return results


def ablation_table(results: list[tuple[str, MetricsReport]]) -> str:
    width = max(len(name) for name, _ in results) + 2
    lines = [f"{'variant':<{width}} {'accuracy':>9} {'macro_f1':>9}"]
    for name, rep in results:
        lines.append(f"{name:<{width}} {rep.accuracy:>9.4f} {rep.macro_f1:>9.4f}")
    return "\n".join(lines)


# --- checkpoints -----------------------------------------------------------------------

def save_checkpoint(path: str | Path, model: TMKNet, cfg: RunConfig,
                    manifest: DatasetManifest) -> None:
    """Versioned binary: JSON header (config, manifest, entry table) followed
    by a little-endian float64 payload. Round trips bit-exactly."""
    entries = []
    blobs = []
    offset = 0
    named = list(model.params.items())
    arrays = [("param", name, p.value, p.tag) for name, p in named]
    arrays += [("state", name, arr, "") for name, arr in sorted(model.state_arrays().items())]
    for kind, name, arr, tag in arrays:
        data = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"kind": kind, "name": name, "tag": tag,
                        "shape": list(arr.shape), "offset": offset})
        blobs.append(data.tobytes())
        offset += data.nbytes

    manifest_doc = asdict(manifest)
    manifest_doc["domains"] = [list(d) for d in manifest.domains]
    header = json.dumps({
        "format_version": CHECKPOINT_VERSION,
        "config": cfg.to_doc(),
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "manifest": manifest_doc,
        "domain_kinds": model.dsbn_domain_kinds(),
        "entries": entries,
    }, sort_keys=True).encode("utf-8")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[TMKNet, RunConfig, DatasetManifest]:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path} is not a tmknet checkpoint (bad magic)")
    if len(raw) < 16:
        raise DataError(f"{path} is truncated: {len(raw)} bytes, "
                        f"shorter than the 16-byte preamble")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    except ValueError as exc:  # both UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: checkpoint header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    missing = [k for k in ("config", "manifest", "entries", "domain_kinds") if k not in header]
    if missing:
        raise DataError(f"{path}: checkpoint header lacks {missing}")
    for key in ("config", "manifest", "domain_kinds"):
        if not isinstance(header[key], dict):
            raise DataError(f"{path}: checkpoint header field {key!r} is not a JSON object")
    entries = header["entries"]
    if not isinstance(entries, list) or not all(map(_is_entry, entries)):
        raise DataError(f"{path}: checkpoint header field 'entries' is not a list of "
                        "{kind, name, shape, offset} objects")
    payload = raw[16 + header_len:]

    try:
        cfg = RunConfig.from_doc(header["config"])
        manifest = DatasetManifest(**header["manifest"])
        model = TMKNet(build_model_config(manifest, cfg), seed=cfg.seed)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: checkpoint header does not describe a model ({exc})") from exc
    values: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}
    for e in entries:
        count = int(np.prod(e["shape"])) if e["shape"] else 1
        start = e["offset"]
        arr = np.frombuffer(payload[start: start + 8 * count], dtype="<f8")
        if arr.size != count:
            raise DataError(f"checkpoint payload truncated at entry {e['name']}")
        arr = arr.reshape(e["shape"]).copy()
        (values if e["kind"] == "param" else state)[e["name"]] = arr
    missing = set(model.params.names()) - set(values)
    if missing:
        raise DataError(f"checkpoint is missing parameters: {sorted(missing)}")
    for name in model.params.names():
        want = model.params[name].value.shape
        if values[name].shape != want:
            raise DataError(f"checkpoint parameter {name} has shape "
                            f"{values[name].shape}, the model needs {want}")
    model.params.load_values(values)
    try:
        model.load_state_arrays(state, header["domain_kinds"])
    except KeyError as exc:
        raise DataError(f"checkpoint is missing state entry {exc}") from exc
    return model, cfg, manifest


def _is_entry(e) -> bool:
    """An entry-table row: {kind, name, shape, offset} with a non-negative
    integer shape and offset."""
    return (isinstance(e, dict) and isinstance(e.get("kind"), str)
            and isinstance(e.get("name"), str) and isinstance(e.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in e["shape"])
            and type(e.get("offset")) is int and e["offset"] >= 0)
