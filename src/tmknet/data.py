"""Dataset handling: manifest and trial store, domain-balanced batch
sampling, leave-one-session-out splits, and a synthetic domain-shifted sEMG
generator for desk-scale work.

The dataset directory is tmknet's one input format. Its trials are already
windowed and preprocessed: windowing, filtering and z-scoring a raw recording
belong to the converter that writes the directory.

Dataset directory format (format_version 1):
    manifest.json   UTF-8 JSON with the DatasetManifest fields
    trials.f32      little-endian float32, concatenated c x t row-major trials
    index.csv       trial_id, byte_offset, label_id, subject, session
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError

FORMAT_VERSION = 1
INDEX_COLUMNS = ("trial_id", "byte_offset", "label_id", "subject", "session")


def _fitted(value, hint):
    """`value` as a field annotated `hint` holds it; ConfigError if it does
    not fit. An int fits a float field, a bool no number field. A list or
    tuple fits a list or tuple field of its length when each element fits its
    type, and comes back as the field's container: a JSON list as a tuple."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (list, tuple):  # list[X], tuple[X, ...] or tuple[X, Y]
        sequence = isinstance(value, (list, tuple))
        if sequence and (origin is list or args[-1] is Ellipsis):
            args = args[:1] * len(value)
        if not sequence or len(value) != len(args):
            raise ConfigError(hint)
        return origin(map(_fitted, value, args))
    if args:  # an optional field, X | None
        return None if value is None else _fitted(value, args[0])
    if (isinstance(value, bool) and hint in (int, float)
            or not isinstance(value, (int, float) if hint is float else hint)):
        raise ConfigError(hint)
    return value


# a dataclass's field annotations, evaluated from their strings once per class
_field_types = cache(get_type_hints)


def _check_field_types(obj) -> None:
    """Put each field of dataclass `obj` into its annotated type (see
    `_fitted`); ConfigError names the first field whose value does not fit.
    So a class whose `__post_init__` calls this reads its stored document
    back as `Cls(**doc)`, doc being the decoded `json.dumps(asdict(x))`."""
    for name, hint in _field_types(type(obj)).items():
        value = getattr(obj, name)
        try:
            setattr(obj, name, _fitted(value, hint))
        except ConfigError:
            spelled = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{name} must be {spelled}, got {value!r}") from None


def _json_object(raw: bytes, what: str) -> dict:
    """The JSON object that the UTF-8 bytes `raw` spell; DataError, naming
    `what`, for anything else."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # both UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{what} is not UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} is not a JSON object")
    return doc


def _check_montage(sensors: int, flexor_ids, extensor_ids, proximal_ids, distal_ids) -> None:
    """ConfigError unless the muscle groups fit `sensors` sensors: an even
    count, flexor and extensor each half of it, and flexor + extensor and
    proximal + distal each a partition of range(sensors)."""
    if sensors % 2 != 0:
        raise ConfigError(f"sensor count must be even, got {sensors}")
    if len(flexor_ids) != sensors // 2 or len(extensor_ids) != sensors // 2:
        raise ConfigError("flexor and extensor lists must each cover half the sensors")
    if sorted([*flexor_ids, *extensor_ids]) != list(range(sensors)):
        raise ConfigError("flexor + extensor lists must partition the sensors")
    if sorted([*proximal_ids, *distal_ids]) != list(range(sensors)):
        raise ConfigError("proximal + distal lists must partition the sensors")


@dataclass
class DatasetManifest:
    name: str
    fs: float
    sensors: int
    class_names: list[str]
    domains: list[tuple[int, int]]  # (subject, session) pairs
    flexor_ids: list[int]
    extensor_ids: list[int]
    proximal_ids: list[int]
    distal_ids: list[int]
    window_ms: float
    overlap_ms: float
    notes: str = ""
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        _check_field_types(self)
        if not self.window_ms > self.overlap_ms > 0:
            raise ConfigError(
                f"need window_ms > overlap_ms > 0, got {self.window_ms}, {self.overlap_ms}"
            )
        _check_montage(self.sensors, self.flexor_ids, self.extensor_ids,
                       self.proximal_ids, self.distal_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def window_samples(self) -> int:
        return round(self.window_ms * self.fs / 1000.0)


@dataclass
class Trial:
    signal: np.ndarray  # (c, t) float32
    label: int
    domain: tuple[int, int]  # (subject, session)
    trial_id: int

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float32)
        if not np.all(np.isfinite(self.signal)):
            raise DataError(f"trial {self.trial_id} contains non-finite values")


@dataclass
class SplitPlan:
    subject: int
    target: tuple[int, int]
    sources: list[tuple[int, int]]

    def __post_init__(self):
        self.target = tuple(self.target)
        self.sources = [tuple(s) for s in self.sources]
        if self.target in self.sources:
            raise ConfigError("target domain cannot also be a source domain")
        for d in (self.target, *self.sources):
            if d[0] != self.subject:
                raise ConfigError(f"domain {d} does not belong to subject {self.subject}")


def leave_one_session_out(manifest: DatasetManifest, subject: int,
                          target_session: int) -> SplitPlan:
    """Hold out one session of a subject as the target domain."""
    subject_domains = [d for d in manifest.domains if d[0] == subject]
    if not subject_domains:
        raise ConfigError(f"subject {subject} has no domains in the manifest")
    target = (subject, target_session)
    if target not in subject_domains:
        raise ConfigError(f"session {target_session} not recorded for subject {subject}")
    sources = [d for d in subject_domains if d != target]
    if not sources:
        raise ConfigError("leave-one-session-out needs at least two sessions")
    return SplitPlan(subject=subject, target=target, sources=sources)


# --- batch sampling ----------------------------------------------------------------

class DomainBatchSampler:
    """Domain-balanced batches: d domains per batch, b/d trials each.

    Domains cycle in a reshuffled order so every source domain is visited each
    epoch; per-domain trial pools reshuffle when exhausted (sampling with
    replacement across epoch boundaries). Deterministic under a seeded rng.
    """

    def __init__(self, trials: list[Trial], batch_size: int, domains_per_batch: int,
                 rng: np.random.Generator):
        if batch_size % domains_per_batch != 0:
            raise ConfigError(
                f"batch size {batch_size} is not divisible by {domains_per_batch} domains"
            )
        self.by_domain: dict[tuple[int, int], list[int]] = {}
        for i, tr in enumerate(trials):
            self.by_domain.setdefault(tr.domain, []).append(i)
        if domains_per_batch > len(self.by_domain):
            raise ConfigError(
                f"{domains_per_batch} domains per batch but only {len(self.by_domain)} available"
            )
        self.trials = trials
        self.batch_size = batch_size
        self.domains_per_batch = domains_per_batch
        self.per_domain = batch_size // domains_per_batch
        self.rng = rng
        self.domains = sorted(self.by_domain)
        self._domain_cycle: list[tuple[int, int]] = []
        self._pools: dict[tuple[int, int], list[int]] = {d: [] for d in self.domains}

    def _next_domains(self) -> list[tuple[int, int]]:
        picked = []
        while len(picked) < self.domains_per_batch:
            if not self._domain_cycle:
                order = self.rng.permutation(len(self.domains))
                self._domain_cycle = [self.domains[i] for i in order]
            d = self._domain_cycle.pop(0)
            if d not in picked:
                picked.append(d)
        return picked

    def _draw(self, domain: tuple[int, int], k: int) -> list[int]:
        pool = self._pools[domain]
        out = []
        while len(out) < k:
            if not pool:
                idx = self.by_domain[domain]
                pool.extend(int(i) for i in self.rng.permutation(idx))
            out.append(pool.pop(0))
        return out

    def next_batch(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """Returns (signals (b, c, t) float64, labels (b,), domains per sample)."""
        idx: list[int] = []
        doms: list[tuple[int, int]] = []
        for d in self._next_domains():
            chosen = self._draw(d, self.per_domain)
            idx.extend(chosen)
            doms.extend([d] * self.per_domain)
        x = np.stack([self.trials[i].signal for i in idx]).astype(np.float64)
        y = np.array([self.trials[i].label for i in idx])
        return x, y, doms

    def batches_per_epoch(self) -> int:
        total = sum(len(v) for v in self.by_domain.values())
        return max(1, total // self.batch_size)


# --- synthetic generator -------------------------------------------------------------

@dataclass
class SynthSpec:
    n_classes: int = 4
    sensors: int = 8
    n_domains: int = 4
    trials_per_cell: int = 50  # per (class, domain) cell
    fs: float = 512.0
    window_ms: float = 250.0
    overlap_ms: float = 125.0
    domain_shift: float = 1.0  # 0 disables the congruence/gain drift
    seed: int = 0

    def __post_init__(self):
        # the montage `synth_generate` builds, checked before any generation
        _check_montage(self.sensors, **_synth_montage(self.sensors))
        if min(self.n_classes, self.n_domains, self.trials_per_cell) < 1:
            raise ConfigError("classes, domains and trials_per_cell must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("fs", "window_ms", "overlap_ms"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got "
                                  f"{getattr(self, name)}")
        if not 0 <= self.domain_shift < math.inf:
            raise ConfigError(f"domain_shift must be non-negative and finite, got "
                              f"{self.domain_shift}")
        samples = self.window_ms * self.fs / 1000.0  # DatasetManifest.window_samples
        if not (samples < math.inf and round(samples) >= 2):
            raise ConfigError(f"a window of {self.window_ms} ms at {self.fs} Hz holds "
                              f"{samples:g} samples; it needs a finite count of at least 2")


def _synth_montage(sensors: int) -> dict[str, list[int]]:
    """The synthetic montage's muscle groups: the first half of the sensors
    flexor, the second extensor, even ones proximal and odd ones distal."""
    half = sensors // 2
    return {"flexor_ids": list(range(half)), "extensor_ids": list(range(half, sensors)),
            "proximal_ids": list(range(0, sensors, 2)), "distal_ids": list(range(1, sensors, 2))}


def _class_mixing(spec: SynthSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """Per-class spatial mixing matrices with flexor/extensor block structure.

    Even classes activate the flexor block, odd ones the extensor block, each
    along a class-specific within-block direction. Same-block classes then
    differ only in the orientation of their local correlation pattern, so
    clean per-muscle-group features matter for telling them apart.
    """
    c = spec.sensors
    half = c // 2
    blocks = [np.arange(half), np.arange(half, c)]
    # two oblique directions per block, shared across classes that reuse a block
    directions: dict[int, list[np.ndarray]] = {}
    for b in (0, 1):
        d0 = rng.normal(size=half)
        d0 /= np.linalg.norm(d0)
        raw = rng.normal(size=half)
        raw -= (raw @ d0) * d0
        raw /= np.linalg.norm(raw)
        d1 = 0.45 * d0 + np.sqrt(1 - 0.45 ** 2) * raw
        directions[b] = [d0, d1]
    mats = []
    for k in range(spec.n_classes):
        l = 0.55 * np.eye(c)
        block = blocks[k % 2]
        pool = directions[k % 2]
        i = (k // 2) % len(pool)
        if k >= 2 * len(pool):  # extra classes get fresh directions
            d = rng.normal(size=half)
            d /= np.linalg.norm(d)
        else:
            d = pool[i]
        l[np.ix_(block, block)] += 1.5 * np.outer(d, d)
        mats.append(l)
    return mats


def _domain_transform(spec: SynthSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Congruence, per-channel gain/offset and a common-mode pattern for one domain.

    Electrode shift and session drift perturb the mixing mildly, so the
    congruence is near-identity with channel rescaling (condition number
    clipped to 3). The domain additionally leaks a fixed spatial common-mode
    source into every trial, shifting the covariance mean without touching
    class structure.
    """
    c = spec.sensors
    s = spec.domain_shift
    mix = rng.normal(size=(c, c)) / np.sqrt(c)
    scale = rng.uniform(1.0 - 0.25 * s, 1.0 + 0.25 * s, size=c)
    a = (np.eye(c) + 0.3 * s * mix) * scale
    u, sv, vt = np.linalg.svd(a)
    sv = np.clip(sv, sv.max() / 3.0, None)
    a = (u * sv) @ vt
    gain = 1.0 + s * rng.uniform(-0.25, 0.25, size=(c, 1))
    offset = s * rng.uniform(-0.3, 0.3, size=(c, 1))
    common = rng.normal(size=c)
    common *= 0.9 * s / np.linalg.norm(common)
    return a, gain, offset, common


def _band_limited_noise(rng: np.random.Generator, c: int, t: int) -> np.ndarray:
    white = rng.normal(size=(c, t + 8))
    kernel = np.hanning(9)
    kernel /= kernel.sum()
    smooth = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="valid"), 1, white)
    return smooth[:, :t]


def zscore(signal: np.ndarray) -> np.ndarray:
    """Per-channel standardization over the trial (population divisor).

    Channels with variance below 1e-8 use the floor, mapping constants to 0.
    """
    signal = np.asarray(signal, dtype=np.float64)
    mean = signal.mean(axis=-1, keepdims=True)
    var = signal.var(axis=-1, keepdims=True)
    return (signal - mean) / np.sqrt(np.maximum(var, 1e-8))


def synth_generate(spec: SynthSpec) -> tuple[DatasetManifest, list[Trial]]:
    """Generate a domain-shifted synthetic sEMG-like dataset.

    Each class colors band-limited noise with a latent SPD spatial
    coactivation pattern built over flexor/extensor blocks; each domain
    (session) applies a fixed random congruence with condition number <= 3
    plus per-channel gain/offset, simulating electrode shift and session
    drift. Each trial is stored z-scored per channel, as a converter would
    store a recorded window, so class and domain information live in the
    cross-channel correlation structure. Bit-reproducible from (spec, seed);
    labels are balanced.
    """
    rng = np.random.default_rng(spec.seed)
    c = spec.sensors
    manifest = DatasetManifest(
        name=f"synthetic-{spec.seed}",
        fs=spec.fs,
        sensors=c,
        class_names=[f"gesture{k}" for k in range(spec.n_classes)],
        domains=[(0, s) for s in range(spec.n_domains)],
        **_synth_montage(c),
        window_ms=spec.window_ms,
        overlap_ms=spec.overlap_ms,
        notes=f"synthetic generator, domain_shift={spec.domain_shift}, seed={spec.seed}",
    )
    t = manifest.window_samples
    mixing = _class_mixing(spec, rng)
    transforms = [_domain_transform(spec, rng) for _ in range(spec.n_domains)]

    trials: list[Trial] = []
    trial_id = 0
    for session in range(spec.n_domains):
        a, gain, offset, common = transforms[session]
        for k in range(spec.n_classes):
            for _ in range(spec.trials_per_cell):
                noise = _band_limited_noise(rng, c, t)
                x = mixing[k] @ noise
                x += np.outer(common, _band_limited_noise(rng, 1, t)[0])
                x = gain * (a @ x) + offset
                x = zscore(x)
                trials.append(Trial(signal=x.astype(np.float32), label=k,
                                    domain=(0, session), trial_id=trial_id))
                trial_id += 1
    return manifest, trials


# --- dataset directory store ----------------------------------------------------------

def save_dataset(path: str | Path, manifest: DatasetManifest, trials: list[Trial]) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2),
                                        encoding="utf-8")

    offset = 0
    rows = []
    with open(path / "trials.f32", "wb") as fh:
        for tr in trials:
            data = np.ascontiguousarray(tr.signal, dtype="<f4")
            fh.write(data.tobytes())
            rows.append((tr.trial_id, offset, tr.label, tr.domain[0], tr.domain[1]))
            offset += data.nbytes

    with open(path / "index.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INDEX_COLUMNS)
        writer.writerows(rows)


def _read_store_file(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _index_rows(path: Path):
    """Yield the INDEX_COLUMNS of each index.csv row as integers; a malformed
    file or row raises DataError naming the file and line."""
    try:
        reader = csv.reader(io.StringIO(_read_store_file(path).decode("utf-8"), newline=""))
        header = next(reader, [])
        missing = [k for k in INDEX_COLUMNS if k not in header]
        if missing:
            raise DataError(f"{path}: header lacks columns {missing}")
        cols = [header.index(k) for k in INDEX_COLUMNS]
        for row in reader:
            if not row:
                continue
            try:
                values = tuple(int(row[i]) for i in cols)
            except (IndexError, ValueError):
                raise DataError(f"{path} line {reader.line_num}: {row} does not hold "
                                f"integer {', '.join(INDEX_COLUMNS)}") from None
            yield values
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not a UTF-8 CSV file ({exc})") from exc


def load_dataset(path: str | Path) -> tuple[DatasetManifest, list[Trial]]:
    path = Path(path)
    manifest_path = path / "manifest.json"
    doc = _json_object(_read_store_file(manifest_path), str(manifest_path))
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unknown dataset format version {version!r} "
                        f"(expected {FORMAT_VERSION})")
    try:
        manifest = DatasetManifest(**doc)
        t, c, n_classes = manifest.window_samples, manifest.sensors, manifest.n_classes
        trial_bytes = c * t * 4
        if type(trial_bytes) is not int or trial_bytes <= 0:
            raise ValueError(f"{c} sensors x {t} samples per trial")
        domains = set(manifest.domains)
    except (TypeError, ValueError, ArithmeticError, ConfigError) as exc:
        raise DataError(f"{manifest_path} does not describe a dataset ({exc})") from exc

    blob = _read_store_file(path / "trials.f32")
    trials = []
    ids: set[int] = set()
    owner: dict[int, int] = {}  # byte offset -> trial id starting there
    for trial_id, offset, label, subject, session in _index_rows(path / "index.csv"):
        end = offset + trial_bytes
        if offset < 0 or end > len(blob):
            raise DataError(f"trials.f32 holds {len(blob)} bytes; trial {trial_id} "
                            f"needs bytes [{offset}, {end})")
        if offset % trial_bytes:
            raise DataError(f"trial {trial_id} starts at byte {offset}, not a multiple "
                            f"of the {trial_bytes}-byte trial size")
        if offset in owner:
            raise DataError(f"trials {owner[offset]} and {trial_id} share byte offset {offset}")
        if trial_id in ids:
            raise DataError(f"trial id {trial_id} appears more than once in index.csv")
        if not 0 <= label < n_classes:
            raise DataError(f"trial {trial_id} has label_id {label}, outside "
                            f"[0, {n_classes})")
        if (subject, session) not in domains:
            raise DataError(f"trial {trial_id} has domain ({subject}, {session}), which "
                            f"manifest.json does not list")
        ids.add(trial_id)
        owner[offset] = trial_id
        signal = np.frombuffer(blob[offset:end], dtype="<f4").reshape(c, t)
        trials.append(Trial(signal=signal.copy(), label=label, domain=(subject, session),
                            trial_id=trial_id))
    expected = len(trials) * trial_bytes
    if len(blob) != expected:
        raise DataError(f"trials.f32 length {len(blob)} does not match index "
                        f"({expected} bytes for {len(trials)} trials)")
    return manifest, trials
