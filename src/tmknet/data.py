"""Dataset handling: manifest and trial store, preprocessing (windowing,
Hampel filter, z-score), domain-balanced batch sampling, leave-one-session-out
splits, and a synthetic domain-shifted sEMG generator for desk-scale work.

Dataset directory format (format_version 1):
    manifest.json   UTF-8 JSON with the DatasetManifest fields
    trials.f32      little-endian float32, concatenated c x t row-major trials
    index.csv       trial_id, byte_offset, label_id, subject, session
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

FORMAT_VERSION = 1


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
        if not self.window_ms > self.overlap_ms > 0:
            raise ConfigError(
                f"need window_ms > overlap_ms > 0, got {self.window_ms}, {self.overlap_ms}"
            )
        for ids in (self.flexor_ids, self.extensor_ids, self.proximal_ids, self.distal_ids):
            if any(not 0 <= i < self.sensors for i in ids):
                raise ConfigError("muscle-group indices must lie in [0, sensors)")
        self.domains = [tuple(d) for d in self.domains]

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


# --- preprocessing ----------------------------------------------------------------

def window(signal: np.ndarray, fs: float, window_ms: float,
           overlap_ms: float) -> list[np.ndarray]:
    """Slice a (c, T) stream into overlapping windows.

    hop = window - overlap in samples; yields floor((T - w)/hop) + 1 segments,
    each an independent copy.
    """
    signal = np.asarray(signal)
    if signal.ndim != 2:
        raise DataError(f"expected a (c, T) stream, got shape {signal.shape}")
    w = round(window_ms * fs / 1000.0)
    overlap = round(overlap_ms * fs / 1000.0)
    if not w > overlap > 0:
        raise ConfigError(f"need window > overlap > 0 samples, got {w}, {overlap}")
    t_total = signal.shape[1]
    if t_total < w:
        raise DataError(f"stream of {t_total} samples is shorter than one window ({w})")
    hop = w - overlap
    count = (t_total - w) // hop + 1
    return [signal[:, i * hop: i * hop + w].copy() for i in range(count)]


def hampel(x: np.ndarray, half_window: int, n_sigma: float = 3.0) -> np.ndarray:
    """Sliding median/MAD outlier replacement on a 1-D series.

    For each index the window [i-hw, i+hw] (clipped at the edges) provides a
    median m and robust scale 1.4826 * median|x - m|; samples further than
    n_sigma * scale from m are replaced by m.
    """
    if half_window < 1:
        raise ConfigError("half_window must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    t = x.size
    out = x.copy()
    if t == 0:
        return out
    med = np.empty(t)
    mad = np.empty(t)
    interior = t - 2 * half_window
    if interior > 0:
        win = np.lib.stride_tricks.sliding_window_view(x, 2 * half_window + 1)
        m_in = np.median(win, axis=1)
        med[half_window: half_window + interior] = m_in
        mad[half_window: half_window + interior] = np.median(
            np.abs(win - m_in[:, None]), axis=1
        )
    edges = [i for i in range(t) if i < half_window or i >= t - half_window or interior <= 0]
    for i in edges:
        lo, hi = max(0, i - half_window), min(t, i + half_window + 1)
        seg = x[lo:hi]
        m = np.median(seg)
        med[i] = m
        mad[i] = np.median(np.abs(seg - m))
    scale = 1.4826 * mad
    mask = np.abs(x - med) > n_sigma * scale
    out[mask] = med[mask]
    return out


def default_hampel_half_window(fs: float) -> int:
    # ~10 ms neighbourhood: half a 50 Hz period at common sampling rates
    return max(1, round(fs / 100.0))


def zscore(signal: np.ndarray) -> np.ndarray:
    """Per-channel standardization over the trial (population divisor).

    Channels with variance below 1e-8 use the floor, mapping constants to 0.
    """
    signal = np.asarray(signal, dtype=np.float64)
    mean = signal.mean(axis=-1, keepdims=True)
    var = signal.var(axis=-1, keepdims=True)
    return (signal - mean) / np.sqrt(np.maximum(var, 1e-8))


def preprocess_stream(signal: np.ndarray, manifest: DatasetManifest,
                      n_sigma: float = 3.0) -> list[np.ndarray]:
    """window -> hampel (per channel) -> z-score, in that order."""
    hw = default_hampel_half_window(manifest.fs)
    segments = window(signal, manifest.fs, manifest.window_ms, manifest.overlap_ms)
    out = []
    for seg in segments:
        filt = np.stack([hampel(seg[ch], hw, n_sigma) for ch in range(seg.shape[0])])
        out.append(zscore(filt).astype(np.float32))
    return out


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
        if self.sensors % 2 != 0:
            raise ConfigError("synthetic generator needs an even sensor count")
        if min(self.n_classes, self.n_domains, self.trials_per_cell) < 1:
            raise ConfigError("classes, domains and trials_per_cell must be positive")


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


def _band_limited_noise(rng: np.random.Generator, c: int, t: int, fs: float) -> np.ndarray:
    white = rng.normal(size=(c, t + 8))
    kernel = np.hanning(9)
    kernel /= kernel.sum()
    smooth = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="valid"), 1, white)
    return smooth[:, :t]


def synth_generate(spec: SynthSpec) -> tuple[DatasetManifest, list[Trial]]:
    """Generate a domain-shifted synthetic sEMG-like dataset.

    Each class colors band-limited noise with a latent SPD spatial
    coactivation pattern built over flexor/extensor blocks; each domain
    (session) applies a fixed random congruence with condition number <= 3
    plus per-channel gain/offset, simulating electrode shift and session
    drift. Trials are stored z-scored, matching the tail of the production
    preprocessing pipeline, so class and domain information live in the
    cross-channel correlation structure. Bit-reproducible from (spec, seed);
    labels are balanced.
    """
    rng = np.random.default_rng(spec.seed)
    c = spec.sensors
    half = c // 2
    manifest = DatasetManifest(
        name=f"synthetic-{spec.seed}",
        fs=spec.fs,
        sensors=c,
        class_names=[f"gesture{k}" for k in range(spec.n_classes)],
        domains=[(0, s) for s in range(spec.n_domains)],
        flexor_ids=list(range(half)),
        extensor_ids=list(range(half, c)),
        proximal_ids=list(range(0, c, 2)),
        distal_ids=list(range(1, c, 2)),
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
                noise = _band_limited_noise(rng, c, t, spec.fs)
                x = mixing[k] @ noise
                x += np.outer(common, _band_limited_noise(rng, 1, t, spec.fs)[0])
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
    doc = asdict(manifest)
    doc["domains"] = [list(d) for d in manifest.domains]
    (path / "manifest.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")

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
        writer.writerow(["trial_id", "byte_offset", "label_id", "subject", "session"])
        writer.writerows(rows)


def load_dataset(path: str | Path) -> tuple[DatasetManifest, list[Trial]]:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {path}")
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt manifest.json: {exc}") from exc
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unknown dataset format version {version!r} "
                        f"(expected {FORMAT_VERSION})")
    try:
        manifest = DatasetManifest(**doc)
    except TypeError as exc:
        raise DataError(f"manifest.json is missing fields: {exc}") from exc

    blob = (path / "trials.f32").read_bytes()
    t = manifest.window_samples
    c = manifest.sensors
    trial_bytes = c * t * 4

    trials = []
    with open(path / "index.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            offset = int(row["byte_offset"])
            end = offset + trial_bytes
            if end > len(blob):
                raise DataError(
                    f"trials.f32 truncated: trial {row['trial_id']} needs bytes "
                    f"[{offset}, {end}) of {len(blob)}"
                )
            label = int(row["label_id"])
            if not 0 <= label < manifest.n_classes:
                raise DataError(f"trial {row['trial_id']} has label_id {label}, outside "
                                f"[0, {manifest.n_classes})")
            signal = np.frombuffer(blob[offset:end], dtype="<f4").reshape(c, t)
            trials.append(Trial(
                signal=signal.copy(),
                label=label,
                domain=(int(row["subject"]), int(row["session"])),
                trial_id=int(row["trial_id"]),
            ))
    expected = len(trials) * trial_bytes
    if len(blob) != expected:
        raise DataError(f"trials.f32 length {len(blob)} does not match index "
                        f"({expected} bytes for {len(trials)} trials)")
    return manifest, trials
