"""The benchmark's three closed-loop workloads.

Each workload makes its inputs from the seed, writes them where the package
reads them (a dataset directory, a checkpoint), times the package's public
entry points with tracing off, and checks the outputs. With `trace=True` it
first runs the same loop untraced for half the time budget, then traced for
the other half, so the tracing overhead is measured in the same process.

Units of work, whose count normalizes the per-layer numbers:
  train_paper    one training step
  session_paper  one target trial (adapted, decoded at batch 1, scored)
  uda_desk       one training step inside `run_uda`

Each workload's `end_loop` returns its two loop metrics for the result line,
`trials_per_s` and `latency_ms`, and its detail metrics for the record line;
`Workload.run` adds `setup_s` and `peak_rss_mb`.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tmknet import data, experiment, optim
from tmknet.data import DomainBatchSampler, SynthSpec
from tmknet.errors import TmknetError
from tmknet.experiment import RunConfig, domain_key
from tmknet.model import TMKNet

from layers import LAYERS, Tracer

SETUP_REPEATS = (16, 15)  # before the loop, after it: 31, so the median is one set-up
WARMUP_STEPS = 2
ORTHONORMAL_TOL = 1e-10
LOGIT_TOL = 1e-12
TAIL_BEYOND = 10

# original solver, for checks that must not show up in the trace
_eigvalsh = np.linalg.eigvalsh


@dataclass(frozen=True)
class Scale:
    """Input shapes of the three workloads. The desk spec and config are the
    acceptance suite's; `uda_acc` holds the recorded target accuracy of
    `run_uda` for each config seed the benchmark seed maps to."""

    paper_spec: dict
    paper_cfg: dict
    desk_spec: SynthSpec
    desk_cfg: dict
    uda_acc: dict


FULL = Scale(
    # 8 sensors x 128 samples at 512 Hz, 5 source sessions + 1 target session
    paper_spec=dict(n_classes=4, sensors=8, n_domains=6, trials_per_cell=64, fs=512.0),
    paper_cfg=dict(target_session=5, n_t=64, n_s=40, n_b=30,
                   batch_size=50, domains_per_batch=5),
    desk_spec=SynthSpec(n_classes=4, sensors=8, n_domains=4, trials_per_cell=50,
                        fs=256.0, domain_shift=1.4, seed=7),
    desk_cfg=dict(subject=0, target_session=3, epochs=25, n_t=6, n_s=10, n_b=6,
                  r_data=0.25, batch_size=32, domains_per_batch=3),
    uda_acc={1: 0.955, 2: 0.945, 3: 0.915, 4: 0.94, 5: 0.94, 6: 0.93, 7: 0.96,
             8: 0.965, 9: 0.935, 10: 0.94},
)

TINY = Scale(
    paper_spec=dict(n_classes=3, sensors=8, n_domains=3, trials_per_cell=6, fs=256.0),
    paper_cfg=dict(target_session=2, n_t=3, n_s=4, n_b=3, r_data=0.25,
                   batch_size=8, domains_per_batch=2),
    desk_spec=SynthSpec(n_classes=3, sensors=8, n_domains=3, trials_per_cell=6,
                        fs=256.0, domain_shift=1.4, seed=7),
    desk_cfg=dict(subject=0, target_session=2, epochs=2, n_t=3, n_s=4, n_b=3,
                  r_data=0.25, batch_size=8, domains_per_batch=2),
    uda_acc={1: 0.3888888888888889, 2: 0.4444444444444444},
)


@dataclass
class Outcome:
    """What one run measured: detail metrics (name -> (value, unit)),
    end-to-end metrics for the result line, per-layer metrics (traced runs
    only) and check counts."""

    detail: dict = field(default_factory=dict)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    unit_walls: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


# --- helpers --------------------------------------------------------------------------

def timed_loop(budget_s: float, unit) -> tuple[list[float], float]:
    """Closed loop: start units of work until the budget is spent, at least
    one; returns each unit's wall time and the loop's wall time."""
    walls: list[float] = []
    start = t1 = time.perf_counter()
    while not walls or t1 - start < budget_s:
        t0 = time.perf_counter()
        unit()
        t1 = time.perf_counter()
        walls.append(t1 - t0)
    return walls, t1 - start


def timed_setup(setup, repeats: int) -> tuple[list[float], object]:
    """Run `setup` `repeats` times; returns the times and the last result.
    Each run starts from a collected heap, so the collector's work inside it
    is the set-up's own and not what earlier code left behind."""
    times, result = [], None
    for _ in range(repeats):
        result = None
        gc.collect()
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return times, result


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and its
    value; None when there are too few samples."""
    xs = sorted(samples)
    i = len(xs) - TAIL_BEYOND - 1
    if i < 0:
        return None
    return 100.0 * (i + 1) / len(xs), xs[i]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def is_spd(m: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(m)) and np.allclose(m, m.T, rtol=0, atol=1e-12)
                and _eigvalsh(m).min() > 0)


def layer_metrics(tr: Tracer, setup_tr: Tracer, units: int, wall_s: float,
                  overhead_pct: float) -> dict:
    """Per-layer metrics: times in ms and counts per unit of work; the two
    load functions in ms per call, from the traced set-up."""
    def ms(name):
        return 1000.0 * tr.self_s.get(name, 0.0) / units

    def per_call_ms(name):
        n = setup_tr.calls.get(name, 0)
        return 1000.0 * setup_tr.self_s.get(name, 0.0) / n if n else 0.0

    out = {}
    for _, _, name in LAYERS:
        out[f"{name}.fwd_ms"] = ms(f"{name}.fwd")
        out[f"{name}.bwd_ms"] = ms(f"{name}.bwd")
    out.update({
        "backbone.dsbn.update_calls": tr.calls.get("backbone.dsbn.update", 0) / units,
        "backbone.dsbn.update_ms": ms("backbone.dsbn.update"),
        "linalg.eigh.calls": tr.counts.get("linalg.eigh.calls", 0) / units,
        "linalg.eigh.matrices": tr.counts.get("linalg.eigh.matrices", 0) / units,
        "linalg.eigh.ms": ms("linalg.eigh"),
        "autodiff.tape.nodes": tr.counts.get("autodiff.tape.nodes", 0) / units,
        "autodiff.backward_ms": ms("autodiff.backward"),
        "optim.adam_step.ms": ms("optim.adam_step"),
        "data.next_batch.ms": ms("data.next_batch"),
        "data.load_dataset.ms": per_call_ms("data.load_dataset"),
        "experiment.load_checkpoint.ms": per_call_ms("experiment.load_checkpoint"),
        "model.predict_logits.ms": ms("model.predict_logits"),
        "trace.coverage_pct": 100.0 * tr.total_self_s() / wall_s,
        "trace.overhead_pct": overhead_pct,
    })
    return out


class Workload:
    """Set-up timing, the closed loop, the untraced/traced split and the
    result. Subclasses define:

      prepare()            make the inputs from the seed (not timed)
      setup()              the user's set-up; timed SETUP_REPEATS times, some
                           before the loop and some after it, so that the
                           median samples the machine's speed at both ends
      start(state)         take a set-up result, reset the loop's tallies
      unit()               one unit of work, checking its outputs
      units                units done since `start`
      end_loop(walls)      final checks; the loop's `trials_per_s` and
                           `latency_ms`, and its detail metrics
    """

    name = ""

    def __init__(self, seed: int, seconds: float, workdir: Path, scale: Scale):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.scale = scale
        self.out = Outcome()

    def run(self, trace: bool) -> Outcome:
        out = self.out
        self.prepare()
        setup_times, state = timed_setup(self.setup, SETUP_REPEATS[0])
        budget = self.seconds / 2 if trace else self.seconds
        self.start(state)
        walls, _ = timed_loop(budget, self.unit)
        loop_metrics, detail = self.end_loop(walls)
        out.unit_walls = walls
        if trace:
            with Tracer() as setup_tr:
                state = self.setup()
            self.start(state)
            with Tracer() as tr:
                traced, wall_s = timed_loop(budget, self.unit)
            self.end_loop(traced)  # for its checks; metrics come from the untraced loop
            base = statistics.median(walls)
            out.per_layer = layer_metrics(
                tr, setup_tr, self.units, wall_s,
                100.0 * (statistics.median(traced) - base) / base)
        setup_times += timed_setup(self.setup, SETUP_REPEATS[1])[0]
        out.end_to_end = {"setup_s": statistics.median(setup_times),
                          "peak_rss_mb": peak_rss_mb(), **loop_metrics}
        out.detail = {"setup_s": (out.end_to_end["setup_s"], "s"),
                      "peak_rss_mb": (out.end_to_end["peak_rss_mb"], "MB"),
                      "failed_frac": (out.failed / out.attempted, "fraction"), **detail}
        return out

    def paper_inputs(self):
        """Paper-shape dataset from the seed, saved where `load_dataset` reads it."""
        cfg = RunConfig(seed=self.seed, **self.scale.paper_cfg)
        manifest, trials = data.synth_generate(SynthSpec(seed=self.seed,
                                                         **self.scale.paper_spec))
        path = self.workdir / "paper_data"
        data.save_dataset(path, manifest, trials)
        return cfg, manifest, trials, path


def source_sampler(cfg: RunConfig, manifest, trials) -> DomainBatchSampler:
    plan = data.leave_one_session_out(manifest, cfg.subject, cfg.target_session)
    sources = [t for t in trials if t.domain in plan.sources]
    return DomainBatchSampler(sources, cfg.batch_size, cfg.domains_per_batch,
                              np.random.default_rng(cfg.seed))


def new_model(cfg: RunConfig, manifest) -> TMKNet:
    plan = data.leave_one_session_out(manifest, cfg.subject, cfg.target_session)
    model = TMKNet(experiment.build_model_config(manifest, cfg), seed=cfg.seed)
    model.register_domains([domain_key(d) for d in plan.sources], [domain_key(plan.target)])
    return model


# --- train_paper ----------------------------------------------------------------------

class TrainPaper(Workload):
    """Training steps at paper shape: sampler -> loss_and_grads -> adam_step."""

    name = "train_paper"

    def prepare(self):
        self.cfg, _, _, self.data_dir = self.paper_inputs()

    def setup(self):
        manifest, trials = data.load_dataset(self.data_dir)
        return new_model(self.cfg, manifest), source_sampler(self.cfg, manifest, trials)

    def start(self, state):
        self.model, self.sampler = state
        self.units = self.trials = 0
        for _ in range(WARMUP_STEPS):  # first-call allocations are not the steady state
            self.unit()
        self.units = self.trials = 0

    def unit(self):
        x, y, doms = self.sampler.next_batch()
        try:
            loss, grads = self.model.loss_and_grads(x, y, [domain_key(d) for d in doms])
            optim.adam_step(self.model.params, grads, lr=self.cfg.lr,
                            weight_decay=self.cfg.weight_decay)
        except TmknetError as exc:
            self.out.check(False, f"step {self.units}: {exc}")
        else:
            finite = np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())
            self.out.check(bool(finite), f"step {self.units}: non-finite loss or gradient")
        # A step's tape and its Variables reference each other, so about 1 GB
        # per paper-shape step waits for the cyclic collector; without this the
        # process grows past 6 GB in eight steps. Reclaiming it is part of the
        # step's cost, as it would be if the cycle were broken in the package.
        gc.collect()
        self.units += 1
        self.trials += len(y)

    def end_loop(self, walls):
        w = self.model.params["bimap.weight"].value
        err = float(np.abs(w @ w.T - np.eye(w.shape[0])).max())
        self.out.check(err <= ORTHONORMAL_TOL, f"bimap.weight orthonormality error {err:.2e}")
        trials_per_s, p50_s = self.trials / sum(walls), statistics.median(walls)
        return ({"trials_per_s": trials_per_s, "latency_ms": 1000.0 * p50_s},
                {"train_trials_per_s": (trials_per_s, "1/s"),
                 "train_step_p50_s": (p50_s, "s")})


# --- session_paper --------------------------------------------------------------------

class SessionPaper(Workload):
    """A new session at paper shape: load, adapt, decode at batch 1, score."""

    name = "session_paper"
    adapt_batch = 50

    def prepare(self):
        cfg, manifest, trials, self.data_dir = self.paper_inputs()
        model = new_model(cfg, manifest)
        x, _, doms = source_sampler(cfg, manifest, trials).next_batch()
        model.prime_stats(x, [domain_key(d) for d in doms])
        self.checkpoint = self.workdir / "paper.tmk"
        experiment.save_checkpoint(self.checkpoint, model, cfg, manifest)

    def setup(self):
        manifest, trials = data.load_dataset(self.data_dir)
        model, cfg, _ = experiment.load_checkpoint(self.checkpoint)
        return manifest, trials, model, cfg

    def start(self, state):
        self.manifest, trials, self.model, cfg = state
        self.target = data.leave_one_session_out(
            self.manifest, cfg.subject, cfg.target_session).target
        self.trials = [t for t in trials if t.domain == self.target]
        self.signals = np.stack([t.signal for t in self.trials]).astype(np.float64)
        self.labels = np.array([t.label for t in self.trials])
        self.state0 = {k: v.copy() for k, v in self.model.state_arrays().items()}
        self.kinds = self.model.dsbn_domain_kinds()
        self.units = 0
        self.adapt_s = self.decode_s = self.score_s = 0.0
        self.latencies: list[float] = []

    def unit(self):
        model, key = self.model, domain_key(self.target)
        model.load_state_arrays(self.state0, self.kinds)  # a fresh session each time

        t0 = time.perf_counter()
        experiment.adapt(model, self.signals, self.target, batch_size=self.adapt_batch)
        self.adapt_s += time.perf_counter() - t0
        g_run = model.dsbn.domains[key].g_run
        self.out.check(is_spd(g_run), "adapted g_run is not SPD and finite")

        rows = []
        t_decode = time.perf_counter()
        for i in range(len(self.signals)):
            t0 = time.perf_counter()
            rows.append(model.predict_logits(self.signals[i:i + 1], [key])[0])
            self.latencies.append(time.perf_counter() - t0)
        self.decode_s += time.perf_counter() - t_decode

        chunks = []
        predict = model.predict_logits

        def keep(x, ids, capture=None):
            logits = predict(x, ids, capture)
            chunks.append(logits)
            return logits

        model.predict_logits = keep  # sees the logits evaluate() scores
        try:
            t0 = time.perf_counter()
            report = experiment.evaluate(model, self.trials, self.manifest)
            self.score_s += time.perf_counter() - t0
        finally:
            del model.predict_logits

        b256 = np.concatenate(chunks)
        b1 = np.stack(rows)
        for i, (r1, r256) in enumerate(zip(b1, b256)):
            self.out.check(np.abs(r1 - r256).max() <= LOGIT_TOL
                           and np.argmax(r1) == np.argmax(r256),
                           f"trial {i}: batch-1 logits differ from batch-256 logits")
        acc = float(np.mean(np.argmax(b256, axis=1) == self.labels))
        self.out.check(report.accuracy == acc, "evaluate accuracy disagrees with its logits")
        self.units += len(self.trials)

    def end_loop(self, walls):
        ms = [1000.0 * s for s in self.latencies]
        pct, tail_ms = tail(ms) or (100.0, max(ms))
        session = self.units / (self.adapt_s + self.decode_s + self.score_s)
        mean_ms = statistics.fmean(ms)
        return ({"trials_per_s": session, "latency_ms": mean_ms}, {
            "session_trials_per_s": (session, "1/s"),
            "adapt_trials_per_s": (self.units / self.adapt_s, "1/s"),
            "decode_b1_mean_ms": (mean_ms, "ms"),
            "decode_b1_p50_ms": (statistics.median(ms), "ms"),
            "decode_b1_tail_ms": (tail_ms, "ms"),
            "decode_b1_tail_pct": (pct, "%"),
            "decode_b1_samples": (len(ms), "count"),
            "score_b256_trials_per_s": (self.units / self.score_s, "1/s"),
        })


# --- uda_desk -------------------------------------------------------------------------

class UdaDesk(Workload):
    """One `run_uda` with the acceptance suite's desk spec and config.

    `TMKNet.loss_and_grads` is timed while `run_uda` runs (two clock reads
    per training step), which gives the training-step latency and the exact
    number of trials trained on."""

    name = "uda_desk"

    def prepare(self):
        recorded = sorted(self.scale.uda_acc)
        self.cfg = RunConfig(seed=recorded[(self.seed - 1) % len(recorded)],
                             **self.scale.desk_cfg)
        manifest, trials = data.synth_generate(self.scale.desk_spec)
        self.data_dir = self.workdir / "desk_data"
        data.save_dataset(self.data_dir, manifest, trials)

    def setup(self):
        return data.load_dataset(self.data_dir)

    def start(self, state):
        self.manifest, self.trials = state
        self.units = self.trained = 0
        self.steps: list[float] = []
        self.acc = None

    def unit(self):
        loss_and_grads = TMKNet.__dict__["loss_and_grads"]
        steps, batches = [], []

        def timed(model, x, labels, domain_ids):
            t0 = time.perf_counter()
            try:
                return loss_and_grads(model, x, labels, domain_ids)
            finally:
                steps.append(time.perf_counter() - t0)
                batches.append(len(labels))

        TMKNet.loss_and_grads = timed
        try:
            _, val_report, target_report = experiment.run_uda(
                self.cfg, self.manifest, self.trials)
        finally:
            TMKNet.loss_and_grads = loss_and_grads
        self.acc = target_report.accuracy
        expected = self.scale.uda_acc[self.cfg.seed]
        self.out.check(self.acc == expected,
                       f"config seed {self.cfg.seed}: target accuracy {self.acc!r}, "
                       f"recorded {expected!r}")
        self.out.check(len(steps) == len(val_report.loss_curve),
                       f"{len(steps)} timed steps, {len(val_report.loss_curve)} losses")
        self.steps += steps
        self.trained += sum(batches)
        self.units += len(steps)

    def end_loop(self, walls):
        wall_s = statistics.fmean(walls)
        trials_per_s = self.trained / sum(walls)
        step_ms = 1000.0 * statistics.median(self.steps)
        return ({"trials_per_s": trials_per_s, "latency_ms": step_ms}, {
            "uda_wall_s": (wall_s, "s"),
            "uda_target_acc": (self.acc, "fraction"),
            "uda_train_trials_per_s": (trials_per_s, "1/s"),
            "uda_step_p50_ms": (step_ms, "ms"),
        })


WORKLOADS = {w.name: w for w in (TrainPaper, SessionPaper, UdaDesk)}
