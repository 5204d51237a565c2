"""Per-layer tracing of tmknet from outside the package.

`Tracer.install` replaces the package's public entry points (and numpy's
symmetric eigensolvers) with timing wrappers; `uninstall` puts the originals
back. Nothing under `src/` changes. Every wrapped call is a span; a span's
self time is its duration minus the time covered by the spans it encloses,
so self times never add up to more than the wall time they were taken in.

Backward closures are charged to the layer whose forward function was on the
span stack when `Tape.record` stored them, so `stem.mrt.bwd_ms` is the time
spent replaying the ops that `stem.mrt_forward` recorded. Ops recorded
outside any layer (input reshape, loss) stay in `autodiff.backward`'s self
time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from tmknet import autodiff, backbone, data, experiment, model, optim, stem

# (owner, attribute, layer name): forward spans `<name>.fwd`, backward `<name>.bwd`
LAYERS = (
    (stem, "mrt_forward", "stem.mrt"),
    (stem, "mss_forward", "stem.mss"),
    (backbone, "cov_pool", "backbone.cov_pool"),
    (backbone, "bimap", "backbone.bimap"),
    (backbone, "reeig", "backbone.reeig"),
    (backbone, "dsbn_forward", "backbone.dsbn"),
    (backbone, "logeig", "backbone.logeig"),
    (backbone, "classify", "backbone.classify"),
)

# (owner, attribute, span name) for plain spans. `experiment` imports
# `adam_step` by name, so both references are wrapped.
SPANS = (
    (backbone.DsbnState, "update", "backbone.dsbn.update"),
    (autodiff.Tape, "backward", "autodiff.backward"),
    (optim, "adam_step", "optim.adam_step"),
    (experiment, "adam_step", "optim.adam_step"),
    (data.DomainBatchSampler, "next_batch", "data.next_batch"),
    (data, "load_dataset", "data.load_dataset"),
    (experiment, "load_checkpoint", "experiment.load_checkpoint"),
    (model.TMKNet, "predict_logits", "model.predict_logits"),
)

# `geometry` binds `sym_eig` by name and calls `np.linalg.eigvalsh` directly;
# both reach numpy through these two attributes.
EIGENSOLVERS = ("eigh", "eigvalsh")


class Tracer:
    """Span timer and counters over the wrapped functions."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, child seconds, backward name]
        self._saved: list[tuple[object, str, object]] = []

    # --- spans --------------------------------------------------------------------

    def _span(self, name: str, fn, bwd_name: str | None = None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, bwd_name]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _current_layer(self) -> str | None:
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _eigensolver(self, fn):
        timed = self._span("linalg.eigh", fn)
        counts = self.counts

        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            counts["linalg.eigh.calls"] += 1
            counts["linalg.eigh.matrices"] += int(np.prod(shape[:-2], dtype=np.int64))
            return timed(a, *args, **kwargs)

        return wrapper

    def _record(self, fn):
        counts = self.counts

        def wrapper(tape, parents, value, backward_fn):
            layer = self._current_layer()
            if layer is not None and any(p.requires_grad for p in parents):
                backward_fn = self._span(layer, backward_fn)
            out = fn(tape, parents, value, backward_fn)
            if out.requires_grad:
                counts["autodiff.tape.nodes"] += 1
            return out

        return wrapper

    # --- install / uninstall ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in LAYERS:
            self._patch(owner, attr, self._span(f"{name}.fwd", owner.__dict__[attr],
                                                bwd_name=f"{name}.bwd"))
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span(name, owner.__dict__[attr]))
        for attr in EIGENSOLVERS:
            self._patch(np.linalg, attr, self._eigensolver(np.linalg.__dict__[attr]))
        self._patch(autodiff.Tape, "record", self._record(autodiff.Tape.__dict__["record"]))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
