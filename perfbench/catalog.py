"""What each per-layer metric is expected to move.

`BENCHMARK.json` holds the names and units of every metric; this table adds,
for each per-layer metric, the end-to-end metrics and workloads (as
`workload/detail metric`, see README.md) that a change in it should show in.
Later changes name their claims by these names.
"""

_STEM = "train_paper/train_trials_per_s, session_paper/score_b256_trials_per_s " \
        "(less: session_paper/decode_b1_p50_ms)"
_BACKBONE = "uda_desk/uda_wall_s, session_paper/adapt_trials_per_s, " \
            "session_paper/decode_b1_p50_ms (barely: train_paper)"
_LINALG = "uda_desk/uda_wall_s, session_paper/adapt_trials_per_s"
_AUTODIFF = "train_paper/train_trials_per_s, uda_desk/uda_wall_s (zero on session_paper)"
_SETUP = "setup_s on every workload, uda_desk/uda_wall_s"


def _layer(name):
    moves = _STEM if name.startswith("stem.") else _BACKBONE
    return {f"{name}.fwd_ms": moves, f"{name}.bwd_ms": moves}


# per-layer metric -> the end-to-end metrics it should move
MOVES = {
    **_layer("stem.mrt"),
    **_layer("stem.mss"),
    **_layer("backbone.cov_pool"),
    **_layer("backbone.bimap"),
    **_layer("backbone.reeig"),
    **_layer("backbone.dsbn"),
    **_layer("backbone.logeig"),
    **_layer("backbone.classify"),
    "backbone.dsbn.update_calls": _BACKBONE,
    "backbone.dsbn.update_ms": _BACKBONE,
    "linalg.eigh.calls": _LINALG,
    "linalg.eigh.matrices": _LINALG,
    "linalg.eigh.ms": _LINALG,
    "autodiff.tape.nodes": _AUTODIFF,
    "autodiff.backward_ms": _AUTODIFF,
    "optim.adam_step.ms": "uda_desk/uda_wall_s",
    "data.next_batch.ms": _SETUP,
    "data.load_dataset.ms": _SETUP,
    "experiment.load_checkpoint.ms": _SETUP,
    "model.predict_logits.ms": _SETUP,
    "trace.coverage_pct": "none: share of traced wall time in layer self times",
    "trace.overhead_pct": "none: traced minus untraced unit wall time",
}
