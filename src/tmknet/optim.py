"""Adam over named parameters of mixed geometry.

Each parameter carries a manifold tag that decides how the update respects
its constraint set:

    euclidean   standard Adam with decoupled weight decay (decay only where
                the decay flag is set: convolution and linear weights)
    stiefel     ambient moments, tangent-projected gradient, QR retraction;
                rows stay orthonormal
    spd         metric gradient P G P, first moment parallel-transported
                between steps, scalar second moment of the metric norm,
                update along the exponential map; the matrix stays SPD
    log_scalar  Adam on the stored logarithm; the decoded value stays positive
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import NumericalError
from .linalg import symmetrize

MANIFOLD_TAGS = ("euclidean", "stiefel", "spd", "log_scalar")

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator guard


@dataclass
class Param:
    value: np.ndarray
    tag: str
    decay: bool
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    step: int = field(default=0, init=False)

    def __post_init__(self):
        if self.tag not in MANIFOLD_TAGS:
            raise ValueError(f"unknown manifold tag {self.tag!r}")
        # start in C order: matmul's rounding depends on its operands' memory order
        self.value = np.asarray(self.value, dtype=np.float64, order="C")
        self.m = np.zeros_like(self.value)
        self.v = np.zeros(()) if self.tag == "spd" else np.zeros_like(self.value)


def stiefel_retract_rows(w_raw: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of w_raw by QR, sign-fixed so diag(R) > 0;
    NumericalError if R is non-finite (from non-finite or overflowing rows)
    or rank-deficient."""
    q, r = np.linalg.qr(w_raw.T)
    if not np.isfinite(r).all():
        raise NumericalError("Stiefel retraction failed: non-finite QR factor")
    if np.linalg.matrix_rank(r) < r.shape[0]:
        raise NumericalError("Stiefel retraction failed: rank loss in QR")
    sign = np.where(np.diag(r) >= 0, 1.0, -1.0)
    return (q * sign).T


def adam_step(
    params: dict[str, Param],
    grads: dict[str, np.ndarray],
    lr: float,
    weight_decay: float,
) -> None:
    """One Adam step over every parameter with a gradient in `grads`.

    Aborts (raising, mutating nothing) if any gradient is non-finite.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}; step aborted")
        if name not in params:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        if np.shape(g) != params[name].value.shape:
            raise ValueError(f"gradient shape {np.shape(g)} does not match "
                             f"parameter {name!r} shape {params[name].value.shape}")

    for name, g in grads.items():
        p = params[name]
        g = np.asarray(g, dtype=np.float64)
        p.step += 1
        bc1 = 1.0 - BETA1 ** p.step
        bc2 = 1.0 - BETA2 ** p.step

        if p.tag in ("euclidean", "log_scalar"):
            # manifold parameters and normalization scale/shift get no decay
            if p.tag == "euclidean" and p.decay and weight_decay:
                p.value *= 1.0 - lr * weight_decay
            p.m = BETA1 * p.m + (1.0 - BETA1) * g
            p.v = BETA2 * p.v + (1.0 - BETA2) * g * g
            p.value -= lr * (p.m / bc1) / (np.sqrt(p.v / bc2) + EPS)

        elif p.tag == "stiefel":
            w = p.value
            # tangent projection for row-orthonormal W: G - (1/2)(G W^T + W G^T) W
            a = g @ w.T
            gt = g - 0.5 * (a + a.T) @ w
            p.m = BETA1 * p.m + (1.0 - BETA1) * gt
            p.v = BETA2 * p.v + (1.0 - BETA2) * gt * gt
            w_raw = w - lr * (p.m / bc1) / (np.sqrt(p.v / bc2) + EPS)
            p.value = stiefel_retract_rows(w_raw)

        elif p.tag == "spd":
            point = p.value
            rgrad = point @ symmetrize(g) @ point
            p.m = BETA1 * p.m + (1.0 - BETA1) * rgrad
            inv = np.linalg.inv(point)
            sq_norm = float(np.trace(inv @ rgrad @ inv @ rgrad))
            p.v = BETA2 * p.v + (1.0 - BETA2) * sq_norm
            direction = (p.m / bc1) / (np.sqrt(p.v / bc2) + EPS)
            new_point = geometry.exp_map(point, -lr * direction)
            p.m = geometry.parallel_transport(p.m, point, new_point)
            p.value = new_point
