"""Classification metrics and the Wilcoxon signed-rank test.

The confusion matrix is the single source of truth: accuracy and per-class
precision/recall/F1 all derive from it. F1 uses the macro average; a class
that is never predicted and never true gets F1 = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import _check_field_types
from .errors import DataError

__all__ = [
    "MetricsReport",
    "confusion_matrix",
    "scores_from_confusion",
    "wilcoxon_signed_rank",
]


@dataclass
class MetricsReport:
    accuracy: float
    macro_f1: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    confusion: list[list[int]]
    loss_curve: list[float] = field(default_factory=list)
    seed: int | None = None
    config_hash: str | None = None

    def __post_init__(self):
        # values arrive from JSON (`compare` reads reports back)
        _check_field_types(self)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """(n_c, n_c) matrix; rows are true classes, columns predictions."""
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    if y_true.size and (min(y_true.min(), y_pred.min()) < 0
                        or max(y_true.max(), y_pred.max()) >= n_classes):
        raise ValueError("labels out of range")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def scores_from_confusion(cm: np.ndarray) -> tuple[float, float, list[float], list[float], list[float]]:
    """accuracy, macro-F1 and per-class precision/recall/F1 from a confusion matrix."""
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = float(np.trace(cm) / total)
    diag = np.diag(cm)
    col = cm.sum(axis=0)
    row = cm.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    return accuracy, float(f1.mean()), precision.tolist(), recall.tolist(), f1.tolist()


def report_from_predictions(y_true, y_pred, n_classes: int) -> MetricsReport:
    cm = confusion_matrix(y_true, y_pred, n_classes)
    accuracy, macro_f1, precision, recall, f1 = scores_from_confusion(cm)
    return MetricsReport(accuracy=accuracy, macro_f1=macro_f1, precision=precision,
                         recall=recall, f1=f1, confusion=cm.tolist())


# --- Wilcoxon signed-rank test -------------------------------------------------------

EXACT_PAIRS = 25  # most non-zero pairs whose p-value enumerates the null exactly


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`, each tie group given the mean of its ranks."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def _exact_two_sided_p(ranks2: np.ndarray, w2: int) -> float:
    """P(|W - M/2| >= |w - M/2|) under random signs, via subset-sum counts.

    ranks2 are the doubled ranks (integers even with midrank ties); w2 is the
    doubled observed statistic.
    """
    total = int(ranks2.sum())
    counts = np.zeros(total + 1, dtype=object)
    counts[0] = 1
    for r in ranks2:
        r = int(r)
        counts[r:] = counts[r:] + counts[:-r]
    hi = max(w2, total - w2)
    lo = min(w2, total - w2)
    extreme = int(counts[hi:].sum() + counts[: lo + 1].sum())
    return extreme / float(2 ** len(ranks2))


def _normal_two_sided_p(ranks: np.ndarray, w: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    sigma = math.sqrt(float(np.sum(ranks ** 2)) / 4.0)  # midranks fold in ties
    delta = w - mean
    z = (delta - 0.5 * np.sign(delta)) / sigma if delta != 0 else 0.0
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Paired Wilcoxon signed-rank test.

    Returns (W, p) where W is the sum of the ranks of positive differences
    a - b and p is two-sided. DataError for a non-finite value. Zero
    differences are dropped; at least 5 pairs must remain. Up to EXACT_PAIRS
    pairs the p-value enumerates the sign-flip null exactly; beyond that a
    normal approximation with midrank tie correction and continuity
    correction is used.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("wilcoxon_signed_rank expects two equal-length 1-D arrays")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("wilcoxon_signed_rank needs finite values")
    d = a - b
    d = d[d != 0.0]
    if d.size == 0:
        raise DataError("all paired differences are zero")
    if d.size < 5:
        raise DataError(f"need at least 5 non-zero differences, got {d.size}")
    ranks = _average_ranks(np.abs(d))
    w = float(ranks[d > 0].sum())
    if d.size <= EXACT_PAIRS:
        ranks2 = np.round(2.0 * ranks).astype(np.int64)
        p = _exact_two_sided_p(ranks2, int(round(2.0 * w)))
    else:
        p = _normal_two_sided_p(ranks, w)
    return w, min(1.0, p)
