import itertools

import numpy as np
import pytest

from tmknet import metrics
from tmknet.errors import DataError
from tmknet.metrics import (
    confusion_matrix,
    report_from_predictions,
    scores_from_confusion,
    wilcoxon_signed_rank,
)


class TestConfusionScores:
    def test_perfect_predictor(self):
        rep = report_from_predictions([0, 1, 2, 0], [0, 1, 2, 0], 3)
        assert rep.accuracy == 1.0 and rep.macro_f1 == 1.0
        cm = np.array(rep.confusion)
        assert np.array_equal(cm, np.diag(cm.diagonal()))

    def test_hand_case_two_classes(self):
        # predictions (A, A, B) against truth (A, B, B)
        rep = report_from_predictions([0, 1, 1], [0, 0, 1], 2)
        assert abs(rep.accuracy - 2 / 3) < 1e-12
        assert np.allclose(rep.f1, [2 / 3, 2 / 3])
        assert abs(rep.macro_f1 - 2 / 3) < 1e-12

    def test_all_one_class_on_balanced_four(self):
        y_true = [0, 1, 2, 3] * 5
        y_pred = [0] * 20
        rep = report_from_predictions(y_true, y_pred, 4)
        assert abs(rep.accuracy - 0.25) < 1e-12
        assert abs(rep.macro_f1 - 0.1) < 1e-12  # 0.4 for class 0, zero elsewhere

    def test_row_sums_are_support(self):
        y_true = [0, 0, 1, 2, 2, 2]
        y_pred = [0, 1, 1, 0, 2, 2]
        cm = confusion_matrix(y_true, y_pred, 3)
        assert cm.sum(axis=1).tolist() == [2, 1, 3]
        acc, *_ = scores_from_confusion(cm)
        assert acc == np.trace(cm) / cm.sum()

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 5], [0, 1], 2)


def brute_force_wilcoxon(diffs):
    """Exhaustive sign-pattern enumeration oracle."""
    diffs = np.asarray(diffs, dtype=float)
    absd = np.abs(diffs)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(len(diffs))
    i = 0
    while i < len(diffs):
        j = i
        while j + 1 < len(diffs) and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_obs = ranks[diffs > 0].sum()
    m = ranks.sum()
    extreme = 0
    n = len(diffs)
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if abs(w - m / 2) >= abs(w_obs - m / 2) - 1e-12:
            extreme += 1
    return w_obs, extreme / 2 ** n


class TestWilcoxon:
    def test_identical_inputs_error(self):
        with pytest.raises(DataError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_all_positive_five(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        w, p = wilcoxon_signed_rank(a, np.zeros(5))
        assert w == 15.0
        assert abs(p - 2 / 32) < 1e-15

    def test_mixed_signs_match_bruteforce(self):
        diffs = np.array([1.0, -2.0, 3.0, -4.0, 5.0, 6.0])
        w, p = wilcoxon_signed_rank(diffs, np.zeros(6))
        w_ref, p_ref = brute_force_wilcoxon(diffs)
        assert w == w_ref
        assert abs(p - p_ref) < 1e-12

    @pytest.mark.parametrize("n", range(5, 13))
    def test_exact_matches_enumeration_all_small_n(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            diffs = rng.normal(size=n)
            diffs[diffs == 0] = 0.5
            w, p = wilcoxon_signed_rank(diffs, np.zeros(n))
            w_ref, p_ref = brute_force_wilcoxon(diffs)
            assert w == w_ref
            assert abs(p - p_ref) < 1e-12

    def test_ties_handled_exactly(self):
        diffs = np.array([1.0, 1.0, -1.0, 2.0, 2.0, -3.0])
        w, p = wilcoxon_signed_rank(diffs, np.zeros(6))
        w_ref, p_ref = brute_force_wilcoxon(diffs)
        assert w == w_ref
        assert abs(p - p_ref) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_input_rejected(self, bad, side):
        a, b = [bad, 1.0, 2.0, 3.0, 4.0, 5.5], [0.0] * 6
        if side == "b":
            a, b = b, a
        with pytest.raises(DataError, match="finite"):
            wilcoxon_signed_rank(a, b)

    def test_too_few_pairs(self):
        with pytest.raises(DataError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])

    def test_normal_approximation_close_to_exact(self, monkeypatch):
        rng = np.random.default_rng(0)
        diffs = rng.normal(size=26) + 0.4
        w_norm, p_norm = wilcoxon_signed_rank(diffs, np.zeros(26))
        monkeypatch.setattr(metrics, "EXACT_PAIRS", 26)
        w_exact, p_exact = wilcoxon_signed_rank(diffs, np.zeros(26))
        assert w_norm == w_exact
        assert p_norm != p_exact  # 26 pairs switch to the normal path
        assert abs(p_norm - p_exact) < 0.01

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # first pair ties
        w, p = wilcoxon_signed_rank(a, b)
        w_ref, p_ref = brute_force_wilcoxon((a - b)[1:])
        assert w == w_ref and abs(p - p_ref) < 1e-12
