import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofusion.metrics import ConfusionCounts, auprc, confusion, fpr, mcc, supplementary_metrics


def loop_confusion(scores, labels, thr):
    tp = tn = fp = fn = 0
    for s, y in zip(scores, labels):
        if s >= thr:
            if y == 1:
                tp += 1
            else:
                fp += 1
        else:
            if y == 1:
                fn += 1
            else:
                tn += 1
    return ConfusionCounts(tp, tn, fp, fn)


def pr_curve_auprc(scores, labels):
    """All-thresholds oracle: step-integrate precision over recall at
    every distinct score threshold (descending)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores), reverse=True):
        pred = scores >= thr
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestConfusion:
    def test_basic(self):
        c = confusion([0.9, 0.2], [1, 0], 0.5)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_all_below_threshold(self):
        c = confusion([0.1, 0.2, 0.3], [1, 0, 1], 0.5)
        assert c.tp == 0 and c.fp == 0

    def test_threshold_is_inclusive(self):
        c = confusion([0.5], [0], 0.5)
        assert c.fp == 1

    def test_matches_loop_oracle(self, rng):
        for _ in range(30):
            scores = rng.random(50)
            labels = rng.integers(0, 2, 50)
            thr = float(rng.random())
            assert confusion(scores, labels, thr) == loop_confusion(scores, labels, thr)

    def test_counts_partition_input(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 80))
            c = confusion(rng.random(n), rng.integers(0, 2, n), 0.4)
            assert c.total == n

    def test_errors(self):
        with pytest.raises(ValueError):
            confusion([0.5], [1, 0], 0.5)
        with pytest.raises(ValueError):
            confusion([0.5], [2], 0.5)


class TestLabelCheck:
    METRICS = {
        "auprc": auprc,
        "confusion": lambda scores, labels: confusion(scores, labels, 0.5),
    }

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan])
    def test_rejects_non_binary(self, metric, bad):
        labels = np.array([1, 0, 0, bad])
        with pytest.raises(ValueError, match="labels must be 0/1"):
            self.METRICS[metric]([0.9, 0.2, 0.6, 0.4], labels)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
    def test_accepts_binary_dtypes(self, metric, dtype):
        scores = [0.9, 0.2, 0.6, 0.4, 0.7]
        labels = [1, 0, 0, 1, 1]
        expected = self.METRICS[metric](scores, np.array(labels, dtype=np.int64))
        assert self.METRICS[metric](scores, np.array(labels, dtype=dtype)) == expected


class TestMcc:
    def test_perfect(self):
        assert mcc(ConfusionCounts(5, 5, 0, 0)) == 1.0

    def test_inverted(self):
        assert mcc(ConfusionCounts(0, 0, 5, 5)) == -1.0

    def test_hand_value(self):
        assert mcc(ConfusionCounts(1, 2, 1, 1)) == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_denominator(self):
        assert mcc(ConfusionCounts(0, 3, 0, 2)) == 0.0

    def test_flip_symmetry(self, rng):
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, 4))
            a = mcc(ConfusionCounts(tp, tn, fp, fn))
            b = mcc(ConfusionCounts(tn, tp, fn, fp))
            assert a == pytest.approx(b, abs=1e-12)
            assert -1.0 <= a <= 1.0


class TestFpr:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            (ConfusionCounts(0, 3, 1, 0), 0.25),
            (ConfusionCounts(2, 5, 0, 1), 0.0),
            (ConfusionCounts(0, 3, 7, 0), 0.7),
            (ConfusionCounts(4, 0, 0, 2), 0.0),
        ],
    )
    def test_values(self, counts, expected):
        assert fpr(counts) == pytest.approx(expected)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_hand_case(self):
        assert auprc([0.9, 0.8, 0.7], [0, 1, 0]) == pytest.approx(0.5)

    def test_matches_threshold_oracle(self, rng):
        for _ in range(100):
            scores = rng.random(100)
            labels = rng.integers(0, 2, 100)
            if labels.sum() == 0:
                labels[0] = 1
            assert auprc(scores, labels) == pytest.approx(pr_curve_auprc(scores, labels), abs=1e-9)

    def test_pessimistic_ties(self):
        # tied block ranks its negative first: precisions 1/2 and 2/3
        assert auprc([0.5, 0.5, 0.5], [1, 1, 0]) == pytest.approx((1 / 2 + 2 / 3) / 2)

    def test_monotone_transform_invariance(self, rng):
        for _ in range(30):
            scores = rng.random(60)
            labels = rng.integers(0, 2, 60)
            labels[0] = 1
            base = auprc(scores, labels)
            assert auprc(3.0 * scores - 1.0, labels) == pytest.approx(base, abs=1e-12)
            assert auprc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_requires_positives(self):
        with pytest.raises(ValueError):
            auprc([0.4, 0.6], [0, 0])

    def test_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            labels[int(rng.integers(n))] = 1
            v = auprc(rng.random(n), labels)
            assert 0.0 < v <= 1.0


@st.composite
def score_stacks(draw):
    """A (B, m) stack of scores and m shared 0/1 labels with at least one
    positive. Scores come from a few values, so rows hold ties; some rows
    are tied throughout."""
    size = draw(st.integers(1, 6))
    m = draw(st.integers(1, 30))
    positives = draw(st.integers(1, m))
    order = draw(st.permutations(range(m)))
    labels = np.zeros(m, dtype=np.int64)
    labels[list(order[:positives])] = 1
    levels = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 0.3333333333333333])
    rows = []
    for _ in range(size):
        if draw(st.booleans()):
            rows.append([draw(levels)] * m)
        else:
            rows.append(draw(st.lists(levels, min_size=m, max_size=m)))
    return np.array(rows), labels


class TestStackedMetrics:
    """AUPRC and FPR of a (B, m) stack are those of each row alone, bit for
    bit, and a 1-D call is the one-row stack."""

    @settings(max_examples=200, deadline=None)
    @given(case=score_stacks(), threshold=st.sampled_from([0.0, 0.5, 0.75, 1.5]))
    def test_rows_match_single_calls(self, case, threshold):
        scores, labels = case
        rows_auprc = [auprc(row, labels) for row in scores]
        rows_fpr = [fpr(confusion(row, labels, threshold)) for row in scores]
        assert all(type(v) is float for v in rows_auprc + rows_fpr)
        assert auprc(scores, labels).tobytes() == np.array(rows_auprc).tobytes()
        stacked = confusion(scores, labels, threshold)
        assert fpr(stacked).tobytes() == np.array(rows_fpr).tobytes()
        for i, row in enumerate(scores):
            single = confusion(row, labels, threshold)
            assert (stacked.tp[i], stacked.tn[i], stacked.fp[i], stacked.fn[i]) == (
                single.tp, single.tn, single.fp, single.fn)

    @settings(max_examples=50, deadline=None)
    @given(case=score_stacks())
    def test_one_dimensional_call_is_the_one_row_stack(self, case):
        scores, labels = case
        row = scores[0]
        assert np.float64(auprc(row, labels)).tobytes() == auprc(row[None], labels).tobytes()
        counts = confusion(row, labels, 0.5)
        assert all(type(v) is int for v in (counts.tp, counts.tn, counts.fp, counts.fn))
        assert np.float64(fpr(counts)).tobytes() == fpr(confusion(row[None], labels, 0.5)).tobytes()

    def test_stack_keeps_its_leading_shape(self):
        scores = np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)
        labels = np.array([0, 1, 0, 1])
        assert auprc(scores, labels).shape == (2, 3)
        assert fpr(confusion(scores, labels, 0.5)).shape == (2, 3)

    @pytest.mark.parametrize("labels", [[1, 0, 1], [[1, 0], [0, 1]], []])
    def test_labels_must_be_one_row_as_long_as_the_scores(self, labels):
        with pytest.raises(ValueError, match="equal-length"):
            auprc(np.full((2, 2), 0.5), labels)
        with pytest.raises(ValueError, match="equal-length"):
            confusion(np.full((2, 2), 0.5), labels, 0.5)


class TestSupplementary:
    def test_sensitivity(self):
        assert supplementary_metrics(ConfusionCounts(1, 0, 0, 1))["sen"] == 0.5

    def test_specificity(self):
        assert supplementary_metrics(ConfusionCounts(0, 99, 1, 0))["spe"] == 0.99

    def test_accuracy(self):
        assert supplementary_metrics(ConfusionCounts(2, 6, 1, 1))["acc"] == 0.8

    def test_zero_denominators(self):
        vals = supplementary_metrics(ConfusionCounts(0, 0, 0, 0))
        assert vals == {"sen": 0.0, "pre": 0.0, "spe": 0.0, "acc": 0.0}

    def test_ranges(self, rng):
        for _ in range(100):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 20, 4))
            vals = supplementary_metrics(ConfusionCounts(tp, tn, fp, fn))
            assert all(0.0 <= v <= 1.0 for v in vals.values())
            c = ConfusionCounts(tp, tn, fp, fn)
            assert 0.0 <= fpr(c) <= 1.0
