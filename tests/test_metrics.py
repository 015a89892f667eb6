import math

import numpy as np
import pytest

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
