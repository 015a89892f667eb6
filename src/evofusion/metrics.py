"""Confusion-matrix statistics and ranking metrics for imbalanced binary
per-residue classification. All metrics treat score >= threshold as a
positive call."""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _check_binary(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0/1")
    return labels.astype(np.int64, copy=False)


def confusion(scores, labels, threshold: float) -> ConfusionCounts:
    scores = np.asarray(scores, dtype=np.float64)
    labels = _check_binary(labels)
    if scores.shape != labels.shape or scores.size < 1:
        raise ValueError("scores and labels must be equal-length, non-empty")
    pred = scores >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.count_nonzero(pred & pos)),
        tn=int(np.count_nonzero(~pred & ~pos)),
        fp=int(np.count_nonzero(pred & ~pos)),
        fn=int(np.count_nonzero(~pred & pos)),
    )


def mcc(c: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0 when any denominator factor is 0."""
    num = c.tp * c.tn - c.fp * c.fn
    den = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if den == 0:
        return 0.0
    return num / sqrt(den)


def fpr(c: ConfusionCounts) -> float:
    den = c.fp + c.tn
    return c.fp / den if den else 0.0


def auprc(scores, labels) -> float:
    """Average precision over descending score order.

    Tied scores are handled pessimistically: within a tie group,
    negatives are ranked ahead of positives. AP is the mean of the
    precision values at each positive's rank, which equals the
    all-thresholds step integral of the PR curve whenever scores are
    tie-free.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = _check_binary(labels)
    if scores.shape != labels.shape or scores.size < 1:
        raise ValueError("scores and labels must be equal-length, non-empty")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("AUPRC undefined without positive labels")
    # sort by (-score, label): equal scores put negatives (label 0) first
    order = np.lexsort((labels, -scores))
    ranked = labels[order]
    tp_at_rank = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    precision_at_pos = tp_at_rank[ranked == 1] / ranks[ranked == 1]
    return float(precision_at_pos.sum() / n_pos)


def supplementary_metrics(c: ConfusionCounts) -> dict[str, float]:
    """Sensitivity, precision, specificity, accuracy; 0 on empty denominators."""

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "sen": ratio(c.tp, c.tp + c.fn),
        "pre": ratio(c.tp, c.tp + c.fp),
        "spe": ratio(c.tn, c.tn + c.fp),
        "acc": ratio(c.tp + c.tn, c.total),
    }
