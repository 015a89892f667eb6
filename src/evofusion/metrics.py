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


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Float64 scores and int64 0/1 labels, one per entry of a score row."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0/1")
    if labels.ndim != 1 or scores.shape[-1:] != labels.shape or labels.size < 1:
        raise ValueError("scores and labels must be equal-length, non-empty")
    return scores, labels.astype(np.int64, copy=False)


def confusion(scores, labels, threshold: float) -> ConfusionCounts:
    """Counts of score >= threshold calls; scores (..., m) share the m
    labels and give counts of shape (...), and a 1-D call gives ints."""
    scores, labels = _checked(scores, labels)
    pred = scores >= threshold
    pos = labels == 1
    tp = (pred & pos).sum(axis=-1)
    fp = (pred & ~pos).sum(axis=-1)
    n_pos = int(np.count_nonzero(pos))
    counts = (tp, labels.size - n_pos - fp, fp, n_pos - tp)
    return ConfusionCounts(*(counts if scores.ndim > 1 else map(int, counts)))


def mcc(c: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0 when any denominator factor is 0."""
    num = c.tp * c.tn - c.fp * c.fn
    den = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if den == 0:
        return 0.0
    return num / sqrt(den)


def fpr(c: ConfusionCounts):
    """fp / (fp + tn), 0 on an empty denominator; an array for a stack."""
    # fp is 0 wherever fp + tn is, so 0 / 1 gives the 0
    ratio = c.fp / np.maximum(c.fp + c.tn, 1)
    return ratio if np.ndim(ratio) else float(ratio)


def auprc(scores, labels):
    """Average precision over descending score order.

    Tied scores are handled pessimistically: within a tie group,
    negatives are ranked ahead of positives. AP is the mean of the
    precision values at each positive's rank, which equals the
    all-thresholds step integral of the PR curve whenever scores are
    tie-free.

    Scores of shape (..., m) share the m labels and give one AP per row,
    each with the bits of its row scored alone; a 1-D call gives a float.
    """
    scores, labels = _checked(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("AUPRC undefined without positive labels")
    # sort each row by (-score, label): equal scores put negatives (label 0) first
    order = np.lexsort((np.broadcast_to(labels, scores.shape), -scores))
    ranked = labels[order]
    at_pos = ranked == 1
    # precision at each positive: true positives so far over its rank
    precision = np.cumsum(ranked, axis=-1)[at_pos] / (np.nonzero(at_pos)[-1] + 1)
    # every row ranks the same labels, so each holds n_pos positives
    ap = precision.reshape(*scores.shape[:-1], n_pos).sum(axis=-1) / n_pos
    return ap if scores.ndim > 1 else float(ap)


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
