"""Cheap per-individual fitness: fuse the selected pool entries, train a
focal-loss logistic head on the training rows, score the bi-objective
pair (1 - AUPRC, FPR) on the validation rows."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import Standardizer, fit_standardizer, fuse_genotype
from .metrics import auprc, confusion, fpr
from .model import Genotype, Individual, ObjectiveVector

PROB_EPS = 1.0e-7
DECISION_THRESHOLD = 0.5

# damped Newton: diagonal added to every system, sufficient-decrease
# constant and step halvings tried before the fit stops
NEWTON_JITTER = 1.0e-8
ARMIJO_C = 1.0e-4
MAX_HALVINGS = 50

# Scoring fuses, standardizes and scores this many bytes of float64 rows at
# a time: the fused block, the fusion scratch and the standardized copy then
# stay in cache, and no scoring pass holds a whole L x d matrix. 128-512 KiB
# timed about the same. A block's product is also far below the size at
# which OpenBLAS 0.3.31 splits a product over threads (about 460,000
# elements, measured), so its bits do not depend on the thread count.
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class ProxyConfig:
    alpha_pos: float = 0.85
    alpha_neg: float = 0.15
    gamma: float = 1.5
    ridge_lambda: float = 0.5
    max_iter: int = 300
    grad_tol: float = 1.0e-5

    def __post_init__(self):
        if abs(self.alpha_pos + self.alpha_neg - 1.0) > 1e-9:
            raise ValueError("alpha_pos + alpha_neg must equal 1")
        if self.alpha_pos < 0 or self.alpha_neg < 0:
            raise ValueError("alpha_pos and alpha_neg must be >= 0")
        if self.gamma < 0 or self.ridge_lambda < 0:
            raise ValueError("gamma and ridge_lambda must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class ProxyModel:
    coefficients: np.ndarray
    intercept: float
    standardizer: Standardizer

    def scores(self, fused_rows: np.ndarray) -> np.ndarray:
        """Sigmoid probabilities for raw (unstandardized) fused rows."""
        z = self.standardizer.transform(fused_rows) @ self.coefficients + self.intercept
        return sigmoid(z)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|, and
    the z >= 0 and z < 0 branches are 1 / (1 + e) and e / (1 + e).
    np.minimum returns its first argument when both are NaN, so a NaN
    keeps its sign bit through exp."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    den = 1.0 + e
    return np.where(z >= 0, 1.0 / den, e / den)


def focal_terms(p, y, cfg: ProxyConfig):
    """Per-sample focal loss and its first two derivatives in the logit z.

    loss = -alpha * y * (1-p)^gamma * log(p)
           - (1-alpha) * (1-y) * p^gamma * log(1-p)

    with alpha = cfg.alpha_pos and p = sigmoid(z), so dp/dz = p(1-p).
    Probabilities are clipped away from 0/1 so the logs stay finite.
    Returns (loss, dL/dz, d2L/dz2). The second derivative is negative
    for confidently wrong samples when gamma > 0, since focal loss is
    not convex in z.
    """
    # np.clip gives the same bits through a slower Python wrapper
    p = np.minimum(np.maximum(np.asarray(p, dtype=np.float64), PROB_EPS), 1.0 - PROB_EPS)
    y = np.asarray(y, dtype=np.float64)
    a = cfg.alpha_pos
    g = cfg.gamma
    q = 1.0 - p
    pg = p ** g
    qg = q ** g
    logp = np.log(p)
    logq = np.log(q)
    pos = a * y
    neg = (1.0 - a) * (1.0 - y)
    pos_qg = pos * qg
    neg_pg = neg * pg
    gp = g * p
    gq = g * q
    loss = -pos_qg * logp - neg_pg * logq
    dldz = pos_qg * (gp * logp - q) + neg_pg * (p - gq * logq)
    # the negative-class terms mirror the positive ones under z -> -z
    d2ldz2 = pos * p * qg * (g * logp * (q - gp) + (2.0 * g + 1.0) * q) + neg * q * pg * (
        g * logq * (p - gq) + (2.0 * g + 1.0) * p
    )
    return loss, dldz, d2ldz2


def _objective(w, b, X, y, cfg: ProxyConfig):
    """Mean focal loss with ridge penalty on w at (w, b), its gradient, and
    the per-sample second derivatives in z. Returns (loss, grad_w, grad_b,
    d2ldz2)."""
    n = X.shape[0]
    loss_vec, dldz, d2ldz2 = focal_terms(sigmoid(X @ w + b), y, cfg)
    # sum / n is what ndarray.mean computes, without its Python wrapper
    loss = float(loss_vec.sum() / n + 0.5 * cfg.ridge_lambda * float(w @ w))
    grad_w = X.T @ dldz / n + cfg.ridge_lambda * w
    return loss, grad_w, float(dldz.sum() / n), d2ldz2


def focal_logistic_loss_and_grad(w, b, X, y, cfg: ProxyConfig):
    """Mean focal loss with ridge penalty on w, and its analytic gradient.

    Returns (loss, grad_w, grad_b). The intercept is unregularized.
    """
    X = np.asarray(X, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return _objective(w, b, X, y, cfg)[:3]


def fit_focal_logistic(X, y, cfg: ProxyConfig):
    """Damped Newton from zero initialization.

    Each step solves the (d+1)x(d+1) system on the rows [X, 1]: the
    Hessian is [X, 1]^T diag(h) [X, 1] / n plus ridge_lambda on the w
    block, where h is the per-sample curvature in z clipped at 0 (focal
    loss is not convex in z). NEWTON_JITTER on the diagonal keeps the
    system solvable when ridge_lambda is 0 and every curvature is
    clipped. A backtracking line search (Armijo condition) keeps the
    loss trace non-increasing; the fit stops where no step along the
    direction lowers the loss.

    Stops after cfg.max_iter Newton steps or when the gradient
    infinity-norm drops below cfg.grad_tol. Returns (w, b, losses), with
    one loss per accepted step after the initial one.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    A = np.column_stack([X, np.ones(n)])
    regularizer = np.diag(np.append(np.full(d, cfg.ridge_lambda), 0.0) + NEWTON_JITTER)
    w = np.zeros(d, dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b, d2ldz2 = _objective(w, b, X, y, cfg)
    losses = [loss]
    for _ in range(cfg.max_iter):
        grad = np.concatenate((grad_w, [grad_b]))
        if float(np.abs(grad).max()) < cfg.grad_tol:
            break
        hessian = (A.T * (np.maximum(d2ldz2, 0.0) / n)) @ A + regularizer
        step = np.linalg.solve(hessian, grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            w_new = w - t * step[:d]
            b_new = b - t * float(step[d])
            new = _objective(w_new, b_new, X, y, cfg)
            if new[0] <= loss - ARMIJO_C * t * slope:
                break
            t /= 2.0
        else:
            return w, b, losses
        w, b = w_new, b_new
        loss, grad_w, grad_b, d2ldz2 = new
        losses.append(loss)
    return w, b, losses


def train_head(fused_train: np.ndarray, labels_train, cfg: ProxyConfig) -> ProxyModel:
    """Standardize the training rows and fit the focal logistic head.
    Raises ValueError unless the 0/1 labels hold both classes."""
    labels_train = np.asarray(labels_train)
    if not labels_train.any() or labels_train.all():
        raise ValueError("training labels contain a single class")
    standardizer = fit_standardizer(fused_train)
    X = standardizer.transform(fused_train)
    w, b, _ = fit_focal_logistic(X, labels_train, cfg)
    return ProxyModel(w, b, standardizer)


def block_rows(d: int) -> int:
    """Rows in one scoring block at width d: a multiple of four, since
    OpenBLAS's matrix-vector kernels take rows in fours from the first
    row, so the blocks of a range group its rows as one product would."""
    return max(4, BLOCK_BYTES // (8 * max(d, 1)) // 4 * 4)


def score_rows(genotype: Genotype, model: ProxyModel, pool: list, start: int, stop: int) -> np.ndarray:
    """Probabilities for rows [start, stop) of a pool, fused, standardized
    and scored one block of ``block_rows`` rows at a time: bit for bit
    ``model.scores`` of those rows fused as one matrix.

    A block is ``[entry[lo:hi] for entry in pool]``, so an entry is an
    array, whose block is a view, or a ``data.FmatFile``, whose block is
    read from disk; every entry is sliced, whether the genotype uses it
    or not, so a pool on disk is read and checked exactly once."""
    step = block_rows(model.coefficients.shape[0])
    probs = np.empty(stop - start)
    lo = start
    while lo < stop:
        hi = min(lo + step, stop)
        if stop - hi == 1:
            # a one-row product is a dot product, which sums in another order
            hi = stop
        block = [entry[lo:hi] for entry in pool]
        probs[lo - start : hi - start] = model.scores(fuse_genotype(genotype, block))
        lo = hi
    return probs


def evaluate_individual(ind: Individual, task, cfg: ProxyConfig) -> ObjectiveVector:
    """Evaluate one individual against a task's pool and split, and store
    the objectives and the trained proxy on the individual.

    ``task`` must provide pool, labels and n_train (see data.TaskData),
    with the pool values that ``fuse_genotype`` requires; the driver
    checks them before a run, so no evaluation can fail. A task of at
    most one block is fused in one call; a longer one fuses its training
    rows as one matrix and scores its validation rows in blocks.
    """
    n, rows = task.n_train, task.labels.size
    whole = rows <= block_rows(task.pool[0].shape[1])
    fused = fuse_genotype(ind.genotype, task.pool, slice(0, rows if whole else n))
    model = train_head(fused[:n], task.labels[:n], cfg)
    probs = model.scores(fused[n:]) if whole else score_rows(ind.genotype, model, task.pool, n, rows)
    y_val = task.labels[n:]
    g1 = min(max(1.0 - auprc(probs, y_val), 0.0), 1.0)
    g2 = fpr(confusion(probs, y_val, DECISION_THRESHOLD))
    ind.objectives = ObjectiveVector(g1, g2)
    ind.proxy = model
    return ind.objectives
