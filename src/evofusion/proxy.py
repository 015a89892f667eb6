"""Cheap per-individual fitness: fuse the selected pool entries, train a
focal-loss logistic head on the training rows, score the bi-objective
pair (1 - AUPRC, FPR) on the validation rows."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import FusionOverflowError, Standardizer, fit_standardizer, fuse_genotype
from .metrics import auprc, confusion, fpr
from .model import Individual, ObjectiveVector

PROB_EPS = 1.0e-7
DECISION_THRESHOLD = 0.5

# damped Newton: diagonal added to every system, sufficient-decrease
# constant and step halvings tried before the fit stops
NEWTON_JITTER = 1.0e-8
ARMIJO_C = 1.0e-4
MAX_HALVINGS = 50

# worst-case objectives assigned when an evaluation cannot complete
FAILURE_OBJECTIVES = ObjectiveVector(1.0, 1.0)


class DegenerateTaskError(ValueError):
    """Training labels contain a single class."""


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
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
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
    loss = -pos * qg * logp - neg * pg * logq
    dldz = pos * qg * (g * p * logp - q) + neg * pg * (p - g * q * logq)
    # the negative-class terms mirror the positive ones under z -> -z
    d2ldz2 = pos * p * qg * (g * logp * (q - g * p) + (2.0 * g + 1.0) * q) + neg * q * pg * (
        g * logq * (p - g * q) + (2.0 * g + 1.0) * p
    )
    return loss, dldz, d2ldz2


def focal_loss(p, y, cfg: ProxyConfig):
    """Per-sample focal loss; see focal_terms."""
    return focal_terms(p, y, cfg)[0]


def _objective(w, b, X, y, cfg: ProxyConfig):
    """Mean focal loss with ridge penalty on w at (w, b), its gradient, and
    the per-sample second derivatives in z. Returns (loss, grad_w, grad_b,
    d2ldz2)."""
    loss_vec, dldz, d2ldz2 = focal_terms(sigmoid(X @ w + b), y, cfg)
    loss = float(loss_vec.mean() + 0.5 * cfg.ridge_lambda * float(w @ w))
    grad_w = X.T @ dldz / X.shape[0] + cfg.ridge_lambda * w
    return loss, grad_w, float(dldz.mean()), d2ldz2


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
        grad = np.append(grad_w, grad_b)
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
    """Standardize the training rows and fit the focal logistic head."""
    labels_train = np.asarray(labels_train)
    classes = np.unique(labels_train)
    if classes.size < 2:
        raise DegenerateTaskError("training labels contain a single class")
    standardizer = fit_standardizer(fused_train)
    X = standardizer.transform(fused_train)
    w, b, _ = fit_focal_logistic(X, labels_train, cfg)
    return ProxyModel(w, b, standardizer)


def evaluate_individual(ind: Individual, task, cfg: ProxyConfig) -> ObjectiveVector:
    """Evaluate one individual against a task's pool and split.

    ``task`` must provide pool, labels, train_idx and val_idx (see
    data.TaskData). Fusion overflow or single-class training labels mark
    the individual failed with worst-case objectives (1, 1) instead of
    aborting the generation. Stores the trained proxy on the individual.
    """
    try:
        fused = fuse_genotype(ind.genotype, task.pool)
        model = train_head(fused[task.train_idx], task.labels[task.train_idx], cfg)
    except (FusionOverflowError, DegenerateTaskError):
        ind.objectives = FAILURE_OBJECTIVES
        ind.proxy = None
        ind.failed = True
        return ind.objectives
    probs = model.scores(fused[task.val_idx])
    y_val = task.labels[task.val_idx]
    g1 = min(max(1.0 - auprc(probs, y_val), 0.0), 1.0)
    g2 = fpr(confusion(probs, y_val, DECISION_THRESHOLD))
    ind.objectives = ObjectiveVector(g1, g2)
    ind.proxy = model
    ind.failed = False
    return ind.objectives
