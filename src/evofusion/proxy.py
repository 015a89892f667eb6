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
    step_size: float = 0.1
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


def focal_loss(p, y, cfg: ProxyConfig):
    """Per-sample focal loss.

    loss = -alpha * y * (1-p)^gamma * log(p)
           - (1-alpha) * (1-y) * p^gamma * log(1-p)

    with alpha = cfg.alpha_pos. Probabilities are clipped away from 0/1
    so the logs stay finite.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(y, dtype=np.float64)
    a = cfg.alpha_pos
    g = cfg.gamma
    pos_term = -a * y * (1.0 - p) ** g * np.log(p)
    neg_term = -(1.0 - a) * (1.0 - y) * p ** g * np.log(1.0 - p)
    return pos_term + neg_term


def focal_logistic_loss_and_grad(w, b, X, y, cfg: ProxyConfig):
    """Mean focal loss with ridge penalty on w, and its analytic gradient.

    Returns (loss, grad_w, grad_b). The intercept is unregularized.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n = X.shape[0]
    z = X @ w + b
    p = np.clip(sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)
    a = cfg.alpha_pos
    g = cfg.gamma
    q = 1.0 - p
    pg = p ** g
    qg = q ** g
    logp = np.log(p)
    logq = np.log(q)
    loss_vec = -a * y * qg * logp - (1.0 - a) * (1.0 - y) * pg * logq
    loss = float(loss_vec.mean() + 0.5 * cfg.ridge_lambda * float(w @ w))
    # d(loss_i)/dz_i, derived from the closed form above with dp/dz = p(1-p)
    dldz = y * (a * qg * (g * p * logp - q)) + (1.0 - y) * ((1.0 - a) * pg * (p - g * q * logq))
    grad_w = X.T @ dldz / n + cfg.ridge_lambda * w
    grad_b = float(dldz.mean())
    return loss, grad_w, grad_b


def fit_focal_logistic(X, y, cfg: ProxyConfig):
    """Full-batch gradient descent from zero initialization.

    Stops at cfg.max_iter or when the gradient infinity-norm drops below
    cfg.grad_tol. The step is halved (at most 10 times over the run)
    whenever a proposed step would increase the loss, keeping the loss
    trace non-increasing. Returns (w, b, losses).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    step = cfg.step_size
    halvings = 0
    loss, grad_w, grad_b = focal_logistic_loss_and_grad(w, b, X, y, cfg)
    losses = [loss]
    for _ in range(cfg.max_iter):
        if max(float(np.abs(grad_w).max(initial=0.0)), abs(grad_b)) < cfg.grad_tol:
            break
        while True:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            new_loss, new_gw, new_gb = focal_logistic_loss_and_grad(w_new, b_new, X, y, cfg)
            if new_loss <= loss + 1e-12:
                break
            if halvings >= 10:
                return w, b, losses
            step /= 2.0
            halvings += 1
        w, b, loss = w_new, b_new, new_loss
        grad_w, grad_b = new_gw, new_gb
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
