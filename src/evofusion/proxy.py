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

# score_rows fuses, standardizes and scores this many bytes of float64 rows
# at a time: the fused block, the fusion scratch and the standardized copy
# then stay in cache. 128-512 KiB timed about the same. The search holds
# one (B, L, d) chunk of fused rows, B heads whose (n, d + 1) design
# matrices fit this many bytes: 1.2 MB against 17 MB of resident pools on
# search-d128's config, 0.3 MB against 2.8 MB on search-15task's.
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
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")


@dataclass(frozen=True, eq=False)
class ProxyModel:
    """A trained head: coefficients (d,), a float intercept and the
    standardizer of its training rows; or a stack of B heads: (B, d), (B,)."""

    coefficients: np.ndarray
    intercept: float
    standardizer: Standardizer

    def scores(self, fused_rows: np.ndarray) -> np.ndarray:
        """Sigmoid probabilities for raw (unstandardized) fused rows, (m, d)
        or, for a stack, (B, m, d). einsum sums in numpy's own loop, with no
        BLAS call, so a row's bits depend on that row and its head alone:
        not on its block, stack or row range, nor on the BLAS thread count."""
        z = np.einsum("...md,...d->...m", self.standardizer.transform(fused_rows), self.coefficients)
        z += np.asarray(self.intercept)[..., None]
        return sigmoid(z)

    def heads(self) -> list[ProxyModel]:
        """The single heads of a stack, in stack order."""
        s = self.standardizer
        rows = zip(self.coefficients, self.intercept, s.means, s.stds)
        return [ProxyModel(w, float(b), Standardizer(means, stds)) for w, b, means, stds in rows]


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


def _objective(theta, X, y, cfg: ProxyConfig):
    """Mean focal loss with ridge penalty on w, its gradient, and the
    per-sample second derivatives in z, for each member of a stack: X is
    (B, n, d) and theta is (B, d + 1), each row a member's [w, b].
    Returns (loss, grad, d2ldz2) of shapes (B,), (B, d + 1) and (B, n),
    grad's rows being [grad_w, grad_b].

    Stacked np.matmul makes one BLAS call per member, and every sum runs
    along a member's own axis, so a member's bits do not depend on the
    other members of its stack."""
    n, d = X.shape[1:]
    w = theta[:, :d]
    z = np.matmul(X, w[:, :, None])[:, :, 0]
    z += theta[:, d, None]
    loss_vec, dldz, d2ldz2 = focal_terms(sigmoid(z), y, cfg)
    # sum / n is what ndarray.mean computes, without its Python wrapper
    ww = np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0]
    loss = loss_vec.sum(axis=1) / n + 0.5 * cfg.ridge_lambda * ww
    grad_w = np.matmul(X.transpose(0, 2, 1), dldz[:, :, None])[:, :, 0] / n + cfg.ridge_lambda * w
    return loss, np.concatenate((grad_w, dldz.sum(axis=1)[:, None] / n), axis=1), d2ldz2


def focal_logistic_loss_and_grad(w, b, X, y, cfg: ProxyConfig):
    """Mean focal loss with ridge penalty on w, and its analytic gradient,
    for one head on the rows of X.

    Returns (loss, grad_w, grad_b). The intercept is unregularized.
    """
    X = np.asarray(X, dtype=np.float64)
    theta = np.append(np.asarray(w, dtype=np.float64), b)[None]
    loss, grad, _ = _objective(theta, X[None], y, cfg)
    return float(loss[0]), grad[0, :-1], float(grad[0, -1])


def fit_focal_logistic(X, y, cfg: ProxyConfig):
    """Damped Newton from zero initialization, for every member of a
    (B, n, d) stack of training rows that share the labels y.

    Each step solves, per member, the (d+1)x(d+1) system on the rows
    [X, 1]: the Hessian is [X, 1]^T diag(h) [X, 1] / n plus ridge_lambda
    on the w block, where h is the per-sample curvature in z clipped at 0
    (focal loss is not convex in z). NEWTON_JITTER on the diagonal keeps
    the system solvable when ridge_lambda is 0 and every curvature is
    clipped. A backtracking line search (Armijo condition) keeps each
    loss trace non-increasing: each member halves its own step length
    until its trial passes, and stops where no step along its direction
    lowers its loss.

    A member stops after cfg.max_iter Newton steps or when its gradient
    infinity-norm drops below cfg.grad_tol. Every member stays in the
    stack for the whole fit and no rows are copied: a stopped member's
    step is zero, so its trial is its own point, which always passes.
    Every product, solve and sum is per member, so a member's bits are
    those of fitting it alone (B = 1). Returns (w, b, losses) of shapes
    (B, d), (B,) and (steps + 1, B): losses[k, m] is member m's loss
    after k accepted steps, NaN once it has stopped, and steps is the
    most any member took.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    size, n, d = X.shape
    A = np.empty((size, n, d + 1))
    A[:, :, :d] = X
    A[:, :, d] = 1.0
    regularizer = np.diag(np.append(np.full(d, cfg.ridge_lambda), 0.0) + NEWTON_JITTER)
    theta = np.zeros((size, d + 1))
    loss, grad, d2ldz2 = _objective(theta, X, y, cfg)
    losses = [loss]
    live = np.ones(size, dtype=bool)
    for _ in range(cfg.max_iter):
        # not "max >= grad_tol": a NaN gradient keeps its member going
        live &= ~(np.abs(grad).max(axis=1) < cfg.grad_tol)
        if not live.any():
            break
        hessian = np.matmul((A * (np.maximum(d2ldz2, 0.0) / n)[:, :, None]).transpose(0, 2, 1), A) + regularizer
        step = np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
        # a stopped member steps by zero: its trial is its own point, which passes
        step[~live] = 0.0
        slope = np.matmul(grad[:, None, :], step[:, :, None])[:, 0, 0]
        t = np.ones(size)
        for _ in range(MAX_HALVINGS):
            trial = theta - t[:, None] * step
            state = (trial, *_objective(trial, X, y, cfg))
            ok = state[1] <= loss - ARMIJO_C * t * slope
            if ok.all():
                break
            t[~ok] /= 2.0
        else:
            # no step lowered these members' loss: they stop where they are
            live &= ok
            if not live.any():
                break
            keep = (ok[:, None], ok, ok[:, None], ok[:, None])
            state = [np.where(k, new, old) for k, new, old in zip(keep, state, (theta, loss, grad, d2ldz2))]
        theta, loss, grad, d2ldz2 = state
        losses.append(loss if live.all() else np.where(live, loss, np.nan))
    return theta[:, :d], theta[:, d], np.array(losses)


def train_head(fused_train: np.ndarray, labels_train, cfg: ProxyConfig) -> ProxyModel:
    """Standardize each member of a (B, n, d) stack of training rows and
    fit their focal logistic heads in one call; returns the stack of B
    heads. Raises ValueError unless the 0/1 labels hold both classes."""
    labels_train = np.asarray(labels_train)
    if not labels_train.any() or labels_train.all():
        raise ValueError("training labels contain a single class")
    stacked = fit_standardizer(fused_train)
    w, b, _ = fit_focal_logistic(stacked.transform(fused_train), labels_train, cfg)
    return ProxyModel(w, b, stacked)


def block_rows(d: int) -> int:
    """Rows in one scoring block at width d: as many as BLOCK_BYTES holds
    of float64 rows, and at least one (a zero-width head counts as d = 1)."""
    return max(1, BLOCK_BYTES // (8 * max(d, 1)))


def score_rows(genotype: Genotype, model: ProxyModel, pool: list, start: int, stop: int) -> np.ndarray:
    """Probabilities for rows [start, stop) of a pool, fused, standardized
    and scored one block of ``block_rows`` rows at a time. Fusion and
    ``model.scores`` work row by row, so these are bit for bit rows
    [start, stop) of ``model.scores`` of the whole pool fused at once.

    A block is ``[entry[lo:hi] for entry in pool]``, so an entry is an
    array, whose block is a view, or a ``data.FmatFile``, whose block is
    read from disk; every entry is sliced, whether the genotype uses it
    or not, so a pool on disk is read and checked exactly once."""
    step = block_rows(model.coefficients.shape[0])
    probs = np.empty(stop - start)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        block = [entry[lo:hi] for entry in pool]
        probs[lo - start : hi - start] = model.scores(fuse_genotype(genotype, block))
    return probs


def evaluate_individual(ind: Individual, head: ProxyModel, g1: float, g2: float) -> None:
    """Store an individual's objectives, 1 - AUPRC and FPR on the task's
    validation rows, and its trained head on the individual."""
    ind.objectives, ind.proxy = ObjectiveVector(g1, g2), head


def evaluate_batch(individuals: list[Individual], task, cfg: ProxyConfig) -> list[ObjectiveVector]:
    """Evaluate individuals against a task's pool and split: fuse, train
    the focal logistic head on the training rows, score (1 - AUPRC, FPR)
    on the validation rows. Stores the objectives and the trained head on
    each individual and returns the objectives.

    ``task`` must provide pool, labels and n_train (see data.TaskData),
    with the pool values that ``fuse_genotype`` requires; the driver
    checks them before a run, so no evaluation can fail. Each chunk of as
    many individuals as BLOCK_BYTES holds of their (n, d + 1) design
    matrices, and at least one, is fused once over all of the task's rows,
    trained in one ``train_head`` call and scored in one stacked call,
    whose (B, m) probabilities take one AUPRC and one FPR call. No bit
    depends on B, and a head's scores are bit for bit those of
    ``score_rows`` over the validation rows, in blocks of any size.
    """
    n, rows = task.n_train, task.labels.size
    d = task.pool[0].shape[1]
    size = max(1, BLOCK_BYTES // (8 * n * (d + 1)))
    y_val = task.labels[n:]
    for lo in range(0, len(individuals), size):
        chunk = individuals[lo : lo + size]
        fused = np.empty((len(chunk), rows, d))
        for ind, out in zip(chunk, fused):
            fuse_genotype(ind.genotype, task.pool, out=out)
        stack = train_head(fused[:, :n], task.labels[:n], cfg)
        probs = stack.scores(fused[:, n:])
        g1 = 1.0 - auprc(probs, y_val)  # AUPRC lies in (0, 1], so no clamp
        g2 = fpr(confusion(probs, y_val, DECISION_THRESHOLD))
        for ind, head, g1_i, g2_i in zip(chunk, stack.heads(), g1.tolist(), g2.tolist()):
            evaluate_individual(ind, head, g1_i, g2_i)
    return [ind.objectives for ind in individuals]
