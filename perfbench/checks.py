"""Correctness checks computed by the benchmark itself.

Nothing here calls evofusion: the pool is read from the FMAT bytes, each
strategy is refolded with the six fusion operators, and AUPRC, FPR,
focal loss and hypervolume are recomputed from their definitions. Every
check raises ``CheckError`` with a one-line reason.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

OPERATORS = ("add", "mul", "max", "min", "diff", "avg")
CLAMP = 1.0e6
WEIGHT_RANGE = (0.1, 2.0)
THRESHOLD = 0.5
OBJECTIVE_TOL = 1e-9
PREDICTION_TOL = 1e-12


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---- inputs -------------------------------------------------------------

def read_pool(task_dir: Path) -> list[np.ndarray]:
    pool = []
    while (task_dir / f"pool_{len(pool)}.fmat").is_file():
        raw = (task_dir / f"pool_{len(pool)}.fmat").read_bytes()
        rows, cols = np.frombuffer(raw, dtype="<u4", count=2, offset=6)
        pool.append(np.frombuffer(raw, dtype="<f4", offset=14).reshape(int(rows), int(cols)))
    return pool


def read_labels(task_dir: Path) -> np.ndarray:
    text = (task_dir / "labels.txt").read_text(encoding="utf-8")
    return np.array([int(c) for c in text.split()], dtype=np.int64)


class Task:
    """One task's inputs, read straight from the generated files."""

    def __init__(self, data_dir: Path, name: str, val_ratio: float):
        self.name = name
        self.dir = data_dir / name
        self.pool = read_pool(self.dir)
        self.labels = read_labels(self.dir)
        n = self.labels.size
        self.n_val = math.ceil(val_ratio * n)
        self.train = slice(0, n - self.n_val)
        self.val = slice(n - self.n_val, n)


# ---- recomputation ------------------------------------------------------

def refold(genes, pool) -> np.ndarray:
    acc = pool[int(genes[0][0])].astype(np.float64)
    for k, op, w_c, w_f in genes[1:]:
        a = w_c * acc
        f = w_f * pool[int(k)].astype(np.float64)
        if op == "add":
            acc = a + f
        elif op == "mul":
            acc = a * f
        elif op == "max":
            acc = np.maximum(a, f)
        elif op == "min":
            acc = np.minimum(a, f)
        elif op == "diff":
            acc = a - f
        else:
            acc = (a + f) / 2.0
        acc = np.clip(acc, -CLAMP, CLAMP)
    return acc


def head_scores(strategy: dict, fused: np.ndarray) -> np.ndarray:
    std = strategy["standardizer"]
    x = (fused - np.asarray(std["means"])) / np.asarray(std["stds"])
    z = x @ np.asarray(strategy["coefficients"]) + strategy["intercept"]
    return 1.0 / (1.0 + np.exp(-z))


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Step integral of the PR curve, one step per ranked row; tied scores
    rank negatives first."""
    by_label = np.argsort(labels, kind="stable")
    order = by_label[np.argsort(-scores[by_label], kind="stable")]
    hits = labels[order] == 1
    ranks = np.flatnonzero(hits) + 1
    return float(np.sum(np.arange(1, ranks.size + 1) / ranks) / ranks.size)


def false_positive_rate(scores: np.ndarray, labels: np.ndarray) -> float:
    negatives = labels == 0
    return float(np.count_nonzero(scores[negatives] >= THRESHOLD) / np.count_nonzero(negatives))


def focal_objective(w, b, x, y, proxy: dict) -> float:
    p = np.clip(1.0 / (1.0 + np.exp(-(x @ w + b))), 1e-7, 1.0 - 1e-7)
    a, g = proxy["alpha_pos"], proxy["gamma"]
    loss = -a * y * (1 - p) ** g * np.log(p) - (1 - a) * (1 - y) * p ** g * np.log(1 - p)
    return float(loss.mean() + 0.5 * proxy["ridge_lambda"] * float(w @ w))


def hypervolume(points) -> float:
    """Area dominated by a 2-D minimization front inside the box below (1, 1)."""
    area, floor = 0.0, 1.0
    for g1, g2 in sorted(points):
        if g2 < floor:
            area += (1.0 - g1) * (floor - g2)
            floor = g2
    return area


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes())
    return h.hexdigest()


# ---- outputs ------------------------------------------------------------

def read_summary(path: Path) -> dict[str, dict[str, float]]:
    blocks, current = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, value = line.split(": ", 1)
        if key == "task":
            current = blocks[value] = {}
        else:
            current[key] = float(value)
    return blocks


def read_pareto(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def read_eval(text: str) -> dict[str, float]:
    return {k: float(v) for k, v in (line.split(": ", 1) for line in text.splitlines() if ": " in line)}


class SearchOutput:
    """Parsed files of one ``evolve`` call for one task."""

    def __init__(self, out_dir: Path, task: Task):
        self.task = task
        self.strategy = json.loads((out_dir / f"strategy.{task.name}.out").read_text(encoding="utf-8"))
        self.pareto = read_pareto(out_dir / f"pareto.{task.name}.out")
        self.summary = read_summary(out_dir / "summary.out")[task.name]


# ---- checks on one task's search output ---------------------------------

def check_genotypes(out: SearchOutput, max_len: int) -> None:
    pool_size = len(out.task.pool)
    for member in out.pareto + [out.strategy]:
        genes = member["genes"]
        where = f"{out.task.name}: genotype {genes}"
        require(1 <= len(genes) <= max_len, f"{where} has length {len(genes)}")
        indices = [g[0] for g in genes]
        require(len(set(indices)) == len(indices), f"{where} repeats a pool index")
        require(all(0 <= k < pool_size for k in indices), f"{where} leaves the pool")
        require(all(g[1] in OPERATORS for g in genes), f"{where} has an unknown operator")
        lo, hi = WEIGHT_RANGE
        require(all(lo <= w <= hi for g in genes for w in g[2:]), f"{where} has a weight outside [0.1, 2]")


def check_front(out: SearchOutput) -> None:
    points = [(m["g1"], m["g2"]) for m in out.pareto]
    require(points, f"{out.task.name}: empty Pareto set")
    for a in points:
        for b in points:
            require(not (a[0] <= b[0] and a[1] <= b[1] and a != b),
                    f"{out.task.name}: Pareto member {a} dominates {b}")
    best = min(points)
    require(tuple(out.strategy["objectives"]) == best,
            f"{out.task.name}: strategy {out.strategy['objectives']} is not the front minimum {best}")
    require(any(m["genes"] == out.strategy["genes"] for m in out.pareto),
            f"{out.task.name}: strategy genes are not on the Pareto front")


def check_refold(out: SearchOutput) -> float:
    """Refold the strategy and compare its validation metrics with the
    stored objectives and the summary. Returns the validation AUPRC."""
    task, strategy = out.task, out.strategy
    fused = refold(strategy["genes"], task.pool)
    train = fused[task.train]
    stds = train.std(axis=0)
    means_ok = np.allclose(strategy["standardizer"]["means"], train.mean(axis=0), rtol=1e-9, atol=1e-9)
    stds_ok = np.allclose(strategy["standardizer"]["stds"], np.where(stds > 0, stds, 1.0), rtol=1e-9, atol=1e-9)
    require(means_ok and stds_ok, f"{task.name}: stored standardizer does not fit the training rows")
    scores = head_scores(strategy, fused[task.val])
    y_val = task.labels[task.val]
    ap = average_precision(scores, y_val)
    fp = false_positive_rate(scores, y_val)
    g1, g2 = strategy["objectives"]
    require(abs(g1 - min(max(1.0 - ap, 0.0), 1.0)) <= OBJECTIVE_TOL,
            f"{task.name}: strategy g1 {g1!r} but refold gives 1 - AUPRC = {1.0 - ap!r}")
    require(abs(g2 - fp) <= OBJECTIVE_TOL, f"{task.name}: strategy g2 {g2!r} but refold gives FPR {fp!r}")
    require(abs(out.summary["auprc"] - ap) <= OBJECTIVE_TOL,
            f"{task.name}: summary auprc {out.summary['auprc']!r} but refold gives {ap!r}")
    require(abs(out.summary["fpr"] - fp) <= OBJECTIVE_TOL,
            f"{task.name}: summary fpr {out.summary['fpr']!r} but refold gives {fp!r}")
    return ap


def check_head(out: SearchOutput, proxy: dict) -> None:
    task, strategy = out.task, out.strategy
    std = strategy["standardizer"]
    x = (refold(strategy["genes"], task.pool)[task.train] - np.asarray(std["means"])) / np.asarray(std["stds"])
    y = task.labels[task.train].astype(np.float64)
    w = np.asarray(strategy["coefficients"])
    trained = focal_objective(w, strategy["intercept"], x, y, proxy)
    zero = focal_objective(np.zeros_like(w), 0.0, x, y, proxy)
    require(trained < zero, f"{task.name}: trained head loss {trained!r} is not below the zero head's {zero!r}")


def check_above_chance(out: SearchOutput) -> None:
    rate = float(out.task.labels[out.task.val].mean())
    require(out.summary["auprc"] > rate,
            f"{out.task.name}: AUPRC {out.summary['auprc']!r} not above the positive rate {rate!r}")


def check_search(out: SearchOutput, proxy: dict, max_len: int) -> float:
    check_genotypes(out, max_len)
    check_front(out)
    ap = check_refold(out)
    check_head(out, proxy)
    return ap


# ---- checks on one predict + eval pair ----------------------------------

def check_predictions(task: Task, strategy: dict, pred_text: str, eval_text: str) -> None:
    lines = pred_text.split()
    require(len(lines) == task.labels.size,
            f"{task.name}: {len(lines)} predictions for {task.labels.size} residues")
    preds = np.array([float(v) for v in lines])
    require(bool(((preds >= 0.0) & (preds <= 1.0)).all()), f"{task.name}: prediction outside [0, 1]")
    expected = head_scores(strategy, refold(strategy["genes"], task.pool))
    worst = float(np.abs(preds - expected).max())
    require(worst <= PREDICTION_TOL, f"{task.name}: predictions differ from the refold by {worst!r}")
    reported = read_eval(eval_text)
    ap = average_precision(preds, task.labels)
    require(abs(reported.get("auprc", -1.0) - ap) <= OBJECTIVE_TOL,
            f"{task.name}: eval auprc {reported.get('auprc')!r} but the predictions give {ap!r}")
