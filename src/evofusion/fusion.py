"""Column standardization and recursive weighted fusion of pool entries."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Genotype

# Repeated elementwise products would compound; every fusion step is
# clamped to this range, so none compounds past one step (see fuse_genotype).
CLAMP_LIMIT = 1.0e6


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-column mean/std fitted on training rows only."""

    means: np.ndarray
    stds: np.ndarray

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (np.asarray(rows, dtype=np.float64) - self.means) / self.stds


def fit_standardizer(train_rows: np.ndarray) -> Standardizer:
    """Fit per-column mean and population std; zero-variance columns get
    std 1 so constant columns transform to exact zeros."""
    rows = np.asarray(train_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("standardizer needs at least 2 training rows")
    # the operations ndarray.mean and ndarray.std run, in their order,
    # without their Python wrappers and the second pass for the mean
    n = rows.shape[0]
    means = rows.sum(axis=0) / n
    squares = rows - means
    np.multiply(squares, squares, out=squares)
    stds = np.sqrt(squares.sum(axis=0) / n)
    stds = np.where(stds > 0.0, stds, 1.0)
    return Standardizer(means, stds)


def _fuse_into(
    acc: np.ndarray, nxt: np.ndarray, scratch: np.ndarray, op: str, w_c: float, w_f: float
) -> None:
    """One fusion step in place: ``acc`` becomes op(w_c * acc, w_f * nxt),
    clamped to +-CLAMP_LIMIT.

    ``acc`` and ``scratch`` are float64 buffers of one shape owned by the
    caller; ``scratch`` is overwritten and ``nxt`` is only read. Every
    element goes through the float64 operations of that formula in its
    order, so the result is bit-identical to evaluating it elementwise.
    """
    if np.shape(nxt) != acc.shape:
        raise ValueError(f"shape mismatch {acc.shape} vs {np.shape(nxt)}")
    np.multiply(acc, w_c, out=acc)
    # dtype= makes a float32 entry multiply in float64: a Python float is a
    # weak scalar, so without it NumPy would compute the product in float32.
    np.multiply(nxt, w_f, out=scratch, dtype=np.float64)
    if op == "add":
        np.add(acc, scratch, out=acc)
    elif op == "mul":
        np.multiply(acc, scratch, out=acc)
    elif op == "max":
        np.maximum(acc, scratch, out=acc)
    elif op == "min":
        np.minimum(acc, scratch, out=acc)
    elif op == "diff":
        np.subtract(acc, scratch, out=acc)
    elif op == "avg":
        np.add(acc, scratch, out=acc)
        np.divide(acc, 2.0, out=acc)
    else:
        raise ValueError(f"unknown operator {op!r}")
    # np.clip gives the same bits through a slower Python wrapper
    np.minimum(acc, CLAMP_LIMIT, out=acc)
    np.maximum(acc, -CLAMP_LIMIT, out=acc)


def fuse_genotype(g: Genotype, pool: list[np.ndarray]) -> np.ndarray:
    """Left-fold a genotype's genes, one ``_fuse_into`` step per gene.

    Supported operators: add, mul, max, min, diff (weighted difference),
    avg (weighted mean). The accumulator starts as a float64 copy of the
    first gene's pool entry, unweighted; every following gene combines
    its entry into the accumulator in gene order, in place. Result has
    the common L x d pool shape, in float64. Pool arrays are never
    modified.

    Requires gene weights in [WEIGHT_MIN, WEIGHT_MAX] and pool values
    within float32's range (|v| <= 3.4e38): then no float64 intermediate
    exceeds (2 * 3.4e38)^2 = 4.6e77, and the result is finite.
    """
    first = g.genes[0].pool_index
    if not 0 <= first < len(pool):
        raise IndexError(f"pool index {first} outside pool of {len(pool)} entries")
    acc = np.array(pool[first], dtype=np.float64)
    scratch = np.empty_like(acc)
    for gene in g.genes[1:]:
        if not 0 <= gene.pool_index < len(pool):
            raise IndexError(f"pool index {gene.pool_index} outside pool of {len(pool)} entries")
        _fuse_into(acc, pool[gene.pool_index], scratch, gene.op, gene.w_c, gene.w_f)
    return acc
