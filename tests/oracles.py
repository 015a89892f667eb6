"""Reference formulas the library is checked against, written in their
plainest scalar form and independent of the code paths they check."""
import numpy as np


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: a <= b everywhere, < somewhere."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise ValueError("objective dimensions differ")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def scalar_grg(x, y, rho: float) -> float:
    """Grey relational grade between two equal-length vectors.

    With deviations d_i = |y_i - x_i| and their min/max over dimensions,
    the per-dimension coefficient is
    (d_min + rho * d_max) / (d_i + rho * d_max) and the grade is the
    coefficient mean. Identical vectors grade 1 by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 1:
        raise ValueError("inputs must be equal-length 1-D vectors")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    delta = np.abs(y - x)
    d_max = delta.max()
    if d_max == 0.0:
        return 1.0
    d_min = delta.min()
    zeta = (d_min + rho * d_max) / (delta + rho * d_max)
    return float(zeta.mean())
