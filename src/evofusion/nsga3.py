"""NSGA-III environmental selection for the bi-objective search:
dominance sorting, Das-Dennis reference points, adaptive normalization,
reference-line association and niche-preserving truncation."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import Individual

ASF_EPS = 1.0e-6
INTERCEPT_FLOOR = 1.0e-6


@dataclass(frozen=True, eq=False)
class ReferenceSet:
    """Unit-simplex reference points, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("reference set must be a non-empty 2-D array")
        if (pts < 0).any() or np.abs(pts.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("reference points must lie on the unit simplex")
        if len({tuple(p) for p in pts}) != pts.shape[0]:
            raise ValueError("reference points must be pairwise distinct")

    def __len__(self):
        return self.points.shape[0]


def nondominated_sort(objs) -> list[list[int]]:
    """Partition 2-D objective vectors into Pareto fronts (minimization).

    Front 0 holds everything dominated by nobody; each later front is
    what becomes undominated once the earlier fronts are removed. Indices
    within a front are ascending.

    Sweep in O(n log n): visit the points in (g1, g2) order, so every
    point that can dominate the current one was visited before it. Each
    front keeps the key (g2, g1) of its last member, which dominates the
    current point exactly when that key sorts below the point's own.
    The keys increase from front to front, so a binary search finds the
    first front whose last member does not dominate the point.
    """
    O = np.asarray([tuple(o) for o in objs], dtype=np.float64)
    if O.ndim != 2 or O.shape[0] < 1:
        raise ValueError("need at least one objective vector")
    if O.shape[1] != 2:
        raise ValueError("nondominated_sort takes 2 objectives")
    fronts: list[list[int]] = []
    last: list[tuple[float, float]] = []
    for i in np.lexsort((O[:, 1], O[:, 0])).tolist():
        key = (float(O[i, 1]), float(O[i, 0]))
        k = bisect_left(last, key)
        if k == len(fronts):
            fronts.append([])
            last.append(key)
        fronts[k].append(i)
        last[k] = key
    return [sorted(front) for front in fronts]


def das_dennis(p: int) -> ReferenceSet:
    """The Das-Dennis lattice for two objectives: the p + 1 points
    (k/p, 1 - k/p), k = 0..p, in ascending first coordinate."""
    if p < 1:
        raise ValueError("need p >= 1")
    k = np.arange(p + 1, dtype=np.float64)
    return ReferenceSet(np.column_stack((k, p - k)) / p)


def normalize(objs) -> np.ndarray:
    """Translate by the ideal point and scale by the simplex intercepts.

    Extreme points are picked per axis by the achievement scalarizing
    function with weight 1 on the axis and ASF_EPS elsewhere. When the
    intercept system is singular or yields non-positive intercepts, the
    scale falls back to the per-component range, and to 1 where the
    range is itself zero. An axis whose intercept is below
    INTERCEPT_FLOOR times its range also takes the range, so a
    near-degenerate extreme point cannot blow the normalized objectives
    up towards overflow.
    """
    O = np.asarray([tuple(o) for o in objs], dtype=np.float64)
    if O.ndim != 2 or O.shape[0] < 1:
        raise ValueError("need at least one objective vector")
    M = O.shape[1]
    T = O - O.min(axis=0)
    weights = np.full((M, M), ASF_EPS) + np.eye(M) * (1.0 - ASF_EPS)
    extreme_rows = np.array([np.argmin((T / weights[i]).max(axis=1)) for i in range(M)])
    span = T.max(axis=0)
    scale = span
    E = T[extreme_rows]
    try:
        plane = np.linalg.solve(E, np.ones(M))
        intercepts = 1.0 / plane
        if np.isfinite(intercepts).all() and (intercepts > 0).all():
            scale = np.where(intercepts >= INTERCEPT_FLOOR * span, intercepts, span)
    except np.linalg.LinAlgError:
        pass
    scale = np.where(scale > 0, scale, 1.0)
    return T / scale


def _perpendicular_distances(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """distance[i, j]: distance of points[i] to the line through origin
    and refs[j]."""
    norms_sq = (refs ** 2).sum(axis=1)
    proj = points @ refs.T / norms_sq
    residual = points[:, None, :] - proj[:, :, None] * refs[None, :, :]
    return np.sqrt((residual ** 2).sum(axis=2))


def environmental_selection(
    R: list[Individual], N: int, Z: ReferenceSet, rng: np.random.Generator
) -> list[Individual]:
    """Select N individuals from the union population R.

    Whole fronts are accepted while they fit; the splitting front is
    filled by NSGA-III niching: members associate with their nearest
    reference line, and the emptiest niches claim members first (their
    closest member when the niche is empty, a random associated member
    otherwise; exhausted reference points drop out). Output is sorted by
    individual id; deterministic given the rng state.
    """
    if len(R) < N:
        raise ValueError(f"cannot select {N} from {len(R)} individuals")
    if len(R) == N:
        return sorted(R, key=lambda ind: ind.id)
    objs = [ind.objectives for ind in R]
    if any(o is None for o in objs):
        raise ValueError("all individuals must be evaluated before selection")
    fronts = nondominated_sort(objs)
    selected: list[int] = []
    splitting: list[int] = []
    for front in fronts:
        if len(selected) + len(front) <= N:
            selected.extend(front)
            if len(selected) == N:
                return sorted((R[i] for i in selected), key=lambda ind: ind.id)
        else:
            splitting = front
            break
    slots = N - len(selected)
    pool_idx = selected + splitting
    normed = normalize([objs[i] for i in pool_idx])
    dist = _perpendicular_distances(normed, Z.points)
    assoc = dist.argmin(axis=1)
    member_dist = dist[np.arange(len(pool_idx)), assoc]
    n_sel = len(selected)
    niche_counts = np.zeros(len(Z), dtype=np.int64)
    for j in assoc[:n_sel]:
        niche_counts[j] += 1
    cand_assoc = assoc[n_sel:]
    cand_dist = member_dist[n_sel:]
    available = np.ones(len(splitting), dtype=bool)
    active = np.ones(len(Z), dtype=bool)
    chosen: list[int] = []
    while len(chosen) < slots:
        counts = np.where(active, niche_counts, np.iinfo(np.int64).max)
        minimal = np.flatnonzero(counts == counts.min())
        j = int(minimal[rng.integers(len(minimal))])
        members = np.flatnonzero(available & (cand_assoc == j))
        if members.size == 0:
            active[j] = False
            continue
        if niche_counts[j] == 0:
            # closest member wins the empty niche; break ties by id
            best = min(members, key=lambda m: (cand_dist[m], R[splitting[m]].id))
        else:
            best = int(members[rng.integers(members.size)])
        available[best] = False
        chosen.append(splitting[best])
        niche_counts[j] += 1
    return sorted((R[i] for i in selected + chosen), key=lambda ind: ind.id)
