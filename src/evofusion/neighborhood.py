"""Cross-task elite neighborhoods ranked by grey relational grade.

Each generation, every task publishes its top members into a shared
elite pool; every individual then keeps the K foreign elites whose
genotype embeddings are most similar to its own. Those neighbors serve
as second parents and weight-mutation guides, steering tasks toward
fusion strategies that already work elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Individual, TaskPopulation, vectorize_genotype
from .operators import EvoConfig

NeighborhoodMap = dict[int, dict[int, list["NeighborEntry"]]]


@dataclass(frozen=True, eq=False)
class NeighborEntry:
    elite: Individual
    source_task: int
    grade: float


def grg(x, rows, rho: float) -> np.ndarray:
    """Grey relational grade of vector x against each row of a 2-D array.

    With deviations d_i = |row_i - x_i| and their min/max over dimensions,
    the per-dimension coefficient is
    (d_min + rho * d_max) / (d_i + rho * d_max) and a row's grade is the
    coefficient mean. A row identical to x grades 1 by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if x.ndim != 1 or x.size < 1 or rows.ndim != 2 or rows.shape[1] != x.size:
        raise ValueError("need a non-empty 1-D vector and rows of its length")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    delta = np.abs(rows - x)
    d_max = delta.max(axis=1, keepdims=True)
    d_min = delta.min(axis=1, keepdims=True)
    safe = np.where(d_max > 0.0, d_max, 1.0)
    zeta = (d_min + rho * safe) / (delta + rho * safe)
    grades = zeta.mean(axis=1)
    return np.where(d_max[:, 0] > 0.0, grades, 1.0)


def select_elites(pop: TaskPopulation, fraction: float) -> list[Individual]:
    """Top ceil(fraction * N) members by (g1, g2, id)."""
    if not pop.members:
        return []
    count = math.ceil(fraction * len(pop.members))
    return sorted(pop.members, key=Individual.sort_key)[:count]


def build_neighborhoods(pops: list[TaskPopulation], cfg: EvoConfig) -> NeighborhoodMap:
    """Build per-individual neighborhoods of foreign elites.

    Every task contributes its elite fraction to a global pool; each
    individual keeps the top-K most similar elites from other tasks,
    ranked by grey relational grade over the genotype embedding (ties by
    source task position, then elite id). With a single task every
    neighborhood is empty.
    """
    elites: list[tuple[Individual, int, np.ndarray]] = []
    for pop in pops:
        pool_size = pop.task.pool_size
        for elite in select_elites(pop, cfg.elite_fraction):
            vec = vectorize_genotype(elite.genotype, pool_size)
            elites.append((elite, pop.task.position, vec))
    result: NeighborhoodMap = {}
    k = cfg.neighborhood_k
    for pop in pops:
        t = pop.task.position
        foreign = [(e, src, vec) for e, src, vec in elites if src != t]
        task_map: dict[int, list[NeighborEntry]] = {}
        if foreign:
            matrix = np.stack([vec for _, _, vec in foreign])
            sources = np.array([src for _, src, _ in foreign])
            ids = np.array([e.id for e, _, _ in foreign])
            for ind in pop.members:
                x = vectorize_genotype(ind.genotype, pop.task.pool_size)
                grades = grg(x, matrix, cfg.grg_rho)
                # last key is primary: grade descending, then source, then id
                order = np.lexsort((ids, sources, -grades))[:k]
                task_map[ind.id] = [
                    NeighborEntry(foreign[i][0], foreign[i][1], float(grades[i])) for i in order
                ]
        else:
            task_map = {ind.id: [] for ind in pop.members}
        result[t] = task_map
    return result
