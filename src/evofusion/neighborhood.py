"""Cross-task elite neighborhoods ranked by grey relational grade.

Each generation, every task publishes its top members into a shared
elite pool; every individual then keeps the K foreign elites whose
genotype embeddings are most similar to its own. Those neighbors serve
as second parents and weight-mutation guides, steering tasks toward
fusion strategies that already work elsewhere.
"""
from __future__ import annotations

import math

import numpy as np

from .model import Individual, TaskPopulation, vectorize_genotype
from .operators import EvoConfig

# task position -> member id -> foreign elites, best first
NeighborhoodMap = dict[int, dict[int, list[Individual]]]


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


def publish_elites(pops: list[TaskPopulation], cfg: EvoConfig) -> list[Individual]:
    """Each task's elite fraction, task by task, as copies without the
    trained head: id, source task position, genotype and objectives are
    all a neighborhood needs, and all a worker process sends the others.
    Without transfer no task publishes, so every neighborhood is empty."""
    if cfg.transfer_prob == 0:
        return []
    return [
        Individual(elite.id, pop.task.position, elite.genotype, elite.objectives)
        for pop in pops
        for elite in select_elites(pop, cfg.elite_fraction)
    ]


def build_neighborhoods(
    elites: list[Individual], pops: list[TaskPopulation], cfg: EvoConfig
) -> NeighborhoodMap:
    """Build per-individual neighborhoods of foreign elites.

    ``elites`` is the global pool that ``publish_elites`` makes from
    every task; ``pops`` may be any subset of the tasks. Each member of
    ``pops`` keeps the top-K most similar elites from other tasks, the
    very objects of ``elites``, ranked by grey relational grade over the
    genotype embedding (descending; ties by source task position, then
    elite id). The ranking keys are unique, so a task's map does not
    depend on which other tasks are in ``pops``. With no foreign elite
    every neighborhood is empty.
    """
    result: NeighborhoodMap = {}
    if not pops:
        return result
    # every task of a run shares the 2T-1 pool layout
    pool_size = pops[0].task.pool_size
    vectors = [vectorize_genotype(elite.genotype, pool_size) for elite in elites]
    all_sources = np.array([elite.task for elite in elites], dtype=np.int64)
    all_ids = np.array([elite.id for elite in elites], dtype=np.int64)
    k = cfg.neighborhood_k
    for pop in pops:
        t = pop.task.position
        foreign = np.flatnonzero(all_sources != t)
        task_map: dict[int, list[Individual]] = {}
        if foreign.size:
            matrix = np.stack([vectors[i] for i in foreign])
            sources = all_sources[foreign]
            ids = all_ids[foreign]
            for ind in pop.members:
                x = vectorize_genotype(ind.genotype, pool_size)
                grades = grg(x, matrix, cfg.grg_rho)
                # last key is primary: grade descending, then source, then id
                order = np.lexsort((ids, sources, -grades))[:k]
                task_map[ind.id] = [elites[foreign[i]] for i in order]
        else:
            task_map = {ind.id: [] for ind in pop.members}
        result[t] = task_map
    return result
