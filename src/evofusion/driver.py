"""Orchestration of the multi-task search.

Each task evolves its own population; once per generation the tasks
exchange elite genotypes through the neighborhood mechanism and then
advance independently (offspring generation, batch DE weight
refinement, evaluation, NSGA-III truncation). Every task owns an rng
stream spawned from (seed, task position), so a task's results do not
depend on the order in which the tasks are advanced.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import TaskData
from .fusion import fuse_genotype
from .model import (
    FusionGene,
    Genotype,
    Individual,
    ObjectiveVector,
    TaskPopulation,
    random_genotype,
)
from .neighborhood import build_neighborhoods
from .nsga3 import ReferenceSet, das_dennis, environmental_selection, nondominated_sort
from .operators import EvoConfig, batch_de, generate_offspring
from .proxy import ProxyConfig, evaluate_individual

# id space: each task owns a disjoint block, keeping ids unique and
# schedule-independent
ID_STRIDE = 10 ** 7


@dataclass(eq=False)
class GenerationStats:
    generation: int
    best_g1: float
    best_g2: float
    mean_g1: float
    transfers: dict[int, int]


@dataclass(eq=False)
class TaskResult:
    task_name: str
    task_position: int
    population: TaskPopulation
    pareto: list[Individual]
    strategy: Individual
    initial_best: ObjectiveVector
    history: list[GenerationStats]


@dataclass(eq=False)
class RunResult:
    tasks: list[TaskResult]


def _task_rng(seed: int, position: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(position,)))


def _population_stats(pop: TaskPopulation, generation: int, transfers) -> GenerationStats:
    g1s = [ind.objectives.g1 for ind in pop.members]
    g2s = [ind.objectives.g2 for ind in pop.members]
    return GenerationStats(
        generation=generation,
        best_g1=min(g1s),
        best_g2=min(g2s),
        mean_g1=float(np.mean(g1s)),
        transfers=dict(transfers),
    )


def _validate_tasks(tasks: list[TaskData]) -> None:
    if not tasks:
        raise ValueError("need at least one task")
    pool_size = 2 * len(tasks) - 1
    for task in tasks:
        d = task.descriptor
        if len(task.pool) != pool_size:
            raise ValueError(f"task {d.name}: expected {pool_size} pool entries")
        shapes = {entry.shape for entry in task.pool}
        if len(shapes) != 1:
            raise ValueError(f"task {d.name}: pool entries disagree on shape: {shapes}")
        (shape,) = shapes
        if shape[0] != d.residue_count:
            raise ValueError(f"task {d.name}: pool rows {shape[0]} != residues {d.residue_count}")
        if task.labels.shape != (d.residue_count,):
            raise ValueError(f"task {d.name}: label length mismatch")
        if not ((task.labels == 0) | (task.labels == 1)).all():
            raise ValueError(f"task {d.name}: labels must be 0/1")
        if not task.labels[task.val_idx].any():
            raise ValueError(f"task {d.name}: validation split has no positives")
        train = task.labels[task.train_idx]
        if not train.any() or train.all():
            raise ValueError(f"task {d.name}: training split needs both classes")
        if np.intersect1d(task.train_idx, task.val_idx).size:
            raise ValueError(f"task {d.name}: train and validation indices overlap")


def _pareto_front(pop: TaskPopulation) -> list[Individual]:
    fronts = nondominated_sort([ind.objectives for ind in pop.members])
    return sorted((pop.members[i] for i in fronts[0]), key=lambda ind: ind.id)


def _task_result(
    pop: TaskPopulation, initial_best: ObjectiveVector, history: list[GenerationStats]
) -> TaskResult:
    pareto = _pareto_front(pop)
    return TaskResult(
        task_name=pop.task.name,
        task_position=pop.task.position,
        population=pop,
        pareto=pareto,
        strategy=select_strategy(pareto),
        initial_best=initial_best,
        history=history,
    )


def select_strategy(pareto: list[Individual]) -> Individual:
    """Pick the deployment strategy from a Pareto set: lowest g1, then
    lowest g2, then shortest genotype, then lowest id."""
    if not pareto:
        raise ValueError("empty Pareto set")
    return min(pareto, key=lambda ind: (*ind.sort_key()[:2], len(ind.genotype), ind.id))


def predict(strategy: Individual, pool: list[np.ndarray]) -> np.ndarray:
    """Score a pool with a trained strategy: fuse, standardize, apply
    the stored head, sigmoid. Returns one probability per row."""
    if strategy.proxy is None:
        raise ValueError("strategy has no trained head")
    d = strategy.proxy.coefficients.shape[0]
    for i, entry in enumerate(pool):
        if entry.ndim != 2 or entry.shape[1] != d:
            raise ValueError(f"pool entry {i} has {entry.shape[1]} columns, head expects {d}")
    fused = fuse_genotype(strategy.genotype, pool)
    return strategy.proxy.scores(fused)


def naive_mean_genotype(pool_size: int) -> Genotype:
    """Equal-weight aggregation of the whole pool: a unit-weight add
    chain over every entry. Standardization makes this equivalent to the
    arithmetic mean of the pool."""
    genes = [FusionGene(0, "add", 1.0, 1.0)]
    genes += [FusionGene(k, "add", 1.0, 1.0) for k in range(1, pool_size)]
    return Genotype(tuple(genes))


def run_naive_mean(tasks: list[TaskData], proxy_cfg: ProxyConfig) -> RunResult:
    """Evaluate the naive-mean baseline on every task, without evolution.

    Each task's population, Pareto set and strategy are the one naive-mean
    individual, and its history is empty. Raises ValueError when a task
    fails the checks of run_evolution or its evaluation fails.
    """
    _validate_tasks(tasks)
    results = []
    for task in tasks:
        d = task.descriptor
        ind = Individual(d.position * ID_STRIDE, d.position, naive_mean_genotype(d.pool_size))
        evaluate_individual(ind, task, proxy_cfg)
        if ind.failed:
            raise ValueError(f"naive mean evaluation failed on task {d.name}")
        results.append(_task_result(TaskPopulation(d, [ind]), ind.objectives, []))
    return RunResult(results)


class _TaskState:
    """Mutable per-task evolution state."""

    def __init__(self, task: TaskData, cfg: EvoConfig):
        self.task = task
        self.rng = _task_rng(cfg.seed, task.descriptor.position)
        self.next_id = task.descriptor.position * ID_STRIDE
        self.population = TaskPopulation(task.descriptor, [])
        # evaluation is a pure function of the genotype, so identical
        # genotypes (crossover copies, DE no-ops) reuse their result
        self.eval_cache: dict[Genotype, tuple] = {}

    def take_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def evaluate(self, ind: Individual, proxy_cfg: ProxyConfig) -> None:
        hit = self.eval_cache.get(ind.genotype)
        if hit is None:
            evaluate_individual(ind, self.task, proxy_cfg)
            self.eval_cache[ind.genotype] = (ind.objectives, ind.proxy, ind.failed)
        else:
            ind.objectives, ind.proxy, ind.failed = hit


def _init_task(state: _TaskState, cfg: EvoConfig, proxy_cfg: ProxyConfig) -> None:
    members = []
    for _ in range(cfg.population_size):
        genotype = random_genotype(state.rng, state.task.descriptor.pool_size, cfg.max_feature_length)
        ind = Individual(state.take_id(), state.task.descriptor.position, genotype)
        state.evaluate(ind, proxy_cfg)
        members.append(ind)
    state.population = TaskPopulation(state.task.descriptor, members)


def _advance_task(
    state: _TaskState,
    neighborhood: dict,
    Z: ReferenceSet,
    generation: int,
    cfg: EvoConfig,
    proxy_cfg: ProxyConfig,
) -> GenerationStats:
    pop = state.population
    transfers: Counter = Counter()
    offspring_genotypes = []
    for _ in range(cfg.population_size):
        child, source = generate_offspring(pop, neighborhood, cfg, state.rng)
        if source is not None:
            transfers[source] += 1
        offspring_genotypes.append(child)
    parent_best = min(pop.members, key=Individual.sort_key).genotype
    offspring_genotypes = batch_de(offspring_genotypes, parent_best, cfg, state.rng)
    offspring = []
    for genotype in offspring_genotypes:
        ind = Individual(state.take_id(), pop.task.position, genotype)
        state.evaluate(ind, proxy_cfg)
        offspring.append(ind)
    union = pop.members + offspring
    survivors = environmental_selection(union, cfg.population_size, Z, state.rng)
    state.population = TaskPopulation(pop.task, survivors)
    return _population_stats(state.population, generation, transfers)


def run_evolution(tasks: list[TaskData], cfg: EvoConfig, proxy_cfg: ProxyConfig) -> RunResult:
    """Run the full multi-task search and return per-task results.

    Deterministic given cfg.seed: tasks only interact at the generation
    barrier where neighborhoods are rebuilt from all populations.
    """
    _validate_tasks(tasks)
    states = [_TaskState(task, cfg) for task in tasks]
    for state in states:
        _init_task(state, cfg, proxy_cfg)
    initial_best = [min((ind.objectives for ind in s.population.members), key=tuple) for s in states]
    histories: list[list[GenerationStats]] = [[] for _ in states]
    Z = das_dennis(cfg.population_size - 1)
    use_neighbors = cfg.transfer_prob > 0 and len(tasks) > 1
    for generation in range(1, cfg.generations + 1):
        if use_neighbors:
            nmap = build_neighborhoods([s.population for s in states], cfg)
        else:
            nmap = {s.task.descriptor.position: {} for s in states}
        for state, history in zip(states, histories):
            neighborhood = nmap[state.task.descriptor.position]
            history.append(_advance_task(state, neighborhood, Z, generation, cfg, proxy_cfg))
    return RunResult(
        [_task_result(s.population, best, h) for s, best, h in zip(states, initial_best, histories)]
    )
