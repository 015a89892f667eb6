"""Domain types: tasks, fusion genes, genotypes, objectives, populations.

A genotype describes one fusion strategy: which entries of a task's
candidate feature pool to combine, with which elementwise operator and
which continuous weights. Pool indices are aligned across tasks (see
``map_pool_index``), so genotypes from different tasks live in a shared
search space and can be compared or transferred directly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

OPERATORS = ("add", "mul", "max", "min", "diff", "avg")

WEIGHT_MIN = 0.1
WEIGHT_MAX = 2.0
INIT_WEIGHT_LOW = 0.5
INIT_WEIGHT_HIGH = 1.5

KIND_SINGLE = "single"
KIND_PRIMARY = "primary_with_aux"
KIND_AUX = "aux_for"


@dataclass(frozen=True)
class TaskDescriptor:
    """One task of a run: its name, its index in the run's task list and
    the size of its pool. The driver builds these from the task list."""

    name: str
    position: int
    pool_size: int


@dataclass(frozen=True)
class FusionGene:
    """One fusion step: pool entry, elementwise operator, two weights."""

    pool_index: int
    op: str
    w_c: float
    w_f: float


@dataclass(frozen=True)
class Genotype:
    """Ordered gene list. The first gene seeds the accumulator, so its
    (op, w_c, w_f) triplet is carried but never applied."""

    genes: tuple[FusionGene, ...]

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.genes)

    def __hash__(self):
        # every eval-cache lookup hashes the genotype, so it is hashed once
        return self._hash

    def __reduce__(self):
        # a str's hash depends on PYTHONHASHSEED: a loaded genotype rehashes
        return (Genotype, (self.genes,))

    def __len__(self):
        return len(self.genes)

    def validate(self, pool_size: int, max_len: int) -> None:
        """Raise ValueError if any genotype invariant is violated."""
        m = len(self.genes)
        if m < 1:
            raise ValueError("genotype must contain at least one gene")
        if m > max_len:
            raise ValueError(f"genotype length {m} exceeds max {max_len}")
        seen = set()
        for g in self.genes:
            if not 0 <= g.pool_index < pool_size:
                raise ValueError(f"pool index {g.pool_index} out of range")
            if g.pool_index in seen:
                raise ValueError(f"duplicate pool index {g.pool_index}")
            seen.add(g.pool_index)
            if g.op not in OPERATORS:
                raise ValueError(f"unknown operator {g.op!r}")
            for w in (g.w_c, g.w_f):
                if not WEIGHT_MIN <= w <= WEIGHT_MAX:
                    raise ValueError(f"weight {w} outside [{WEIGHT_MIN}, {WEIGHT_MAX}]")


@dataclass(frozen=True)
class ObjectiveVector:
    """Minimized pair: g1 = 1 - validation AUPRC, g2 = validation FPR."""

    g1: float
    g2: float

    def __post_init__(self):
        for v in (self.g1, self.g2):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"objective {v} outside [0, 1]")

    def __iter__(self):
        yield self.g1
        yield self.g2


@dataclass(eq=False)
class Individual:
    """An evaluated (or pending) fusion strategy of one task."""

    id: int
    task: int
    genotype: Genotype
    objectives: ObjectiveVector | None = None
    proxy: Any = None
    # never set, as no evaluation can fail; the benchmark's tracer reads it
    failed: bool = False

    def sort_key(self) -> tuple[float, float, int]:
        """Primary-objective ranking key: (g1, g2, id), lower is better."""
        o = self.objectives
        if o is None:
            raise ValueError(f"individual {self.id} not evaluated")
        return (o.g1, o.g2, self.id)


@dataclass(eq=False)
class TaskPopulation:
    task: TaskDescriptor
    members: list[Individual] = field(default_factory=list)


@dataclass(frozen=True)
class PoolRole:
    """What a pool index means for a given target task."""

    kind: str
    partner: int


def aligned_pool_size(task_count: int) -> int:
    """Entries in each task's pool in a run of ``task_count`` tasks."""
    return 2 * task_count - 1


def map_pool_index(task_position: int, pool_index: int, task_count: int) -> PoolRole:
    """Decode the semantically aligned pool layout for one target task.

    For T tasks in fixed lexicographic order, a target task at position
    tau sees a pool of ``aligned_pool_size(T)`` = 2T - 1 entries:

    * indices 0..T-1: the target acts as primary; index k pairs it with
      task k as auxiliary context. Index k == tau is the target's own
      single-task entry (no auxiliary).
    * indices T..2T-2: role reversal; entry k supports the (k - T)-th
      task of the order with tau removed, the target acting as auxiliary.

    Index k < T therefore refers to the same global task identity
    regardless of which task is the target, which is what makes genotypes
    comparable across tasks.
    """
    if not 0 <= task_position < task_count:
        raise ValueError(f"task position {task_position} out of range for T={task_count}")
    if not 0 <= pool_index < aligned_pool_size(task_count):
        raise ValueError(f"pool index {pool_index} out of range for T={task_count}")
    if pool_index < task_count:
        if pool_index == task_position:
            return PoolRole(KIND_SINGLE, task_position)
        return PoolRole(KIND_PRIMARY, pool_index)
    others = [t for t in range(task_count) if t != task_position]
    return PoolRole(KIND_AUX, others[pool_index - task_count])


def vectorize_genotype(g: Genotype, pool_size: int) -> np.ndarray:
    """Embed a genotype as a fixed-length vector for similarity ranking.

    Slot k of the pool owns components (3k, 3k+1, 3k+2):

    * 3k:   1.0 if pool entry k is selected, else 0.0
    * 3k+1: (operator code + 1) / 6 for a selected non-first gene
    * 3k+2: mean gene weight mapped onto [0, 1]

    The first gene's operator and weights are inert during fusion, so it
    contributes only its selection bit. All components lie in [0, 1] and
    the embedding depends only on which entries are selected (plus which
    one comes first), not on gene order.
    """
    vec = np.zeros(3 * pool_size, dtype=np.float64)
    for i, gene in enumerate(g.genes):
        k = gene.pool_index
        vec[3 * k] = 1.0
        if i == 0:
            continue
        vec[3 * k + 1] = (OPERATORS.index(gene.op) + 1) / 6.0
        w = (gene.w_c + gene.w_f) / 2.0
        vec[3 * k + 2] = (w - WEIGHT_MIN) / (WEIGHT_MAX - WEIGHT_MIN)
    return vec


def random_gene(rng: np.random.Generator, pool_index: int) -> FusionGene:
    op = OPERATORS[rng.integers(len(OPERATORS))]
    w_c = float(rng.uniform(INIT_WEIGHT_LOW, INIT_WEIGHT_HIGH))
    w_f = float(rng.uniform(INIT_WEIGHT_LOW, INIT_WEIGHT_HIGH))
    return FusionGene(int(pool_index), op, w_c, w_f)


def random_genotype(rng: np.random.Generator, pool_size: int, max_len: int) -> Genotype:
    """Draw a uniform random genotype: length in [1, max_len], distinct
    pool indices, uniform operators, weights in [0.5, 1.5]."""
    if pool_size < 1 or max_len < 1:
        raise ValueError("pool_size and max_len must be >= 1")
    upper = min(max_len, pool_size)
    m = int(rng.integers(1, upper + 1))
    indices = rng.choice(pool_size, size=m, replace=False)
    return Genotype(tuple(random_gene(rng, k) for k in indices))
