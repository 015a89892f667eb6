"""Variation pipeline: tournament selection, single-point crossover, the
three mutation levels (structure / operator / weights), batch
DE/current-to-best/1 weight refinement, and the offspring generator that
wires them together."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .model import (
    INIT_WEIGHT_HIGH,
    INIT_WEIGHT_LOW,
    OPERATORS,
    WEIGHT_MAX,
    WEIGHT_MIN,
    FusionGene,
    Genotype,
    Individual,
    TaskPopulation,
    random_gene,
)

if TYPE_CHECKING:
    from .neighborhood import NeighborEntry

GAUSS_SIGMA = 0.1
# gates of the structure, operator and weight mutations (drawn in that
# order once mutation fires) and the tournament size of parent selection
STRUCT_PROB = OP_PROB = WEIGHT_PROB = 0.5
TOURNAMENT_SIZE = 2


@dataclass(frozen=True)
class EvoConfig:
    """Knobs of the evolutionary search. Defaults follow the reference
    configuration: population 50, 40 generations, crossover 0.9,
    mutation 0.6, max genotype length 25, neighborhood of 10% of the
    population, grey-relational rho 0.25."""

    population_size: int = 50
    generations: int = 40
    crossover_prob: float = 0.9
    mutation_prob: float = 0.6
    transfer_prob: float = 0.3
    de_apply_prob: float = 0.5
    de_F: float = 0.5
    de_CR: float = 0.9
    max_feature_length: int = 25
    elite_fraction: float = 0.2
    neighborhood_size: int | None = None
    grg_rho: float = 0.25
    seed: int = 0

    def __post_init__(self):
        probs = (
            self.crossover_prob,
            self.mutation_prob,
            self.transfer_prob,
            self.de_apply_prob,
            self.de_CR,
            self.elite_fraction,
        )
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.generations < 0 or self.seed < 0:
            raise ValueError("generations and seed must be >= 0")
        if self.max_feature_length < 1:
            raise ValueError("max_feature_length must be >= 1")
        if self.neighborhood_size is not None and self.neighborhood_size < 1:
            raise ValueError("neighborhood_size must be >= 1")
        if self.grg_rho <= 0:
            raise ValueError("grg_rho must be > 0")

    @property
    def neighborhood_k(self) -> int:
        if self.neighborhood_size is not None:
            return self.neighborhood_size
        return math.ceil(0.1 * self.population_size)


def tournament(pop: TaskPopulation, size: int, rng: np.random.Generator) -> Individual:
    """Sample `size` members with replacement; best (g1, g2, id) wins."""
    if not pop.members:
        raise ValueError("empty population")
    picks = rng.integers(len(pop.members), size=size)
    return min((pop.members[i] for i in picks), key=Individual.sort_key)


def crossover(p1: Genotype, p2: Genotype, max_len: int, rng: np.random.Generator) -> Genotype:
    """Single-point crossover keeping a prefix of p1 and a suffix of p2.

    Duplicate pool indices keep their first occurrence, and the child is
    truncated to max_len; the p1 prefix is never empty so the child has
    at least one gene.
    """
    m1, m2 = len(p1.genes), len(p2.genes)
    c1 = int(rng.integers(1, m1 + 1))
    c2 = int(rng.integers(0, m2 + 1))
    merged = list(p1.genes[:c1]) + list(p2.genes[c2:])
    seen = set()
    genes = []
    for gene in merged:
        if gene.pool_index in seen:
            continue
        seen.add(gene.pool_index)
        genes.append(gene)
        if len(genes) == max_len:
            break
    return Genotype(tuple(genes))


def mutate_structural(
    g: Genotype, pool_size: int, max_len: int, rng: np.random.Generator
) -> Genotype:
    """Insert a fresh gene, delete a gene, or re-point one gene at an
    unused pool entry; infeasible choices leave the genotype unchanged."""
    genes = list(g.genes)
    used = {gene.pool_index for gene in genes}
    unused = [k for k in range(pool_size) if k not in used]
    choice = int(rng.integers(3))
    if choice == 0:  # insert
        if len(genes) >= max_len or not unused:
            return g
        k = unused[int(rng.integers(len(unused)))]
        pos = int(rng.integers(len(genes) + 1))
        genes.insert(pos, random_gene(rng, k))
    elif choice == 1:  # delete
        if len(genes) == 1:
            return g
        genes.pop(int(rng.integers(len(genes))))
    else:  # replace pool index, keep op and weights
        if not unused:
            return g
        pos = int(rng.integers(len(genes)))
        k = unused[int(rng.integers(len(unused)))]
        old = genes[pos]
        genes[pos] = FusionGene(k, old.op, old.w_c, old.w_f)
    return Genotype(tuple(genes))


def mutate_operator(g: Genotype, rng: np.random.Generator) -> Genotype:
    """Re-sample one non-first gene's operator from the other five."""
    if len(g.genes) == 1:
        return g
    genes = list(g.genes)
    pos = 1 + int(rng.integers(len(genes) - 1))
    old = genes[pos]
    alternatives = [op for op in OPERATORS if op != old.op]
    new_op = alternatives[int(rng.integers(len(alternatives)))]
    genes[pos] = FusionGene(old.pool_index, new_op, old.w_c, old.w_f)
    return Genotype(tuple(genes))


def _clip_weight(w: float) -> float:
    return min(max(w, WEIGHT_MIN), WEIGHT_MAX)


def mutate_weight(
    g: Genotype, neighborhood: Sequence[Genotype] | None, rng: np.random.Generator
) -> Genotype:
    """Perturb the continuous weights.

    With a neighborhood, one neighbor is drawn and every gene sharing a
    pool index with it blends toward the neighbor's weights by a uniform
    random fraction; unmatched genes (and all genes when there is no
    neighborhood) get Gaussian noise with sigma 0.1. Weights are clipped
    to their bounds.
    """
    neighbor_genes: dict[int, FusionGene] = {}
    if neighborhood:
        e = neighborhood[int(rng.integers(len(neighborhood)))]
        neighbor_genes = {gene.pool_index: gene for gene in e.genes}
    genes = []
    for gene in g.genes:
        match = neighbor_genes.get(gene.pool_index)
        if match is not None:
            w_c = gene.w_c + float(rng.random()) * (match.w_c - gene.w_c)
            w_f = gene.w_f + float(rng.random()) * (match.w_f - gene.w_f)
        else:
            w_c = gene.w_c + float(rng.normal(0.0, GAUSS_SIGMA))
            w_f = gene.w_f + float(rng.normal(0.0, GAUSS_SIGMA))
        genes.append(FusionGene(gene.pool_index, gene.op, _clip_weight(w_c), _clip_weight(w_f)))
    return Genotype(tuple(genes))


_ABSENT = (0.0, 0.0)


def _weights_by_index(g: Genotype) -> dict[int, tuple[float, float]]:
    """(w_c, w_f) of each pool index a genotype selects; the first gene
    selecting an index wins."""
    weights: dict[int, tuple[float, float]] = {}
    for gene in g.genes:
        weights.setdefault(gene.pool_index, (gene.w_c, gene.w_f))
    return weights


def batch_de(
    offspring: list[Genotype],
    parent_best: Genotype,
    cfg: EvoConfig,
    rng: np.random.Generator,
) -> list[Genotype]:
    """DE/current-to-best/1 refinement of offspring weight genes.

    Each offspring is refined with probability cfg.de_apply_prob. Weight
    dimensions are aligned by pool index across genotypes, with absent
    alignments contributing 0. The trial
    v = x + F * (best - x) + F * (r1 - r2), with r1 and r2 distinct
    donors from the offspring batch, goes through binomial crossover
    (rate de_CR, one forced dimension) and replaces the weights
    unconditionally after clipping. Structure (pool indices, operators)
    is never touched, and batches smaller than 3 pass through unchanged.
    """
    if len(offspring) < 3:
        return list(offspring)
    best = _weights_by_index(parent_best)
    aligned = [_weights_by_index(g) for g in offspring]
    F = cfg.de_F
    result = []
    for i, geno in enumerate(offspring):
        if float(rng.random()) >= cfg.de_apply_prob:
            result.append(geno)
            continue
        # donors are the other offspring: pick p skips over i
        picks = rng.choice(len(offspring) - 1, size=2, replace=False)
        r1, r2 = (aligned[p + (p >= i)] for p in (int(picks[0]), int(picks[1])))
        # dimension 2 * gene + slot, slot 0 = w_c and 1 = w_f
        forced = int(rng.integers(2 * len(geno.genes)))
        cross = rng.random(2 * len(geno.genes))
        genes = []
        for gi, gene in enumerate(geno.genes):
            k = gene.pool_index
            b, a1, a2 = best.get(k, _ABSENT), r1.get(k, _ABSENT), r2.get(k, _ABSENT)
            w = [gene.w_c, gene.w_f]
            for slot in (0, 1):
                d = 2 * gi + slot
                if cross[d] < cfg.de_CR or d == forced:
                    v = w[slot] + F * (b[slot] - w[slot])
                    v += F * (a1[slot] - a2[slot])
                    w[slot] = _clip_weight(v)
            genes.append(FusionGene(k, gene.op, w[0], w[1]))
        result.append(Genotype(tuple(genes)))
    return result


def generate_offspring(
    pop: TaskPopulation,
    neighborhood: dict[int, list["NeighborEntry"]],
    cfg: EvoConfig,
    rng: np.random.Generator,
) -> tuple[Genotype, int | None]:
    """Produce one offspring genotype.

    The first parent comes from a tournament; the second comes from the
    first parent's cross-task neighborhood with probability
    cfg.transfer_prob (when it is non-empty), otherwise from a second
    tournament. Crossover and the three mutations then fire under their
    independent gates. Returns the child plus the source task position
    when the second parent was neighborhood-sourced.
    """
    p1 = tournament(pop, TOURNAMENT_SIZE, rng)
    entries = neighborhood.get(p1.id, [])
    source = None
    if float(rng.random()) < cfg.transfer_prob and entries:
        entry = entries[int(rng.integers(len(entries)))]
        p2 = entry.elite.genotype
        source = entry.source_task
    else:
        p2 = tournament(pop, TOURNAMENT_SIZE, rng).genotype
    child = p1.genotype
    pool_size = pop.task.pool_size
    if float(rng.random()) < cfg.crossover_prob:
        child = crossover(p1.genotype, p2, cfg.max_feature_length, rng)
    if float(rng.random()) < cfg.mutation_prob:
        if float(rng.random()) < STRUCT_PROB:
            child = mutate_structural(child, pool_size, cfg.max_feature_length, rng)
        if float(rng.random()) < OP_PROB:
            child = mutate_operator(child, rng)
        if float(rng.random()) < WEIGHT_PROB:
            guides = [e.elite.genotype for e in entries] or None
            child = mutate_weight(child, guides, rng)
    return child, source
