"""Reference formulas the library is checked against, written in their
plainest scalar form and independent of the code paths they check."""
import numpy as np

from evofusion.model import WEIGHT_MAX, WEIGHT_MIN, FusionGene, Genotype


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


def masked_sigmoid(z):
    """Logistic function by boolean masks: 1 / (1 + exp(-z)) where
    z >= 0 and exp(z) / (1 + exp(z)) elsewhere (NaN included)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def aligned_weight(g, pool_index: int, slot: int) -> float:
    """Weight of the first gene selecting pool_index (slot 0 = w_c,
    1 = w_f); 0.0 when the genotype does not select that entry."""
    for gene in g.genes:
        if gene.pool_index == pool_index:
            return gene.w_c if slot == 0 else gene.w_f
    return 0.0


def scan_batch_de(offspring, parent_best, cfg, rng):
    """DE/current-to-best/1 over weight dimensions, looking every aligned
    weight up with ``aligned_weight``. Draws from rng in the order
    ``operators.batch_de`` documents: per offspring one apply draw, and
    when it applies two donor picks, the forced dimension and one
    crossover draw per dimension."""
    if len(offspring) < 3:
        return list(offspring)
    result = []
    for i, geno in enumerate(offspring):
        if float(rng.random()) >= cfg.de_apply_prob:
            result.append(geno)
            continue
        donors = [j for j in range(len(offspring)) if j != i]
        picks = rng.choice(len(donors), size=2, replace=False)
        r1 = offspring[donors[int(picks[0])]]
        r2 = offspring[donors[int(picks[1])]]
        dims = [(gi, slot) for gi in range(len(geno.genes)) for slot in (0, 1)]
        forced = int(rng.integers(len(dims)))
        cross = rng.random(len(dims))
        new_weights = []
        for d, (gi, slot) in enumerate(dims):
            gene = geno.genes[gi]
            x = gene.w_c if slot == 0 else gene.w_f
            k = gene.pool_index
            v = x + cfg.de_F * (aligned_weight(parent_best, k, slot) - x)
            v += cfg.de_F * (aligned_weight(r1, k, slot) - aligned_weight(r2, k, slot))
            take = cross[d] < cfg.de_CR or d == forced
            new_weights.append(min(max(v, WEIGHT_MIN), WEIGHT_MAX) if take else x)
        genes = tuple(
            FusionGene(gene.pool_index, gene.op, new_weights[2 * gi], new_weights[2 * gi + 1])
            for gi, gene in enumerate(geno.genes)
        )
        result.append(Genotype(genes))
    return result
