import numpy as np
import pytest

from evofusion.model import (
    OPERATORS,
    FusionGene,
    Genotype,
    Individual,
    ObjectiveVector,
    TaskDescriptor,
    TaskPopulation,
    random_genotype,
)
from evofusion.neighborhood import NeighborEntry
from evofusion.operators import (
    EvoConfig,
    batch_de,
    crossover,
    generate_offspring,
    mutate_operator,
    mutate_structural,
    mutate_weight,
    tournament,
)

from conftest import ScriptedRng, make_genotype
from oracles import scan_batch_de


def population(pairs, pool_size=7, task=0):
    desc = TaskDescriptor(f"task_{task:02d}", task, 100, pool_size)
    members = [
        Individual(i, task, make_genotype(i % pool_size), objectives=ObjectiveVector(a, b))
        for i, (a, b) in enumerate(pairs)
    ]
    return TaskPopulation(desc, members)


def structure(g: Genotype):
    return tuple((gene.pool_index, gene.op) for gene in g.genes)


class TestTournament:
    def test_singleton(self):
        pop = population([(0.4, 0.4)])
        assert tournament(pop, 2, np.random.default_rng(0)).id == 0

    def test_best_wins_when_drawn(self):
        pop = population([(0.9, 0.1), (0.1, 0.1)])
        winner = tournament(pop, 2, ScriptedRng(ints=[1, 1]))
        assert winner.id == 1

    def test_empirical_win_rate(self):
        # P(better wins) = 1 - (1/2)^2 = 0.75 for a 2-member pool, size 2
        pop = population([(0.1, 0.0), (0.9, 0.0)])
        rng = np.random.default_rng(123)
        wins = sum(tournament(pop, 2, rng).id == 0 for _ in range(10_000))
        assert wins / 10_000 == pytest.approx(0.75, abs=0.02)

    def test_tie_break_by_g2_then_id(self):
        pop = population([(0.5, 0.9), (0.5, 0.1)])
        assert tournament(pop, 2, ScriptedRng(ints=[0, 1])).id == 1
        pop2 = population([(0.5, 0.5), (0.5, 0.5)])
        assert tournament(pop2, 2, ScriptedRng(ints=[1, 0])).id == 0

    def test_empty_population(self):
        desc = TaskDescriptor("task_00", 0, 10, 3)
        with pytest.raises(ValueError):
            tournament(TaskPopulation(desc, []), 2, np.random.default_rng(0))


class TestCrossover:
    def test_suffix_cut_at_end_gives_prefix_of_p1(self):
        p1 = make_genotype(0, 1, 2)
        p2 = make_genotype(3, 4)
        child = crossover(p1, p2, 10, ScriptedRng(ints=[2, 2]))
        assert child.genes == p1.genes[:2]

    def test_hand_case(self):
        p1 = make_genotype((0, "add"), (1, "mul"), (2, "max"))
        p2 = make_genotype((3, "min"), (4, "diff"))
        child = crossover(p1, p2, 10, ScriptedRng(ints=[1, 1]))
        assert structure(child) == ((0, "add"), (4, "diff"))

    def test_shared_index_deduplicated(self):
        p1 = make_genotype((0, "add", 0.5, 0.5), 1)
        p2 = make_genotype((0, "mul", 1.5, 1.5), 2)
        child = crossover(p1, p2, 10, ScriptedRng(ints=[2, 0]))
        indices = child.pool_indices
        assert indices.count(0) == 1
        # first occurrence (from p1) wins
        assert child.genes[0].op == "add"

    def test_truncates_to_max_len(self):
        p1 = make_genotype(0, 1, 2)
        p2 = make_genotype(3, 4, 5)
        child = crossover(p1, p2, 4, ScriptedRng(ints=[3, 0]))
        assert len(child) == 4

    def test_always_valid(self, rng):
        for _ in range(20_000):
            p1 = random_genotype(rng, 9, 7)
            p2 = random_genotype(rng, 9, 7)
            child = crossover(p1, p2, 7, rng)
            child.validate(pool_size=9, max_len=7)


class TestStructuralMutation:
    def test_delete_skipped_on_singleton(self):
        g = make_genotype(2)
        assert mutate_structural(g, 7, 5, ScriptedRng(ints=[1])) == g

    def test_insert_skipped_at_max_len(self):
        g = make_genotype(0, 1, 2)
        assert mutate_structural(g, 7, 3, ScriptedRng(ints=[0])) == g

    def test_insert_skipped_when_pool_exhausted(self):
        g = make_genotype(0, 1, 2)
        assert mutate_structural(g, 3, 10, ScriptedRng(ints=[0])) == g

    def test_replace_changes_index_not_length(self):
        g = make_genotype((1, "mul", 0.7, 1.3))
        out = mutate_structural(g, 5, 5, np.random.default_rng(4))
        # rng choice 4 with default_rng(4): whatever branch runs must keep validity
        out.validate(5, 5)
        replaced = mutate_structural(g, 5, 5, ScriptedRng(ints=[2, 0, 1]))
        assert len(replaced) == 1
        assert replaced.genes[0].pool_index != 1
        assert replaced.genes[0].op == "mul"
        assert (replaced.genes[0].w_c, replaced.genes[0].w_f) == (0.7, 1.3)

    def test_always_valid(self, rng):
        for _ in range(20_000):
            g = random_genotype(rng, 9, 7)
            mutate_structural(g, 9, 7, rng).validate(pool_size=9, max_len=7)


class TestOperatorMutation:
    def test_singleton_unchanged(self):
        g = make_genotype((3, "add"))
        assert mutate_operator(g, np.random.default_rng(0)) == g

    def test_new_op_differs(self):
        g = make_genotype(0, (1, "add"))
        for seed in range(50):
            out = mutate_operator(g, np.random.default_rng(seed))
            assert out.genes[1].op != "add"
            assert out.genes[1].op in OPERATORS

    def test_first_gene_never_touched(self, rng):
        g = make_genotype((0, "add"), (1, "mul"), (2, "max"))
        for _ in range(200):
            out = mutate_operator(g, rng)
            assert out.genes[0].op == "add"

    def test_replacement_uniform(self):
        g = make_genotype(0, (1, "add"))
        rng = np.random.default_rng(77)
        counts = {}
        n = 10_000
        for _ in range(n):
            op = mutate_operator(g, rng).genes[1].op
            counts[op] = counts.get(op, 0) + 1
        assert set(counts) == set(OPERATORS) - {"add"}
        for op, c in counts.items():
            assert c / n == pytest.approx(0.2, abs=0.02)

    def test_always_valid(self, rng):
        for _ in range(20_000):
            g = random_genotype(rng, 9, 7)
            mutate_operator(g, rng).validate(pool_size=9, max_len=7)


class TestWeightMutation:
    def test_matched_genes_unchanged_for_identical_neighbor(self):
        g = make_genotype((0, "add", 1.2, 0.8), (1, "mul", 0.6, 1.4))
        neighbor = make_genotype((0, "max", 1.2, 0.8), (1, "min", 0.6, 1.4))
        out = mutate_weight(g, [neighbor], ScriptedRng(ints=[0], floats=[0.3, 0.9, 0.2, 0.7]))
        assert out == g

    def test_blend_arithmetic(self):
        g = make_genotype((0, "add", 1.0, 1.0))
        neighbor = make_genotype((0, "add", 2.0, 2.0))
        out = mutate_weight(g, [neighbor], ScriptedRng(ints=[0], floats=[0.5, 0.5]))
        assert out.genes[0].w_c == pytest.approx(1.5)
        assert out.genes[0].w_f == pytest.approx(1.5)

    def test_clip_at_lower_bound(self):
        g = make_genotype((0, "add", 0.1, 0.1))
        out = mutate_weight(g, None, ScriptedRng(normals=[-3.0, -3.0]))
        assert out.genes[0].w_c == 0.1
        assert out.genes[0].w_f == 0.1

    def test_unmatched_genes_get_gaussian(self):
        g = make_genotype((0, "add", 1.0, 1.0), (1, "mul", 1.0, 1.0))
        neighbor = make_genotype((0, "add", 1.0, 1.0))
        out = mutate_weight(g, [neighbor], ScriptedRng(ints=[0], floats=[0.4, 0.4], normals=[1.0, -1.0]))
        assert out.genes[0] == g.genes[0]
        assert out.genes[1].w_c == pytest.approx(1.1)
        assert out.genes[1].w_f == pytest.approx(0.9)

    def test_always_valid(self, rng):
        g = random_genotype(rng, 9, 7)
        for _ in range(20_000):
            neighborhood = [random_genotype(rng, 9, 7)] if rng.random() < 0.5 else None
            g = mutate_weight(g, neighborhood, rng)
            g.validate(pool_size=9, max_len=7)


class TestBatchDe:
    def cfg(self, **kw):
        return EvoConfig(population_size=8, **kw)

    def test_small_batch_passes_through(self):
        batch = [make_genotype(0), make_genotype(1)]
        out = batch_de(batch, make_genotype(2), self.cfg(), np.random.default_rng(0))
        assert out == batch

    def test_apply_prob_zero_is_identity(self, rng):
        batch = [random_genotype(rng, 7, 5) for _ in range(6)]
        out = batch_de(batch, batch[0], self.cfg(de_apply_prob=0.0), rng)
        assert out == batch

    def test_zero_f_zero_cr_numerically_unchanged(self, rng):
        batch = [random_genotype(rng, 7, 5) for _ in range(6)]
        out = batch_de(batch, batch[0], self.cfg(de_apply_prob=1.0, de_F=0.0, de_CR=0.0), rng)
        assert out == batch

    def test_trial_formula(self):
        x = make_genotype((0, "add", 1.0, 1.0))
        best = make_genotype((0, "add", 2.0, 2.0))
        r1 = make_genotype((0, "add", 1.5, 1.5))
        r2 = make_genotype((0, "add", 1.0, 1.0))
        batch = [x, r1, r2]
        # select offspring 0 (random<p), donors indices [0, 1] of [1, 2],
        # forced dim 0, crossover draws take both dims
        rng = ScriptedRng(ints=[0], floats=[0.0, 0.0, 0.0, 0.9, 0.9], choices=[[0, 1]])
        out = batch_de(batch, best, self.cfg(de_apply_prob=0.5, de_F=0.5, de_CR=0.9), rng)
        # v = 1.0 + 0.5*(2.0-1.0) + 0.5*(1.5-1.0) = 1.75
        assert out[0].genes[0].w_c == pytest.approx(1.75)

    def test_structure_untouched(self, rng):
        for _ in range(300):
            batch = [random_genotype(rng, 9, 6) for _ in range(8)]
            out = batch_de(batch, random_genotype(rng, 9, 6), self.cfg(de_apply_prob=1.0), rng)
            for before, after in zip(batch, out):
                assert structure(before) == structure(after)
                after.validate(pool_size=9, max_len=6)

    def test_missing_alignment_contributes_zero(self):
        x = make_genotype((3, "add", 1.0, 1.0))
        best = make_genotype((5, "add", 2.0, 2.0))  # no index 3: aligned value 0
        donors = [make_genotype((3, "add", 1.2, 1.2)), make_genotype((3, "add", 1.2, 1.2))]
        batch = [x] + donors
        rng = ScriptedRng(ints=[0], floats=[0.0, 0.0, 0.0, 0.9, 0.9], choices=[[0, 1]])
        out = batch_de(batch, best, self.cfg(de_apply_prob=0.5, de_F=0.5, de_CR=0.9), rng)
        # v = 1.0 + 0.5*(0 - 1.0) + 0.5*(1.2 - 1.2) = 0.5
        assert out[0].genes[0].w_c == pytest.approx(0.5)

    def test_matches_scan_oracle(self):
        disjoint = 0
        for case in range(200):
            rng = np.random.default_rng(case)
            size = int(rng.integers(3, 12))
            if case % 4 == 0:
                # offspring select entries 0-4 only, parent_best only 5-8
                batch = [random_genotype(rng, 5, 5) for _ in range(size)]
                best = Genotype(tuple(FusionGene(int(k), "add", *rng.uniform(0.1, 2.0, 2))
                                      for k in rng.permutation(np.arange(5, 9))[:3]))
            else:
                batch = [random_genotype(rng, 9, 6) for _ in range(size)]
                best = random_genotype(rng, 9, 6)
            disjoint += all(not set(best.pool_indices) & set(g.pool_indices) for g in batch)
            cfg = self.cfg(de_apply_prob=float(rng.random()), de_F=float(rng.uniform(0.0, 1.5)),
                           de_CR=float(rng.random()))
            seed = int(rng.integers(2**32))
            out = batch_de(batch, best, cfg, np.random.default_rng(seed))
            expected = scan_batch_de(batch, best, cfg, np.random.default_rng(seed))
            assert out == expected, f"case {case}"
        assert disjoint >= 50


class TestGenerateOffspring:
    def neighborhood_for(self, pop, elite, source=1):
        entry = NeighborEntry(elite, source, 0.9)
        return {ind.id: [entry] for ind in pop.members}

    def test_no_variation_copies_first_parent(self):
        pop = population([(0.2, 0.2), (0.4, 0.4), (0.6, 0.6), (0.8, 0.8)])
        cfg = EvoConfig(population_size=4, crossover_prob=0.0, mutation_prob=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            child, source = generate_offspring(pop, {}, cfg, rng)
            assert any(child == m.genotype for m in pop.members)

    def test_transfer_branch_provenance(self):
        pop = population([(0.2, 0.2), (0.4, 0.4), (0.6, 0.6), (0.8, 0.8)])
        elite = Individual(99, 1, make_genotype(5), objectives=ObjectiveVector(0.1, 0.1))
        nbhd = self.neighborhood_for(pop, elite, source=1)
        cfg = EvoConfig(population_size=4, transfer_prob=1.0, crossover_prob=1.0, mutation_prob=0.0)
        hits = 0
        rng = np.random.default_rng(11)
        for _ in range(100):
            child, source = generate_offspring(pop, nbhd, cfg, rng)
            assert source == 1
            hits += 5 in child.pool_indices
        assert hits > 0  # the elite's gene does flow in through crossover

    def test_empty_neighborhood_falls_back_to_tournament(self):
        pop = population([(0.2, 0.2), (0.4, 0.4), (0.6, 0.6), (0.8, 0.8)])
        cfg = EvoConfig(population_size=4, transfer_prob=1.0)
        child, source = generate_offspring(pop, {}, cfg, np.random.default_rng(2))
        assert source is None

    def test_deterministic_given_seed(self):
        pop = population([(0.2, 0.2), (0.4, 0.4), (0.6, 0.6), (0.8, 0.8)])
        cfg = EvoConfig(population_size=4)
        a = [generate_offspring(pop, {}, cfg, np.random.default_rng(31))[0] for _ in range(30)]
        b = [generate_offspring(pop, {}, cfg, np.random.default_rng(31))[0] for _ in range(30)]
        assert a == b

    def test_outputs_always_valid(self, rng):
        pop = population([(0.2, 0.2), (0.4, 0.4), (0.6, 0.6), (0.8, 0.8)], pool_size=9)
        elite = Individual(42, 2, make_genotype(8, 7), objectives=ObjectiveVector(0.1, 0.1))
        nbhd = self.neighborhood_for(pop, elite, source=2)
        cfg = EvoConfig(population_size=4, max_feature_length=6)
        for _ in range(20_000):
            child, _ = generate_offspring(pop, nbhd, cfg, rng)
            child.validate(pool_size=9, max_len=6)


class TestEvoConfig:
    def test_neighborhood_default_is_tenth_of_population(self):
        assert EvoConfig(population_size=50).neighborhood_k == 5
        assert EvoConfig(population_size=16).neighborhood_k == 2
        assert EvoConfig(population_size=50, neighborhood_size=7).neighborhood_k == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            EvoConfig(crossover_prob=1.2)
        with pytest.raises(ValueError):
            EvoConfig(population_size=2)
        with pytest.raises(ValueError):
            EvoConfig(grg_rho=0.0)
