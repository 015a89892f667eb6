import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evofusion.model import (
    KIND_AUX,
    KIND_PRIMARY,
    KIND_SINGLE,
    OPERATORS,
    map_pool_index,
    random_genotype,
    vectorize_genotype,
)

from conftest import make_genotype


class TestMapPoolIndex:
    def test_self_index_is_single(self):
        role = map_pool_index(0, 0, 15)
        assert role.kind == KIND_SINGLE
        assert role.partner == 0

    def test_primary_with_aux(self):
        role = map_pool_index(0, 1, 15)
        assert role.kind == KIND_PRIMARY
        assert role.partner == 1

    def test_aux_for_skips_self(self):
        # first reversed entry partners with the first task that is not tau
        role = map_pool_index(0, 15, 15)
        assert role.kind == KIND_AUX
        assert role.partner == 1

    def test_aux_partner_enumeration(self):
        # tau=2, T=4: reversed range partners are 0, 1, 3 in order
        partners = [map_pool_index(2, k, 4).partner for k in (4, 5, 6)]
        assert partners == [0, 1, 3]

    @pytest.mark.parametrize("T", [2, 3, 5, 15])
    def test_role_census(self, T):
        for tau in range(T):
            roles = [map_pool_index(tau, k, T) for k in range(2 * T - 1)]
            kinds = [r.kind for r in roles]
            assert kinds.count(KIND_SINGLE) == 1
            assert kinds.count(KIND_PRIMARY) == T - 1
            assert kinds.count(KIND_AUX) == T - 1
            # the mapping is injective over (kind, partner) pairs
            assert len({(r.kind, r.partner) for r in roles}) == 2 * T - 1

    @pytest.mark.parametrize("T", [2, 3, 5, 15])
    def test_index_zero_always_refers_to_first_task(self, T):
        for tau in range(T):
            assert map_pool_index(tau, 0, T).partner == 0

    def test_bounds(self):
        with pytest.raises(ValueError):
            map_pool_index(0, 29, 15)
        with pytest.raises(ValueError):
            map_pool_index(0, -1, 15)
        with pytest.raises(ValueError):
            map_pool_index(15, 0, 15)


class TestVectorize:
    def test_single_gene_sets_only_selection_bit(self):
        vec = vectorize_genotype(make_genotype((3, "mul", 1.7, 0.4)), 7)
        expected = np.zeros(21)
        expected[9] = 1.0
        assert np.array_equal(vec, expected)

    def test_unselected_slots_are_zero(self):
        vec = vectorize_genotype(make_genotype(2, 5), 7)
        for k in (0, 1, 3, 4, 6):
            assert vec[3 * k : 3 * k + 3].tolist() == [0.0, 0.0, 0.0]

    def test_second_gene_components(self):
        g = make_genotype((4, "mul", 1.0, 1.0), (1, "add", 1.05, 1.05))
        vec = vectorize_genotype(g, 7)
        assert vec[3] == 1.0
        assert vec[4] == pytest.approx(1 / 6)
        assert vec[5] == pytest.approx(0.5)

    def test_components_bounded_and_reproducible(self, rng):
        for _ in range(300):
            g = random_genotype(rng, 29, 25)
            vec = vectorize_genotype(g, 29)
            assert vec.min() >= 0.0 and vec.max() <= 1.0
            assert np.array_equal(vec, vectorize_genotype(g, 29))

    def test_order_invariant_beyond_first_gene(self):
        a = make_genotype((0, "add", 1.0, 1.0), (2, "mul", 0.5, 0.7), (5, "max", 1.2, 1.9))
        b = make_genotype((0, "add", 1.0, 1.0), (5, "max", 1.2, 1.9), (2, "mul", 0.5, 0.7))
        assert np.array_equal(vectorize_genotype(a, 7), vectorize_genotype(b, 7))


class TestRandomGenotype:
    def test_max_len_one(self, rng):
        for _ in range(100):
            assert len(random_genotype(rng, 29, 1)) == 1

    def test_no_duplicate_indices(self, rng):
        for _ in range(10_000):
            g = random_genotype(rng, 29, 25)
            idx = [gene.pool_index for gene in g.genes]
            assert len(idx) == len(set(idx))

    def test_seed_determinism(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        for _ in range(50):
            assert random_genotype(a, 29, 25) == random_genotype(b, 29, 25)

    def test_invariants_hold_over_many_draws(self, rng):
        for _ in range(10_000):
            g = random_genotype(rng, 9, 6)
            g.validate(pool_size=9, max_len=6)
            for gene in g.genes:
                assert gene.op in OPERATORS
                assert 0.5 <= gene.w_c <= 1.5
                assert 0.5 <= gene.w_f <= 1.5

    def test_length_capped_by_pool(self, rng):
        for _ in range(200):
            assert len(random_genotype(rng, 3, 25)) <= 3


class TestGenotypeHash:
    # builds a genotype, hashes it (so a cached hash exists) and writes
    # the pickled pair (genotype, its hash in this process) to stdout
    CHILD = (
        "import pickle, sys; from evofusion.model import FusionGene, Genotype; "
        "g = Genotype((FusionGene(3, 'mul', 0.5, 1.5), FusionGene(0, 'avg', 1.0, 0.25))); "
        "sys.stdout.buffer.write(pickle.dumps((g, hash(g))))"
    )

    def test_pickled_genotype_hits_a_dict_under_another_hash_seed(self):
        """A genotype pickled by a process with another PYTHONHASHSEED, as a
        worker's is, finds the equal genotype built here."""
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", self.CHILD], env=env, capture_output=True, check=True).stdout
        loaded, child_hash = pickle.loads(out)
        local = make_genotype((3, "mul", 0.5, 1.5), (0, "avg", 1.0, 0.25))
        # the operator strings hash differently there, so the child's hash does too
        assert child_hash != hash(local)
        assert loaded == local and hash(loaded) == hash(local)
        assert {local: "hit"}.get(loaded) == "hit"
        assert {loaded: "hit"}.get(local) == "hit"

    def test_equal_genotypes_hash_equal(self):
        a = make_genotype((1, "add", 0.5, 1.0), 2)
        b = make_genotype((1, "add", 0.5, 1.0), 2)
        assert a is not b and hash(a) == hash(a) == hash(b) == hash(a.genes)
