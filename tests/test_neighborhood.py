import numpy as np
import pytest

from evofusion.model import (
    Individual,
    ObjectiveVector,
    TaskDescriptor,
    TaskPopulation,
    random_genotype,
    vectorize_genotype,
)
from evofusion.neighborhood import build_neighborhoods, grg, publish_elites, select_elites
from evofusion.operators import EvoConfig

from conftest import make_genotype
from oracles import scalar_grg


def grade(x, y, rho=0.25):
    """The grade of one pair through the row-wise library function."""
    return float(grg(x, [y], rho)[0])


def neighborhoods(pops, cfg):
    """Every task's map from one call over the elites of all tasks."""
    return build_neighborhoods(publish_elites(pops, cfg), pops, cfg)


def image(nmap):
    """Comparable form of a neighborhood map."""
    return {t: {i: [(e.id, e.task) for e in elites] for i, elites in m.items()} for t, m in nmap.items()}


def grades_of(member, elites, pool_size, rho=0.25):
    """Each elite's grade against a member, recomputed row by row."""
    x = vectorize_genotype(member.genotype, pool_size)
    return [grade(x, vectorize_genotype(e.genotype, pool_size), rho) for e in elites]


def population(task, genotypes, g1_values=None, pool_size=7):
    desc = TaskDescriptor(f"task_{task:02d}", task, pool_size)
    members = []
    for i, g in enumerate(genotypes):
        g1 = g1_values[i] if g1_values else 0.1 * (i + 1)
        members.append(
            Individual(task * 1000 + i, task, g, objectives=ObjectiveVector(g1, 0.5))
        )
    return TaskPopulation(desc, members)


class TestGrg:
    def test_identical_vectors(self):
        assert grade([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_hand_case(self):
        # deltas {0, 1}: coefficients {1, 0.2}, mean 0.6
        assert grade([0.0, 0.0], [0.0, 1.0]) == pytest.approx(0.6)

    def test_symmetry(self, rng):
        for _ in range(100):
            x = rng.random(12)
            y = rng.random(12)
            assert grade(x, y) == pytest.approx(grade(y, x), abs=1e-15)

    def test_range_and_zero_min_bound(self, rng):
        for _ in range(500):
            x = rng.random(8)
            y = rng.random(8)
            v = grade(x, y)
            assert 0.0 < v <= 1.0
            # force a zero deviation somewhere: each coefficient then
            # has floor rho/(1+rho) = 0.2, so the mean clears 0.2
            y2 = y.copy()
            y2[0] = x[0]
            assert grade(x, y2) >= 0.2

    def test_permutation_invariance(self, rng):
        x = rng.random(10)
        y = rng.random(10)
        perm = rng.permutation(10)
        assert grade(x, y) == pytest.approx(grade(x[perm], y[perm]), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            grg([1.0], [[1.0, 2.0]], 0.25)
        with pytest.raises(ValueError):
            grg([1.0, 2.0], [1.0, 2.0], 0.25)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            grg([1.0, 2.0], [[1.0, 3.0]], 0.0)

    def test_rows_equal_the_scalar_oracle(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 12))
            x = rng.random(d)
            rows = rng.random((int(rng.integers(2, 20)), d))
            rows[0] = x  # one identical row grades exactly 1
            if d > 1:
                rows[1, 0] = x[0]  # and one with a zero deviation
            grades = grg(x, rows, 0.4)
            assert grades.shape == (rows.shape[0],)
            assert grades.tolist() == [scalar_grg(x, row, 0.4) for row in rows]


class TestSelectElites:
    def test_full_fraction_returns_everyone(self):
        pop = population(0, [make_genotype(i) for i in range(5)])
        assert len(select_elites(pop, 1.0)) == 5

    def test_top_fraction_by_primary_objective(self):
        g1s = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 0.95]
        pop = population(0, [make_genotype(i % 7) for i in range(10)], g1_values=g1s)
        elites = select_elites(pop, 0.2)
        assert len(elites) == 2
        worst_elite = max(e.objectives.g1 for e in elites)
        others = [m for m in pop.members if m not in elites]
        assert all(worst_elite <= o.objectives.g1 for o in others)

    def test_tie_break_by_g2_then_id(self):
        desc = TaskDescriptor("task_00", 0, 7)
        members = [
            Individual(3, 0, make_genotype(0), objectives=ObjectiveVector(0.5, 0.2)),
            Individual(1, 0, make_genotype(1), objectives=ObjectiveVector(0.5, 0.1)),
            Individual(2, 0, make_genotype(2), objectives=ObjectiveVector(0.5, 0.1)),
            Individual(0, 0, make_genotype(3), objectives=ObjectiveVector(0.5, 0.3)),
        ]
        pop = TaskPopulation(desc, members)
        order = [e.id for e in select_elites(pop, 1.0)]
        assert order == [1, 2, 3, 0]


class TestBuildNeighborhoods:
    def cfg(self, **kw):
        kw.setdefault("population_size", 4)
        return EvoConfig(**kw)

    def test_single_task_has_empty_neighborhoods(self):
        pop = population(0, [make_genotype(i) for i in range(4)])
        nmap = neighborhoods([pop], self.cfg())
        assert set(nmap) == {0}
        assert all(entries == [] for entries in nmap[0].values())

    def test_k_covers_all_foreign_elites(self):
        pops = [
            population(0, [make_genotype(0), make_genotype(1)]),
            population(1, [make_genotype(2), make_genotype(3)]),
        ]
        nmap = neighborhoods(pops, self.cfg(elite_fraction=1.0, neighborhood_size=10))
        for member in pops[0].members:
            elites = nmap[0][member.id]
            assert len(elites) == 2
            assert all(e.task == 1 for e in elites)
            grades = grades_of(member, elites, 7)
            assert grades == sorted(grades, reverse=True)

    def test_never_references_own_task(self, rng):
        pops = [
            population(t, [random_genotype(rng, 5, 3) for _ in range(4)], pool_size=5)
            for t in range(3)
        ]
        nmap = neighborhoods(pops, self.cfg(elite_fraction=0.5, neighborhood_size=3))
        for t in range(3):
            for elites in nmap[t].values():
                assert all(e.task != t for e in elites)

    def test_matches_exhaustive_oracle(self, rng):
        cfg = self.cfg(elite_fraction=1.0, neighborhood_size=3, grg_rho=0.25)
        pops = [
            population(t, [random_genotype(rng, 5, 3) for _ in range(4)], pool_size=5)
            for t in range(2)
        ]
        nmap = neighborhoods(pops, cfg)
        all_elites = [(e, p.task.position) for p in pops for e in select_elites(p, 1.0)]
        for pop in pops:
            t = pop.task.position
            for ind in pop.members:
                x = vectorize_genotype(ind.genotype, 5)
                scored = []
                for elite, src in all_elites:
                    if src == t:
                        continue
                    g = scalar_grg(x, vectorize_genotype(elite.genotype, 5), 0.25)
                    scored.append((-g, src, elite.id, elite))
                scored.sort(key=lambda item: item[:3])
                expected = [(item[3].id, -item[0]) for item in scored[:3]]
                got = nmap[t][ind.id]
                assert [e.id for e in got] == [e[0] for e in expected]
                for ggrade, (eid, egrade) in zip(grades_of(ind, got, 5), expected):
                    assert ggrade == pytest.approx(egrade, abs=1e-12)

    def test_equal_grades_order_by_source_position_then_elite_id(self):
        own = make_genotype(0, 1)
        other = make_genotype(2, 3, 4)
        pops = [
            population(0, [own, own], pool_size=5),
            population(2, [other, own, other], g1_values=[0.5, 0.1, 0.2], pool_size=5),
            population(1, [other, other], g1_values=[0.5, 0.2], pool_size=5),
        ]
        # task 1's ids sort after task 2's, task 2 comes first in the list,
        # and select_elites yields elites by g1: 2001, 2002, 2000, 5001, 5000
        for ind in pops[2].members:
            ind.id += 4000
        nmap = neighborhoods(pops, self.cfg(elite_fraction=1.0, neighborhood_size=5))
        elites = nmap[0][0]
        # grade first (2001 is a copy of own), then source position, then id,
        # as test_matches_exhaustive_oracle sorts them
        assert [(e.task, e.id) for e in elites] == [
            (2, 2001), (1, 5000), (1, 5001), (2, 2000), (2, 2002)
        ]
        grades = grades_of(pops[0].members[0], elites, 5)
        assert grades[0] == 1.0
        assert grades[1] < 1.0
        assert len(set(grades[1:])) == 1

    def test_oracle_on_larger_random_instances(self, rng):
        cfg = EvoConfig(population_size=10, elite_fraction=0.5, neighborhood_size=4)
        pops = [
            population(t, [random_genotype(rng, 9, 6) for _ in range(10)], pool_size=9)
            for t in range(4)
        ]
        nmap = neighborhoods(pops, cfg)
        # spot-check grades are non-increasing and well-formed everywhere
        total_entries = 0
        for pop in pops:
            for member in pop.members:
                elites = nmap[pop.task.position][member.id]
                assert len(elites) <= 4
                grades = grades_of(member, elites, 9)
                assert grades == sorted(grades, reverse=True)
                assert all(0.0 < g <= 1.0 for g in grades)
                total_entries += len(elites)
        assert total_entries > 0

    def test_union_of_shares_equals_single_call(self, rng):
        cfg = EvoConfig(population_size=8, elite_fraction=0.25, neighborhood_size=3)
        pops = [
            population(t, [random_genotype(rng, 9, 6) for _ in range(8)], pool_size=9)
            for t in range(5)
        ]
        # a few exact copies across tasks give grade ties of 1.0
        pops[3].members[0].genotype = pops[1].members[2].genotype
        pops[4].members[1].genotype = pops[0].members[5].genotype
        whole = neighborhoods(pops, cfg)
        elites = publish_elites(pops, cfg)
        for workers in (2, 3, 5):
            union = {}
            for w in range(workers):
                union.update(build_neighborhoods(elites, pops[w::workers], cfg))
            assert image(union) == image(whole)

    def test_neighbors_are_the_published_elites_themselves(self, rng):
        cfg = EvoConfig(population_size=6, elite_fraction=0.5, neighborhood_size=3)
        pops = [
            population(t, [random_genotype(rng, 7, 5) for _ in range(6)])
            for t in range(4)
        ]
        elites = publish_elites(pops, cfg)
        nmap = build_neighborhoods(elites, pops, cfg)
        seen = 0
        for task_map in nmap.values():
            for neighbors in task_map.values():
                assert all(any(n is e for e in elites) for n in neighbors)
                seen += len(neighbors)
        assert seen == 4 * 6 * 3


class TestPublishElites:
    def test_elites_in_task_order_without_heads(self):
        pops = [
            population(0, [make_genotype(i) for i in range(4)], g1_values=[0.4, 0.1, 0.3, 0.2]),
            population(1, [make_genotype(i) for i in range(4)]),
        ]
        for pop in pops:
            for ind in pop.members:
                ind.proxy = object()
        elites = publish_elites(pops, EvoConfig(population_size=4, elite_fraction=0.5))
        assert [(e.id, e.task) for e in elites] == [(1, 0), (3, 0), (1000, 1), (1001, 1)]
        members = {ind.id: ind for pop in pops for ind in pop.members}
        for e in elites:
            assert e.proxy is None and e is not members[e.id]
            assert e.genotype == members[e.id].genotype
            assert e.objectives == members[e.id].objectives

    def test_nothing_published_without_transfer(self):
        pops = [population(t, [make_genotype(i) for i in range(4)]) for t in range(3)]
        cfg = EvoConfig(population_size=4, transfer_prob=0.0)
        assert publish_elites(pops, cfg) == []
        nmap = build_neighborhoods([], pops, cfg)
        assert set(nmap) == {0, 1, 2}
        for pop in pops:
            assert nmap[pop.task.position] == {ind.id: [] for ind in pop.members}

    def test_source_is_the_population_position(self):
        pop = population(2, [make_genotype(0), make_genotype(1)])
        for ind in pop.members:
            ind.task = 99
        elites = publish_elites([pop], EvoConfig(population_size=4, elite_fraction=1.0))
        assert {e.task for e in elites} == {2}
