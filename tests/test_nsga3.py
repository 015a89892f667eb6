import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofusion.model import Individual, ObjectiveVector
from evofusion.nsga3 import (
    ReferenceSet,
    das_dennis,
    environmental_selection,
    nondominated_sort,
    normalize,
)

from conftest import make_genotype
from oracles import dominates


def peel_fronts(objs):
    """Repeated-peeling oracle: rescan the remaining set each round."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(objs[j], objs[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


# objectives that differ only near the double underflow range
UNDERFLOW_PAIRS = [(0.0, 0.25), (0.25, 0.0), (5e-324, 1.4e-235)]


def individuals(pairs):
    return [
        Individual(i, 0, make_genotype(0), objectives=ObjectiveVector(a, b))
        for i, (a, b) in enumerate(pairs)
    ]


class TestDominates:
    def test_strictly_better_one_axis(self):
        assert dominates((0.2, 0.1), (0.3, 0.1))

    def test_equal_vectors(self):
        assert not dominates((0.3, 0.1), (0.3, 0.1))

    def test_incomparable(self):
        assert not dominates((0.2, 0.5), (0.5, 0.2))
        assert not dominates((0.5, 0.2), (0.2, 0.5))

    def test_accepts_objective_vectors(self):
        assert dominates(ObjectiveVector(0.1, 0.1), ObjectiveVector(0.2, 0.2))


class TestNondominatedSort:
    def test_identical_objectives_share_one_front(self):
        fronts = nondominated_sort([(0.5, 0.5)] * 6)
        assert fronts == [[0, 1, 2, 3, 4, 5]]

    def test_hand_case(self):
        fronts = nondominated_sort([(0, 1), (1, 0), (1, 1)])
        assert fronts == [[0, 1], [2]]

    def test_matches_peeling_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 200))
            objs = rng.random((n, 2))
            # inject duplicates and aligned coordinates to stress ties
            if n > 10:
                objs[: n // 4] = np.round(objs[: n // 4], 1)
            objs = [tuple(row) for row in objs]
            assert nondominated_sort(objs) == peel_fronts(objs)

    def test_fronts_partition_indices(self, rng):
        objs = [tuple(row) for row in rng.random((120, 2))]
        fronts = nondominated_sort(objs)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(120))


class TestDasDennis:
    def test_two_points(self):
        ref = das_dennis(1)
        assert ref.points.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_p4_grid(self):
        ref = das_dennis(4)
        expected = [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]]
        assert ref.points.tolist() == expected

    def test_count_pairs_population_default(self):
        assert len(das_dennis(49)) == 50

    def test_count_formula(self):
        for p in range(1, 61):
            ref = das_dennis(p)
            assert len(ref) == p + 1
            assert np.abs(ref.points.sum(axis=1) - 1.0).max() <= 1e-12
            assert ref.points[:, 0].tolist() == [k / p for k in range(p + 1)]

    def test_rejects_zero_divisions(self):
        with pytest.raises(ValueError):
            das_dennis(0)


class TestNormalize:
    def test_single_vector_maps_to_origin(self):
        assert np.array_equal(normalize([(0.3, 0.7)]), np.zeros((1, 2)))

    def test_axis_extremes_normalize_to_themselves(self):
        out = normalize([(0.0, 1.0), (1.0, 0.0)])
        assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_identical_vectors_fall_back_to_zero(self):
        out = normalize([(0.4, 0.4)] * 5)
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_translation_invariance(self, rng):
        objs = rng.random((30, 2))
        shifted = objs + np.array([5.0, -2.0])
        assert np.allclose(normalize(objs), normalize(shifted))

    def test_vanishing_intercepts_fall_back_to_range(self):
        # the third point is the ASF extreme of both axes and lies almost
        # at the ideal point, so the intercepts are ~1e-307 and ~1e-235
        out = normalize(UNDERFLOW_PAIRS)
        assert np.isfinite(out).all() and out.min() >= 0.0 and out.max() <= 1.0
        assert out[:2].tolist() == [[0.0, 1.0], [1.0, 0.0]]


class TestEnvironmentalSelection:
    def test_underflow_objectives_do_not_overflow_distances(self):
        pop = individuals(UNDERFLOW_PAIRS)
        out = environmental_selection(pop, 1, np.random.default_rng(0))
        assert len(out) == 1

    def test_exact_fit_returns_population_by_id(self, rng):
        pop = individuals([(0.5, 0.1), (0.1, 0.5), (0.3, 0.3)])
        out = environmental_selection(pop[::-1], 3, np.random.default_rng(0))
        assert [ind.id for ind in out] == [0, 1, 2]

    def test_whole_front_acceptance(self, rng):
        # front 0 has 3 members, front 1 has 5; N=3 keeps exactly front 0
        front0 = [(0.1, 0.5), (0.3, 0.3), (0.5, 0.1)]
        front1 = [(0.6, 0.6), (0.7, 0.55), (0.55, 0.7), (0.8, 0.8), (0.9, 0.75)]
        pop = individuals(front0 + front1)
        out = environmental_selection(pop, 3, np.random.default_rng(1))
        assert sorted(ind.id for ind in out) == [0, 1, 2]

    def test_one_member_per_line_before_seconds(self):
        # four reference lines, two mutually nondominated members near each
        pairs = [
            (0.01, 1.00),
            (0.02, 0.98),
            (0.33, 0.67),
            (0.35, 0.64),
            (0.66, 0.34),
            (0.68, 0.31),
            (0.98, 0.02),
            (1.00, 0.015),
        ]
        pop = individuals(pairs)
        out = environmental_selection(pop, 4, np.random.default_rng(3))
        ids = sorted(ind.id for ind in out)
        buckets = [set() for _ in range(4)]
        for ind in out:
            buckets[ind.id // 2].add(ind.id)
        assert all(len(b) == 1 for b in buckets), f"expected one per line, got {ids}"

    def test_empty_niche_takes_its_closest_member(self):
        """Front 0 fills the two end niches of das_dennis(2), so the middle
        niche is the one empty niche. All three members of front 1 lie
        nearest its line, and the one on the line wins for every rng."""
        pairs = [(0.0, 0.8), (0.8, 0.0), (0.85, 0.95), (0.9, 0.9), (0.95, 0.85)]
        pop = individuals(pairs)
        for seed in range(10):
            out = environmental_selection(pop, 3, np.random.default_rng(seed))
            assert [ind.id for ind in out] == [0, 1, 3]

    def test_requires_enough_individuals(self):
        pop = individuals([(0.5, 0.5)])
        with pytest.raises(ValueError):
            environmental_selection(pop, 2, np.random.default_rng(0))

    def test_first_front_always_survives_when_it_fits(self, rng):
        for trial in range(20):
            pairs = [tuple(v) for v in rng.random((24, 2))]
            pop = individuals(pairs)
            fronts = nondominated_sort(pairs)
            N = max(4, len(fronts[0]))
            out = environmental_selection(pop, N, np.random.default_rng(trial))
            chosen = {ind.id for ind in out}
            assert set(fronts[0]).issubset(chosen)
            assert len(out) == N

    def test_no_selected_dominated_by_earlier_front_discard(self, rng):
        pairs = [tuple(v) for v in rng.random((30, 2))]
        pop = individuals(pairs)
        out = environmental_selection(pop, 10, np.random.default_rng(5))
        chosen = {ind.id for ind in out}
        discarded = [ind for ind in pop if ind.id not in chosen]
        fronts = nondominated_sort(pairs)
        rank = {i: level for level, front in enumerate(fronts) for i in front}
        # every discard sits on the splitting front or later, so no
        # selected member can be dominated by an earlier-front discard
        max_sel = max(rank[ind.id] for ind in out)
        min_disc = min(rank[ind.id] for ind in discarded)
        assert min_disc >= max_sel

    def test_deterministic_given_seed(self, rng):
        pairs = [tuple(v) for v in rng.random((40, 2))]
        pop = individuals(pairs)
        a = environmental_selection(pop, 12, np.random.default_rng(9))
        b = environmental_selection(pop, 12, np.random.default_rng(9))
        assert [ind.id for ind in a] == [ind.id for ind in b]


# a coarse grid makes tied and duplicate objective vectors common
OBJECTIVE_VALUES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_selection_returns_n_distinct_and_keeps_a_fitting_first_front(data):
    pairs = data.draw(st.lists(st.tuples(OBJECTIVE_VALUES, OBJECTIVE_VALUES), min_size=1, max_size=40))
    N = data.draw(st.integers(1, len(pairs)), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    out = environmental_selection(individuals(pairs), N, rng)
    ids = [ind.id for ind in out]
    assert len(ids) == N and len(set(ids)) == N
    assert ids == sorted(ids)
    front0 = peel_fronts(pairs)[0]
    if len(front0) <= N:
        assert set(front0) <= set(ids)


class TestReferenceSetValidation:
    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.array([[0.5, 0.6]]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.array([[0.5, 0.5], [0.5, 0.5]]))
