import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evofusion.fusion import CLAMP_LIMIT, fit_standardizer, fuse_genotype
from evofusion.model import OPERATORS, WEIGHT_MAX, WEIGHT_MIN, random_genotype

from conftest import make_genotype


F32_MAX = float(np.finfo(np.float32).max)


def manual_combine(a, f, op, w_c, w_f):
    """Independent elementwise oracle for one fusion step, before the clamp."""
    a = w_c * np.asarray(a, dtype=np.float64)
    f = w_f * np.asarray(f, dtype=np.float64)
    return {
        "add": a + f,
        "mul": a * f,
        "max": np.maximum(a, f),
        "min": np.minimum(a, f),
        "diff": a - f,
        "avg": (a + f) / 2.0,
    }[op]


def manual_step(a, f, op, w_c, w_f):
    return np.clip(manual_combine(a, f, op, w_c, w_f), -CLAMP_LIMIT, CLAMP_LIMIT)


def fold_pair(acc, nxt, op, w_c, w_f):
    """One fusion step, op(w_c * acc, w_f * nxt) clamped, through the
    library: the fold of a two-gene genotype over the pool [acc, nxt]."""
    return fuse_genotype(make_genotype(0, (1, op, w_c, w_f)), [acc, nxt])


def reference_fold(g, pool):
    """Step-by-step float64 oracle for ``fuse_genotype``."""
    acc = np.asarray(pool[g.genes[0].pool_index], dtype=np.float64)
    for gene in g.genes[1:]:
        acc = manual_step(acc, pool[gene.pool_index], gene.op, gene.w_c, gene.w_f)
    return acc


@st.composite
def genotypes_over_mixed_pools(draw):
    """A genotype over a pool of float32 and float64 entries whose values
    reach the float32 maximum, the largest pool values a run admits, so
    products reach their largest size and round."""
    rows, cols, size = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    values = st.floats(-F32_MAX, F32_MAX, width=32)
    pool = [
        draw(arrays(draw(st.sampled_from([np.float32, np.float64])), (rows, cols), elements=values))
        for _ in range(size)
    ]
    order = draw(st.permutations(range(size)))
    weights = st.floats(WEIGHT_MIN, WEIGHT_MAX)
    genes = [
        (k, draw(st.sampled_from(OPERATORS)), draw(weights), draw(weights))
        for k in order[: draw(st.integers(1, size))]
    ]
    return make_genotype(*genes), pool


class TestStandardizer:
    def test_constant_column_gets_unit_std(self):
        rows = np.array([[5.0, 1.0], [5.0, 3.0], [5.0, 5.0]])
        s = fit_standardizer(rows)
        assert s.means[0] == 5.0
        assert s.stds[0] == 1.0
        assert np.allclose(s.transform(rows)[:, 0], 0.0)

    def test_population_std_convention(self):
        s = fit_standardizer(np.array([[0.0], [2.0]]))
        assert s.means[0] == pytest.approx(1.0)
        assert s.stds[0] == pytest.approx(1.0)

    def test_self_transform_centers(self, rng):
        rows = rng.normal(3.0, 2.0, size=(50, 8))
        s = fit_standardizer(rows)
        assert np.abs(s.transform(rows).mean(axis=0)).max() < 1e-9

    def test_bit_identical_to_numpy_mean_and_std(self, rng):
        for case in range(200):
            n, d = int(rng.integers(2, 400)), int(rng.integers(1, 130))
            rows = rng.normal(rng.normal(), rng.choice([1e-3, 1.0, 1e5]), size=(n, d))
            rows[:, 0] = 3.0
            if case % 2:
                rows = rows.astype(np.float32)
            s = fit_standardizer(rows)
            rows64 = rows.astype(np.float64)
            stds = rows64.std(axis=0)
            assert s.means.tobytes() == rows64.mean(axis=0).tobytes()
            assert s.stds.tobytes() == np.where(stds > 0.0, stds, 1.0).tobytes()

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.ones((1, 4)))


class TestFuseStep:
    def test_add_identity(self):
        nxt = np.array([[1.0, -2.0], [3.0, 4.0]])
        out = fold_pair(np.zeros((2, 2)), nxt, "add", 1.0, 1.0)
        assert np.array_equal(out, nxt)

    def test_weighted_diff(self):
        out = fold_pair(np.array([[3.0]]), np.array([[1.0]]), "diff", 2.0, 1.0)
        assert out[0, 0] == 5.0

    def test_mul_with_zero(self):
        out = fold_pair(np.zeros((3, 3)), np.ones((3, 3)), "mul", 1.3, 0.7)
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fold_pair(np.zeros((2, 2)), np.zeros((2, 3)), "add", 1.0, 1.0)

    def test_all_ops_match_oracle(self, rng):
        for _ in range(60):
            a = rng.uniform(-10, 10, size=(4, 5))
            f = rng.uniform(-10, 10, size=(4, 5))
            w_c, w_f = rng.uniform(0.1, 2.0, size=2)
            for op in OPERATORS:
                assert np.array_equal(fold_pair(a, f, op, w_c, w_f), manual_step(a, f, op, w_c, w_f))

    def test_clamp(self):
        big = np.full((2, 2), 1e5)
        out = fold_pair(big, big, "mul", 2.0, 2.0)
        assert (out == CLAMP_LIMIT).all()


class TestFuseGenotype:
    def test_single_gene_returns_entry(self, rng):
        pool = [rng.normal(size=(3, 4)) for _ in range(5)]
        out = fuse_genotype(make_genotype((2, "mul", 1.9, 0.3)), pool)
        assert np.array_equal(out, pool[2])

    def test_two_gene_add_is_sum(self, rng):
        pool = [rng.normal(size=(3, 4)) for _ in range(5)]
        out = fuse_genotype(make_genotype(0, (1, "add", 1.0, 1.0)), pool)
        assert np.array_equal(out, pool[0] + pool[1])

    def test_three_genes_match_chained_steps(self, rng):
        pool = [rng.normal(size=(6, 3)) for _ in range(6)]
        g = make_genotype((5,), (0, "mul", 1.4, 0.2), (3, "diff", 0.9, 1.8))
        acc = np.asarray(pool[5], dtype=np.float64)
        acc = fold_pair(acc, pool[0], "mul", 1.4, 0.2)
        acc = fold_pair(acc, pool[3], "diff", 0.9, 1.8)
        assert np.array_equal(fuse_genotype(g, pool), acc)

    def test_fold_oracle_100_random_pairs(self, rng):
        for _ in range(100):
            pool = [rng.uniform(-10, 10, size=(5, 4)) for _ in range(9)]
            g = random_genotype(rng, 9, 9)
            expected = np.asarray(pool[g.genes[0].pool_index], dtype=np.float64)
            for gene in g.genes[1:]:
                expected = manual_step(expected, pool[gene.pool_index], gene.op, gene.w_c, gene.w_f)
            out = fuse_genotype(g, pool)
            assert np.array_equal(out, expected)
            assert out.shape == (5, 4)
            assert not np.isnan(out).any()

    def test_missing_pool_entry(self, rng):
        pool = [rng.normal(size=(3, 4))]
        with pytest.raises(IndexError):
            fuse_genotype(make_genotype(0, 3), pool)

    @pytest.mark.parametrize("genes", [(-1, 0), (0, -1), (1, -3)], ids=["first", "later", "below-length"])
    def test_negative_pool_index(self, rng, genes):
        pool = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
        with pytest.raises(IndexError, match=r"pool index -\d+ outside pool of 2 entries"):
            fuse_genotype(make_genotype(*genes), pool)


@settings(max_examples=300, deadline=None)
@given(case=genotypes_over_mixed_pools())
def test_fold_is_float64_reference_bit_for_bit(case):
    g, pool = case
    expected = reference_fold(g, pool)
    out = fuse_genotype(g, pool)
    assert out.dtype == np.float64
    assert out.tobytes() == expected.tobytes()
    assert np.isfinite(out).all()
    if len(g) > 1:
        assert np.abs(out).max() <= CLAMP_LIMIT


class TestNoMutation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fuse_genotype_leaves_pool_unchanged(self, rng, dtype):
        pool = [rng.uniform(-10, 10, size=(5, 4)).astype(dtype) for _ in range(6)]
        before = [entry.copy() for entry in pool]
        genotypes = [make_genotype(2)] + [random_genotype(rng, 6, 6) for _ in range(30)]
        for g in genotypes:
            out = fuse_genotype(g, pool)
            assert not any(np.shares_memory(out, entry) for entry in pool)
        for entry, copy in zip(pool, before):
            assert entry.dtype == dtype and np.array_equal(entry, copy)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fuse_step_leaves_arguments_unchanged(self, rng, dtype):
        for op in OPERATORS:
            acc = rng.uniform(-10, 10, size=(3, 4)).astype(dtype)
            nxt = rng.uniform(-10, 10, size=(3, 4)).astype(dtype)
            acc_before, nxt_before = acc.copy(), nxt.copy()
            out = fold_pair(acc, nxt, op, 1.3, 0.7)
            assert np.array_equal(acc, acc_before) and np.array_equal(nxt, nxt_before)
            assert not np.shares_memory(out, acc) and not np.shares_memory(out, nxt)


class TestFusionProperties:
    def test_add_avg_commutative_with_equal_weights(self, rng):
        for _ in range(50):
            a = rng.uniform(-10, 10, size=(3, 3))
            f = rng.uniform(-10, 10, size=(3, 3))
            w = float(rng.uniform(0.1, 2.0))
            for op in ("add", "avg"):
                assert np.array_equal(fold_pair(a, f, op, w, w), fold_pair(f, a, op, w, w))

    def test_diff_anticommutative_up_to_weight_swap(self, rng):
        for _ in range(50):
            a = rng.uniform(-10, 10, size=(3, 3))
            f = rng.uniform(-10, 10, size=(3, 3))
            w_c, w_f = rng.uniform(0.1, 2.0, size=2)
            left = fold_pair(a, f, "diff", w_c, w_f)
            right = -fold_pair(f, a, "diff", w_f, w_c)
            assert np.array_equal(left, right)
