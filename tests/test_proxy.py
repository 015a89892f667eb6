import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofusion import proxy
from evofusion.data import TaskData
from evofusion.fusion import fuse_genotype
from evofusion.metrics import auprc, confusion, fpr
from evofusion.model import Individual, ObjectiveVector, random_genotype
from evofusion.proxy import (
    DECISION_THRESHOLD,
    ProxyConfig,
    evaluate_batch,
    fit_focal_logistic,
    focal_logistic_loss_and_grad,
    focal_terms,
    score_rows,
    sigmoid,
    train_head,
)

from conftest import make_genotype
from oracles import fd_gradient, masked_sigmoid, newton_fit


def two_class_labels(rng, n):
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    return labels


class TestFocalLoss:
    def test_confident_correct_is_near_zero(self):
        cfg = ProxyConfig()
        assert focal_terms(1.0 - 1e-9, 1, cfg)[0] < 1e-6

    def test_gamma_zero_reduces_to_scaled_cross_entropy(self, rng):
        cfg = ProxyConfig(alpha_pos=0.5, alpha_neg=0.5, gamma=0.0)
        for _ in range(100):
            p = float(rng.uniform(0.01, 0.99))
            y = int(rng.integers(0, 2))
            bce = -(y * math.log(p) + (1 - y) * math.log(1 - p))
            assert focal_terms(p, y, cfg)[0] == pytest.approx(0.5 * bce, rel=1e-12)

    def test_hand_value(self):
        cfg = ProxyConfig()  # alpha 0.85, gamma 1.5
        # 0.85 * 0.5^1.5 * ln 2 = 0.2083058 (0.20829 under 4-digit ln 2)
        expected = 0.85 * 0.5 ** 1.5 * math.log(2)
        assert focal_terms(0.5, 1, cfg)[0] == pytest.approx(expected, abs=1e-5)
        assert focal_terms(0.5, 1, cfg)[0] == pytest.approx(0.20831, abs=1e-5)

    def test_extreme_probabilities_stay_finite(self):
        cfg = ProxyConfig()
        assert np.isfinite(focal_terms(0.0, 0, cfg)[0])
        assert np.isfinite(focal_terms(1.0, 1, cfg)[0])
        assert np.isfinite(focal_terms(0.0, 1, cfg)[0])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool((a.view(np.uint64) == b.view(np.uint64)).all())


# +-0.0, +-inf, NaN of both signs and one with a payload, denormals, the
# ends of exp's finite range and a dense sweep
SIGMOID_GRID = np.concatenate([
    [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan,
     np.array(0x7FF8000000000123, dtype=np.uint64).view(np.float64),
     5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2, 36.8, -36.8],
    np.linspace(-60.0, 60.0, 24001),
    np.geomspace(1e-300, 1e300, 601),
    -np.geomspace(1e-300, 1e300, 601),
])


class TestSigmoid:
    def test_bit_identical_to_masked_oracle(self):
        assert same_bits(sigmoid(SIGMOID_GRID), masked_sigmoid(SIGMOID_GRID))

    def test_zero_d_input(self):
        for z in SIGMOID_GRID[:17]:
            out = sigmoid(np.float64(z))
            assert out.shape == ()
            assert same_bits(out, masked_sigmoid(np.float64(z)))

    def test_two_d_input_keeps_shape(self):
        z = SIGMOID_GRID[:600].reshape(20, 30)
        assert same_bits(sigmoid(z), masked_sigmoid(z))


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 16))
            X = rng.normal(size=(n, d))
            y = two_class_labels(rng, n)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            cfg = ProxyConfig()
            _, gw, gb = focal_logistic_loss_and_grad(w, b, X, y, cfg)
            fw, fb = fd_gradient(w, b, X, y, cfg)
            num = np.linalg.norm(np.append(gw - fw, gb - fb))
            den = max(np.linalg.norm(np.append(fw, fb)), 1e-12)
            assert num / den < 1e-4


class TestCurvature:
    def test_matches_central_differences_of_dldz(self):
        cfg = ProxyConfig()
        z = np.linspace(-6.0, 6.0, 241)
        h = 1e-5
        for y in (0, 1):
            _, _, d2 = focal_terms(sigmoid(z), y, cfg)
            up = focal_terms(sigmoid(z + h), y, cfg)[1]
            down = focal_terms(sigmoid(z - h), y, cfg)[1]
            fd = (up - down) / (2 * h)
            assert np.allclose(d2, fd, rtol=1e-6, atol=1e-9)
            # focal loss is not convex in z: confidently wrong samples
            # curve downwards, and the Newton weight max(d2, 0) drops them
            negative = fd < 0
            assert negative.any() and not negative.all()
            assert (np.maximum(d2, 0.0)[negative] == 0.0).all()
            assert (d2[~negative] > 0.0).all()


class TestTrainer:
    def test_converges_below_grad_tol(self, rng):
        cfg = ProxyConfig()
        for _ in range(50):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 16))
            X = rng.normal(size=(n, d))
            y = two_class_labels(rng, n)
            (w,), (b,), losses = fit_focal_logistic(X[None], y, cfg)
            _, gw, gb = focal_logistic_loss_and_grad(w, b, X, y, cfg)
            assert max(np.abs(gw).max(), abs(gb)) < cfg.grad_tol
            assert len(losses) - 1 < cfg.max_iter

    @pytest.mark.parametrize("cfg", [ProxyConfig(ridge_lambda=0.0), ProxyConfig(gamma=0.0)])
    def test_unregularized_and_gamma_zero_stay_finite(self, rng, cfg):
        n = 80
        y = np.array([0, 1] * (n // 2))
        X = np.column_stack([y * 4.0 + rng.normal(scale=0.2, size=n), rng.normal(size=n)])
        (w,), (b,), losses = fit_focal_logistic(X[None], y, cfg)
        assert np.isfinite(w).all() and np.isfinite(b)
        assert (np.diff(losses[:, 0]) <= 1e-12).all()
        assert auprc(X @ w + b, y) == 1.0

    def test_max_iter_one_takes_at_most_one_step(self, rng):
        X = rng.normal(size=(60, 5))
        y = two_class_labels(rng, 60)
        _, _, losses = fit_focal_logistic(X[None], y, ProxyConfig(max_iter=1))
        assert len(losses) <= 2

    def test_loss_trace_non_increasing(self, rng):
        for _ in range(10):
            X = rng.normal(size=(60, 5))
            y = two_class_labels(rng, 60)
            _, _, losses = fit_focal_logistic(X[None], y, ProxyConfig())
            diffs = np.diff(losses[:, 0])
            assert (diffs <= 1e-12).all()

    def test_separable_toy_reaches_perfect_ranking(self, rng):
        n = 80
        y = np.array([0, 1] * (n // 2))
        X = np.column_stack([y * 4.0 + rng.normal(scale=0.2, size=n), rng.normal(size=n)])
        (model,) = train_head(X[None], y, ProxyConfig()).heads()
        assert auprc(model.scores(X), y) == 1.0

    def test_single_class_labels_raise(self, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match="single class"):
            train_head(X[None], np.zeros(20, dtype=int), ProxyConfig())

    @pytest.mark.parametrize("labels", [[1] * 20, []], ids=["all-1", "empty"])
    def test_degenerate_labels_raise(self, rng, labels):
        X = rng.normal(size=(len(labels), 3))
        with pytest.raises(ValueError, match="single class"):
            train_head(X[None], np.array(labels, dtype=np.int8), ProxyConfig())

    def test_negative_grad_tol_is_rejected(self):
        with pytest.raises(ValueError, match="grad_tol must be >= 0"):
            ProxyConfig(grad_tol=-1.0)
        assert ProxyConfig(grad_tol=0.0).grad_tol == 0.0

    def test_deterministic(self, rng):
        X = rng.normal(size=(40, 4))
        y = two_class_labels(rng, 40)
        (m1,) = train_head(X[None], y, ProxyConfig()).heads()
        (m2,) = train_head(X[None], y, ProxyConfig()).heads()
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert m1.intercept == m2.intercept


# Focal loss without its focus term and with almost no ridge: on rows
# that a large shift makes separable, the fit runs out of halvings.
HALVING_CFG = ProxyConfig(gamma=0.0, ridge_lambda=1e-6)


def stack_member(seed: int, shift: float, n: int, d: int) -> np.ndarray:
    """Rows whose first column is shifted by ``shift`` on the positives of
    ``alternating_labels(n)``: larger shifts take more steps to fit."""
    X = np.random.default_rng(seed).normal(size=(n, d))
    X[:, 0] += shift * alternating_labels(n)
    return X


def alternating_labels(n: int) -> np.ndarray:
    return np.arange(n) % 2


def stop_reason(X, y, cfg) -> str:
    (w,), (b,), losses = fit_focal_logistic(X[None], y, cfg)
    _, gw, gb = focal_logistic_loss_and_grad(w, b, X, y, cfg)
    if max(np.abs(gw).max(), abs(gb)) < cfg.grad_tol:
        return "grad_tol"
    return "max_iter" if len(losses) - 1 == cfg.max_iter else "halvings"


def member_trace(losses: np.ndarray, m: int) -> np.ndarray:
    """Member m's losses: its column up to the first NaN."""
    column = losses[:, m]
    stopped = np.isnan(column)
    assert not stopped[0] and (stopped[:-1] <= stopped[1:]).all()  # NaN only after the stop
    return column[~stopped]


class TestStackFit:
    """A stack fit gives every member the bits it gets when fitted alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        shifts=st.lists(st.sampled_from([0.0, 1.0, 3.0, 300.0]), min_size=6, max_size=6),
        n=st.integers(6, 40),
        d=st.integers(1, 4),
        cfg=st.sampled_from([HALVING_CFG, ProxyConfig(max_iter=1), ProxyConfig(max_iter=4)]),
        cuts=st.lists(st.integers(1, 5), max_size=3),
    )
    def test_member_bits_do_not_depend_on_stack_or_chunks(self, seeds, shifts, n, d, cfg, cuts):
        y = alternating_labels(n)
        stack = np.stack([stack_member(seed, shift, n, d) for seed, shift in zip(seeds, shifts)])
        alone = [fit_focal_logistic(X[None], y, cfg) for X in stack]
        bounds = [0, *sorted({c for c in cuts if c < len(seeds)}), len(seeds)]
        chunks = [fit_focal_logistic(stack[lo:hi], y, cfg) for lo, hi in zip(bounds, bounds[1:])]
        chunked = [(w[i], b[i], losses, i) for w, b, losses in chunks for i in range(len(w))]
        whole = fit_focal_logistic(stack, y, cfg)
        assert len(whole[2]) == max(len(losses) for _, _, losses in alone)
        for m, ((w1,), (b1,), losses1) in enumerate(alone):
            trace = member_trace(losses1, 0)
            assert (np.diff(trace) <= 0).all()
            assert len(trace) - 1 <= cfg.max_iter
            w2, b2, losses2, i = chunked[m]
            for w, b, losses, k in ((w2, b2, losses2, i), (whole[0][m], whole[1][m], whole[2], m)):
                assert w.tobytes() == w1.tobytes() and b == b1
                assert member_trace(losses, k).tobytes() == trace.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        shifts=st.lists(st.sampled_from([0.0, 1.0, 3.0, 300.0]), min_size=6, max_size=6),
        n=st.integers(6, 40),
        d=st.integers(1, 4),
        max_iter=st.sampled_from([6, HALVING_CFG.max_iter]),
    )
    def test_members_get_the_bits_of_a_one_member_newton_loop(self, seeds, shifts, n, d, max_iter):
        """At max_iter 6 the larger shifts stop at max_iter; at 300 they
        stop below grad_tol (shifts 0 to 3) or out of halvings (300)."""
        cfg = dataclasses.replace(HALVING_CFG, max_iter=max_iter)
        y = alternating_labels(n)
        stack = np.stack([stack_member(seed, shift, n, d) for seed, shift in zip(seeds, shifts)])
        w, b, losses = fit_focal_logistic(stack, y, cfg)
        for m, X in enumerate(stack):
            w1, b1, trace = newton_fit(X, y, cfg)
            assert np.append(w[m], b[m]).tobytes() == np.append(w1, b1).tobytes()
            assert member_trace(losses, m).tobytes() == trace.tobytes()

    def test_negative_curvature_is_clipped_as_the_oracle_clips_it(self):
        """A negative 30 units out on the positive side is confidently wrong
        once the head separates the classes: from the second step on its
        curvature is negative (gamma 1.5), so the Newton weights the clip
        gives are not |curvature|, and the fit must match the oracle's clip."""
        cfg = ProxyConfig()
        n = 40
        y = alternating_labels(n)
        X = np.random.default_rng(0).normal(size=(n, 2))
        X[:, 0] += 4.0 * y
        X[0, 0] = 30.0
        (w,), (b,), losses = fit_focal_logistic(X[None], y, cfg)
        w1, b1, trace = newton_fit(X, y, cfg)
        assert np.append(w, b).tobytes() == np.append(w1, b1).tobytes()
        assert member_trace(losses, 0).tobytes() == trace.tobytes()
        # the fit steps on from a point where a sample curves downwards
        (w2,), (b2,), _ = fit_focal_logistic(X[None], y, dataclasses.replace(cfg, max_iter=2))
        assert len(losses) - 1 > 2
        assert focal_terms(sigmoid(X @ w2 + b2), y, cfg)[2].min() < 0.0

    def test_members_stop_for_each_reason(self):
        """The stacks above hold members that stop below grad_tol, at
        max_iter and after running out of halvings, at different steps."""
        n, d = 24, 2
        y = alternating_labels(n)
        assert [stop_reason(stack_member(s, shift, n, d), y, HALVING_CFG) for s, shift in
                [(0, 0.0), (1, 1.0), (0, 300.0), (1, 300.0)]] == ["grad_tol", "grad_tol", "halvings", "halvings"]
        stack = np.stack([stack_member(s, shift, n, d) for s, shift in [(0, 0.0), (1, 1.0), (0, 300.0)]])
        steps = [len(member_trace(fit_focal_logistic(stack, y, HALVING_CFG)[2], m)) - 1 for m in range(3)]
        assert len(set(steps)) == 3
        assert stop_reason(stack[0], y, ProxyConfig(max_iter=1)) == "max_iter"

    def test_loss_trace_has_one_row_per_step_of_the_longest_member(self):
        n = 30
        y = alternating_labels(n)
        stack = np.stack([stack_member(0, 0.0, n, 3), stack_member(0, 300.0, n, 3)])
        _, _, losses = fit_focal_logistic(stack, y, HALVING_CFG)
        lengths = [len(member_trace(losses, m)) for m in range(2)]
        assert losses.shape == (max(lengths), 2) and lengths[0] < lengths[1]


def _toy_task(rng, signal: bool, L=160, d=6, pool_size=3, positive_rate=0.15):
    """Task whose pool entry 0 optionally broadcasts the labels."""
    labels = np.zeros(L, dtype=np.int8)
    n_pos = int(positive_rate * L)
    labels[rng.choice(L, size=n_pos, replace=False)] = 1
    while not (labels[: 3 * L // 4].any() and labels[3 * L // 4 :].any()):
        labels[:] = 0
        labels[rng.choice(L, size=n_pos, replace=False)] = 1
    pool = [rng.normal(size=(L, d)) for _ in range(pool_size)]
    if signal:
        pool[0] = pool[0] * 0.1 + labels[:, None] * 3.0
    return TaskData("toy", pool, labels, 3 * L // 4)


class TestEvaluateIndividual:
    def test_label_signal_scores_high(self, rng):
        task = _toy_task(rng, signal=True)
        ind = Individual(1, 0, make_genotype(0))
        (obj,) = evaluate_batch([ind], task, ProxyConfig())
        assert obj.g1 < 0.05
        assert ind.proxy is not None

    def test_noise_scores_at_random_baseline(self, rng):
        """Permutation oracle: the achieved AUPRC on pure noise must sit
        inside the null distribution of label-permuted AUPRCs."""
        task = _toy_task(rng, signal=False)
        ind = Individual(1, 0, make_genotype(0, (1, "add", 1.0, 1.0)))
        (obj,) = evaluate_batch([ind], task, ProxyConfig())
        achieved = 1.0 - obj.g1
        y_val = task.labels[task.n_train :]
        probs = ind.proxy.scores(
            np.asarray(
                (task.pool[0] + task.pool[1])[task.n_train :], dtype=np.float64
            )
        )
        null = []
        for _ in range(300):
            null.append(auprc(probs, rng.permutation(y_val)))
        lo, hi = np.quantile(null, [0.005, 0.995])
        assert lo <= achieved <= hi

    def test_repeat_evaluation_identical(self, rng):
        task = _toy_task(rng, signal=True)
        a = Individual(1, 0, make_genotype(0, (2, "mul", 0.8, 1.1)))
        b = Individual(2, 0, a.genotype)
        (oa,) = evaluate_batch([a], task, ProxyConfig())
        (ob,) = evaluate_batch([b], task, ProxyConfig())
        assert oa == ob
        assert np.array_equal(a.proxy.coefficients, b.proxy.coefficients)

    def test_single_class_training_raises(self, rng):
        """A single-class split is a task error, which the driver rejects
        before any evaluation; it is not one individual's failure."""
        task = _toy_task(rng, signal=False)
        # wipe training positives; validation keeps one
        task.labels[: task.n_train] = 0
        task.labels[task.n_train] = 1
        ind = Individual(1, 0, make_genotype(0))
        with pytest.raises(ValueError, match="single class"):
            evaluate_batch([ind], task, ProxyConfig())

    def test_objectives_in_unit_box(self, rng):
        task = _toy_task(rng, signal=True)
        for i in range(20):
            from evofusion.model import random_genotype

            ind = Individual(i, 0, random_genotype(rng, 3, 3))
            (obj,) = evaluate_batch([ind], task, ProxyConfig())
            assert 0.0 <= obj.g1 <= 1.0 and 0.0 <= obj.g2 <= 1.0


class TestEvaluateBatchStacks:
    """A chunk's heads are scored as one stack: every member's objectives
    and head have the bits of training it alone and scoring it with
    score_rows, auprc and fpr(confusion(...)), for 1-9 validation rows."""

    N_TRAIN, D, MEMBERS = 24, 12, 7

    def task(self, rng, m):
        labels = np.zeros(self.N_TRAIN + m, dtype=np.int8)
        labels[1 : self.N_TRAIN : 3] = 1
        labels[self.N_TRAIN :] = rng.integers(0, 2, m)
        labels[self.N_TRAIN] = 1
        pool = [rng.normal(size=labels.shape + (self.D,)).astype(np.float32) for _ in range(4)]
        pool[0] += labels[:, None]
        return TaskData("toy", pool, labels, self.N_TRAIN)

    @staticmethod
    def alone(genotype, task, cfg):
        n, rows = task.n_train, task.labels.size
        fused = fuse_genotype(genotype, [entry[:n] for entry in task.pool])
        (head,) = train_head(fused[None], task.labels[:n], cfg).heads()
        probs = score_rows(genotype, head, task.pool, n, rows)
        y_val = task.labels[n:]
        return probs, (1.0 - auprc(probs, y_val), fpr(confusion(probs, y_val, DECISION_THRESHOLD))), head

    @staticmethod
    def not_in_search(*args):
        raise AssertionError("the search called a block scorer")

    # the blocks vary only the reference: one block, or 3- or 4-row blocks
    # through score_rows; the search scores every stack whole, in stacks
    # of all members or, at 4 rows' worth of BLOCK_BYTES, of one
    @pytest.mark.parametrize("blocks", ["one", "many", "many-one-head-stacks"])
    @pytest.mark.parametrize("m", range(1, 10))
    def test_members_match_scoring_alone(self, rng, monkeypatch, blocks, m):
        task = self.task(rng, m)
        cfg = ProxyConfig(max_iter=8)
        stacks = []
        # objectives depend on the ranking and the threshold alone, so the
        # probabilities that reach the metric are compared too
        monkeypatch.setattr(proxy, "auprc", lambda probs, y: stacks.append(probs) or auprc(probs, y))
        if blocks == "many":
            monkeypatch.setattr(proxy, "block_rows", lambda d: 3)
        elif blocks == "many-one-head-stacks":
            monkeypatch.setattr(proxy, "BLOCK_BYTES", 8 * 4 * self.D)
        members = [Individual(i, 0, random_genotype(rng, len(task.pool), 3)) for i in range(self.MEMBERS)]
        expected = [self.alone(ind.genotype, task, cfg) for ind in members]
        monkeypatch.setattr(proxy, "score_rows", self.not_in_search)
        monkeypatch.setattr(proxy, "block_rows", self.not_in_search)
        objectives = evaluate_batch(members, task, cfg)
        assert len(stacks) == (self.MEMBERS if blocks == "many-one-head-stacks" else 1)
        assert np.concatenate(stacks).tobytes() == np.stack([probs for probs, _, _ in expected]).tobytes()
        for ind, obj, (_, (g1, g2), head) in zip(members, objectives, expected):
            assert obj is ind.objectives
            assert np.array([obj.g1, obj.g2]).tobytes() == np.array([g1, g2]).tobytes()
            assert type(obj.g1) is float and type(obj.g2) is float
            got = ind.proxy
            assert got.coefficients.tobytes() == head.coefficients.tobytes()
            assert np.float64(got.intercept).tobytes() == np.float64(head.intercept).tobytes()
            assert got.standardizer.means.tobytes() == head.standardizer.means.tobytes()
            assert got.standardizer.stds.tobytes() == head.standardizer.stds.tobytes()


class TestEvaluateBatchStacksD128(TestEvaluateBatchStacks):
    """The same checks at d = 128."""

    D = 128


class TestScoreRows:
    """The block scorer against the scores of the whole pool: every row is
    scored by itself, so any range in blocks of any size has the bits of
    those rows of one product over all rows."""

    L = 37

    def case(self, rng, d):
        pool = [rng.normal(size=(self.L, d)).astype(np.float32) for _ in range(3)]
        g = make_genotype(2, (0, "mul", 1.3, 0.7), (1, "avg", 0.4, 1.9))
        fused = fuse_genotype(g, pool)
        (model,) = train_head(fused[None, :20], two_class_labels(rng, 20), ProxyConfig(max_iter=30)).heads()
        return g, model, pool, model.scores(fused)

    @pytest.mark.parametrize("block", [1, 3, 4, 5, 8, 10])
    def test_bit_identical_to_one_product(self, rng, monkeypatch, block):
        for d in (8, 128):
            g, model, pool, whole = self.case(rng, d)
            monkeypatch.setattr(proxy, "BLOCK_BYTES", 8 * d * block)
            assert proxy.block_rows(d) == block
            # starts on and off block boundaries, and row counts the block
            # size does not divide
            for start in range(self.L):
                for stop in range(start, self.L + 1):
                    assert score_rows(g, model, pool, start, stop).tobytes() == whole[start:stop].tobytes()

    def test_block_rows_fill_block_bytes(self, monkeypatch):
        assert proxy.block_rows(64) == 512
        assert proxy.block_rows(6) == 5461
        monkeypatch.setattr(proxy, "BLOCK_BYTES", 8)
        assert proxy.block_rows(128) == 1
