import math

import numpy as np
import pytest

from evofusion.data import TaskData
from evofusion.metrics import auprc
from evofusion.model import Individual, ObjectiveVector
from evofusion.proxy import (
    ProxyConfig,
    evaluate_individual,
    fit_focal_logistic,
    focal_logistic_loss_and_grad,
    focal_terms,
    sigmoid,
    train_head,
)

from conftest import make_genotype
from oracles import masked_sigmoid


def fd_gradient(w, b, X, y, cfg, h=1e-6):
    """Central finite differences of the training loss."""
    loss = lambda wv, bv: focal_logistic_loss_and_grad(wv, bv, X, y, cfg)[0]
    grad_w = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad_w[i] = (loss(up, b) - loss(down, b)) / (2 * h)
    grad_b = (loss(w, b + h) - loss(w, b - h)) / (2 * h)
    return grad_w, grad_b


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
            w, b, losses = fit_focal_logistic(X, y, cfg)
            _, gw, gb = focal_logistic_loss_and_grad(w, b, X, y, cfg)
            assert max(np.abs(gw).max(), abs(gb)) < cfg.grad_tol
            assert len(losses) - 1 < cfg.max_iter

    @pytest.mark.parametrize("cfg", [ProxyConfig(ridge_lambda=0.0), ProxyConfig(gamma=0.0)])
    def test_unregularized_and_gamma_zero_stay_finite(self, rng, cfg):
        n = 80
        y = np.array([0, 1] * (n // 2))
        X = np.column_stack([y * 4.0 + rng.normal(scale=0.2, size=n), rng.normal(size=n)])
        w, b, losses = fit_focal_logistic(X, y, cfg)
        assert np.isfinite(w).all() and np.isfinite(b)
        assert (np.diff(losses) <= 1e-12).all()
        assert auprc(X @ w + b, y) == 1.0

    def test_max_iter_one_takes_at_most_one_step(self, rng):
        X = rng.normal(size=(60, 5))
        y = two_class_labels(rng, 60)
        _, _, losses = fit_focal_logistic(X, y, ProxyConfig(max_iter=1))
        assert len(losses) <= 2

    def test_loss_trace_non_increasing(self, rng):
        for _ in range(10):
            X = rng.normal(size=(60, 5))
            y = two_class_labels(rng, 60)
            _, _, losses = fit_focal_logistic(X, y, ProxyConfig())
            diffs = np.diff(losses)
            assert (diffs <= 1e-12).all()

    def test_separable_toy_reaches_perfect_ranking(self, rng):
        n = 80
        y = np.array([0, 1] * (n // 2))
        X = np.column_stack([y * 4.0 + rng.normal(scale=0.2, size=n), rng.normal(size=n)])
        model = train_head(X, y, ProxyConfig())
        assert auprc(model.scores(X), y) == 1.0

    def test_single_class_labels_raise(self, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match="single class"):
            train_head(X, np.zeros(20, dtype=int), ProxyConfig())

    @pytest.mark.parametrize("labels", [[1] * 20, []], ids=["all-1", "empty"])
    def test_degenerate_labels_raise(self, rng, labels):
        X = rng.normal(size=(len(labels), 3))
        with pytest.raises(ValueError, match="single class"):
            train_head(X, np.array(labels, dtype=np.int8), ProxyConfig())

    def test_deterministic(self, rng):
        X = rng.normal(size=(40, 4))
        y = two_class_labels(rng, 40)
        m1 = train_head(X, y, ProxyConfig())
        m2 = train_head(X, y, ProxyConfig())
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert m1.intercept == m2.intercept


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
        obj = evaluate_individual(ind, task, ProxyConfig())
        assert obj.g1 < 0.05
        assert ind.proxy is not None

    def test_noise_scores_at_random_baseline(self, rng):
        """Permutation oracle: the achieved AUPRC on pure noise must sit
        inside the null distribution of label-permuted AUPRCs."""
        task = _toy_task(rng, signal=False)
        ind = Individual(1, 0, make_genotype(0, (1, "add", 1.0, 1.0)))
        obj = evaluate_individual(ind, task, ProxyConfig())
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
        oa = evaluate_individual(a, task, ProxyConfig())
        ob = evaluate_individual(b, task, ProxyConfig())
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
            evaluate_individual(ind, task, ProxyConfig())

    def test_objectives_in_unit_box(self, rng):
        task = _toy_task(rng, signal=True)
        for i in range(20):
            from evofusion.model import random_genotype

            ind = Individual(i, 0, random_genotype(rng, 3, 3))
            obj = evaluate_individual(ind, task, ProxyConfig())
            assert 0.0 <= obj.g1 <= 1.0 and 0.0 <= obj.g2 <= 1.0
