import numpy as np
import pytest

from evofusion import driver
from evofusion.data import SynthConfig, generate_synthetic, load_all_tasks
from evofusion.driver import (
    naive_mean_genotype,
    predict,
    run_evolution,
    run_naive_mean,
    select_strategy,
)
from evofusion.fusion import Standardizer
from evofusion.model import Individual, ObjectiveVector
from evofusion.operators import EvoConfig
from evofusion.proxy import ProxyConfig, ProxyModel

from conftest import make_genotype

FAST_PROXY = ProxyConfig(max_iter=150)


def small_benchmark(tmp_path, seed=40, task_count=3, noise=2.5, name="bench"):
    cfg = SynthConfig(
        task_count=task_count,
        residues=240,
        feature_dim=8,
        positive_rate=0.08,
        cross_correlation=0.5,
        noise_scale=noise,
        seed=seed,
    )
    manifest = generate_synthetic(cfg, tmp_path / name)
    return load_all_tasks(manifest)


def run_snapshot(result):
    """Comparable deep image of a run: populations, objectives, history."""
    image = []
    for tr in result.tasks:
        image.append(
            (
                tr.task_name,
                [(i.id, i.genotype, i.objectives.g1, i.objectives.g2) for i in tr.population.members],
                [(i.id, i.genotype) for i in tr.pareto],
                tr.strategy.id,
                (tr.initial_best.g1, tr.initial_best.g2),
                [(s.generation, s.best_g1, s.best_g2, s.mean_g1, tuple(sorted(s.transfers.items()))) for s in tr.history],
            )
        )
    return image


class TestRunEvolution:
    def test_zero_generations_returns_initial_front(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=0, seed=1)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for tr in result.tasks:
            assert tr.history == []
            assert len(tr.population.members) == 8
            assert tr.pareto
            best = min(m.objectives.g1 for m in tr.population.members)
            assert tr.initial_best.g1 == best
            assert tr.strategy in tr.pareto

    def test_same_seed_identical_runs(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=4, seed=5)
        a = run_evolution(tasks, cfg, FAST_PROXY)
        b = run_evolution(tasks, cfg, FAST_PROXY)
        assert run_snapshot(a) == run_snapshot(b)

    def test_history_length_and_population_size(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=6, seed=2)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for tr in result.tasks:
            assert [s.generation for s in tr.history] == list(range(1, 7))
            assert len(tr.population.members) == 8

    def test_elitism_never_regresses(self, tmp_path):
        tasks = small_benchmark(tmp_path, seed=41)
        cfg = EvoConfig(population_size=10, generations=6, seed=3)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for tr in result.tasks:
            best_trace = [tr.initial_best.g1] + [s.best_g1 for s in tr.history]
            assert all(b <= a + 1e-15 for a, b in zip(best_trace, best_trace[1:]))

    def test_best_improves_on_most_tasks(self, tmp_path):
        tasks = small_benchmark(tmp_path, seed=42, task_count=4)
        cfg = EvoConfig(population_size=20, generations=15, seed=7)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        improved = sum(1 for tr in result.tasks if tr.history[-1].best_g1 < tr.initial_best.g1)
        assert improved >= 3

    def test_transfer_counts_zero_without_enm(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=3, seed=1, transfer_prob=0.0)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for tr in result.tasks:
            assert all(not s.transfers for s in tr.history)

    def test_transfer_counts_zero_for_single_task(self, tmp_path):
        tasks = small_benchmark(tmp_path, task_count=1)
        cfg = EvoConfig(population_size=8, generations=3, seed=1)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        assert all(not s.transfers for s in result.tasks[0].history)

    def test_transfers_recorded_with_enm(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=10, generations=5, seed=1, transfer_prob=0.9)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        total = sum(sum(s.transfers.values()) for tr in result.tasks for s in tr.history)
        assert total > 0
        for tr in result.tasks:
            for s in tr.history:
                assert tr.task_position not in s.transfers

    def test_validation_rejects_broken_tasks(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        tasks[0].labels[tasks[0].val_idx] = 0
        with pytest.raises(ValueError):
            run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY)

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("run", ["evolution", "naive_mean"])
    def test_single_class_training_split_fails_before_any_evaluation(
        self, tmp_path, monkeypatch, label, run
    ):
        tasks = small_benchmark(tmp_path)
        tasks[1].labels[tasks[1].train_idx] = label

        def no_evaluation(*args):
            raise AssertionError("evaluated an individual before validating the tasks")

        monkeypatch.setattr(driver, "evaluate_individual", no_evaluation)
        with pytest.raises(ValueError, match="task task_01: training split"):
            if run == "evolution":
                run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY)
            else:
                run_naive_mean(tasks, FAST_PROXY)


class TestSelectStrategy:
    def test_singleton(self):
        ind = Individual(4, 0, make_genotype(0), objectives=ObjectiveVector(0.3, 0.3))
        assert select_strategy([ind]) is ind

    def test_primary_objective_rule(self):
        a = Individual(0, 0, make_genotype(0), objectives=ObjectiveVector(0.1, 0.5))
        b = Individual(1, 0, make_genotype(1), objectives=ObjectiveVector(0.2, 0.1))
        assert select_strategy([a, b]) is a

    def test_tie_break_prefers_shorter_genotype(self):
        long = Individual(0, 0, make_genotype(0, 1, 2, 3, 4), objectives=ObjectiveVector(0.1, 0.2))
        short = Individual(1, 0, make_genotype(0, 1, 2), objectives=ObjectiveVector(0.1, 0.2))
        assert select_strategy([long, short]) is short

    def test_final_tie_break_by_id(self):
        a = Individual(7, 0, make_genotype(0), objectives=ObjectiveVector(0.1, 0.2))
        b = Individual(3, 0, make_genotype(1), objectives=ObjectiveVector(0.1, 0.2))
        assert select_strategy([a, b]) is b

    def test_empty_set(self):
        with pytest.raises(ValueError):
            select_strategy([])


class TestPredict:
    def test_zero_head_gives_half_everywhere(self, rng):
        model = ProxyModel(np.zeros(4), 0.0, Standardizer(np.zeros(4), np.ones(4)))
        ind = Individual(0, 0, make_genotype(0), objectives=ObjectiveVector(0.5, 0.5), proxy=model)
        pool = [rng.normal(size=(6, 4))]
        assert np.array_equal(predict(ind, pool), np.full(6, 0.5))

    def test_reproduces_stored_objectives_on_validation(self, tmp_path):
        from evofusion.metrics import auprc, confusion, fpr

        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=3, seed=9)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for task, tr in zip(tasks, result.tasks):
            strategy = tr.strategy
            probs = predict(strategy, task.pool)[task.val_idx]
            y = task.labels[task.val_idx]
            g1 = min(max(1.0 - auprc(probs, y), 0.0), 1.0)
            g2 = fpr(confusion(probs, y, 0.5))
            assert g1 == strategy.objectives.g1
            assert g2 == strategy.objectives.g2

    def test_holdout_with_planted_feature(self, tmp_path):
        from evofusion.metrics import auprc

        # same generative layout, fresh draw: the planted feature carries over
        train_tasks = small_benchmark(tmp_path, seed=50, noise=1.0, name="train")
        holdout_tasks = small_benchmark(tmp_path, seed=51, noise=1.0, name="holdout")
        cfg = EvoConfig(population_size=10, generations=5, seed=4)
        result = run_evolution(train_tasks, cfg, FAST_PROXY)
        tr = result.tasks[0]
        holdout = holdout_tasks[0]
        probs = predict(tr.strategy, holdout.pool)
        assert auprc(probs, holdout.labels) >= 0.9

    def test_dimension_mismatch(self, rng):
        model = ProxyModel(np.zeros(4), 0.0, Standardizer(np.zeros(4), np.ones(4)))
        ind = Individual(0, 0, make_genotype(0), objectives=ObjectiveVector(0.5, 0.5), proxy=model)
        with pytest.raises(ValueError):
            predict(ind, [rng.normal(size=(6, 5))])


class TestNaiveMean:
    def test_covers_whole_pool_with_unit_add_chain(self):
        g = naive_mean_genotype(7)
        assert g.pool_indices == tuple(range(7))
        assert all(gene.op == "add" and gene.w_c == 1.0 and gene.w_f == 1.0 for gene in g.genes)

    def test_evaluates_cleanly(self, tmp_path):
        tasks = small_benchmark(tmp_path, noise=1.0)
        ind = run_naive_mean(tasks, FAST_PROXY).tasks[0].strategy
        assert ind.objectives is not None and not ind.failed
        assert len(ind.genotype) == 5

    def test_run_result_holds_the_one_individual(self, tmp_path):
        tasks = small_benchmark(tmp_path, noise=1.0)
        result = run_naive_mean(tasks, FAST_PROXY)
        for task, tr in zip(tasks, result.tasks):
            assert tr.population.members == tr.pareto == [tr.strategy]
            assert tr.population.task == task.descriptor
            assert tr.initial_best == tr.strategy.objectives
            assert tr.history == []

    def test_failed_evaluation_raises(self, tmp_path):
        tasks = small_benchmark(tmp_path, noise=1.0)
        tasks[1].pool[0][0, 0] = np.inf  # fusion fails on the first entry
        with pytest.raises(ValueError, match="evaluation failed on task task_01"):
            run_naive_mean(tasks, FAST_PROXY)
