import os
import subprocess
from dataclasses import dataclass

import numpy as np
import pytest

from evofusion import driver
from evofusion.data import SynthConfig, generate_synthetic, load_all_tasks
from evofusion.driver import (
    WorkerError,
    naive_mean_genotype,
    predict,
    run_evolution,
    run_naive_mean,
    select_strategy,
)
from evofusion.fusion import Standardizer
from evofusion.model import Individual, ObjectiveVector, TaskDescriptor
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
    for tr in result:
        image.append(
            (
                tr.population.task.name,
                [(i.id, i.genotype, i.objectives.g1, i.objectives.g2) for i in tr.population.members],
                [(i.id, i.genotype) for i in tr.pareto],
                tr.strategy.id,
                [(s.best_g1, s.best_g2, s.mean_g1, tuple(sorted(s.transfers.items()))) for s in tr.history],
            )
        )
    return image


F32_MAX = float(np.finfo(np.float32).max)
# NaN and +inf in a float32 entry, and a float64 value beyond float32's range
UNBOUNDED_VALUES = [
    pytest.param((np.float32, np.nan), id="nan"),
    pytest.param((np.float32, np.inf), id="inf"),
    pytest.param((np.float64, 1e39), id="float64-1e39"),
]


def no_evaluation(*args):
    raise AssertionError("evaluated an individual before validating the tasks")


def with_value(entry, value):
    """A copy of a pool entry in the given dtype with one value replaced."""
    dtype, v = value
    entry = entry.astype(dtype)
    entry[5, 2] = v
    return entry


class TestRunEvolution:
    def test_zero_generations_returns_initial_front(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=0, seed=1)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for tr in result:
            assert len(tr.history) == 1
            assert len(tr.population.members) == 8
            assert tr.pareto
            g1s = [m.objectives.g1 for m in tr.population.members]
            assert tr.history[0].best_g1 == min(g1s)
            assert tr.history[0].best_g2 == min(m.objectives.g2 for m in tr.population.members)
            assert tr.history[0].mean_g1 == float(np.mean(g1s))
            assert tr.history[0].transfers == {}
            assert tr.strategy in tr.pareto

    def test_generation_zero_does_not_depend_on_run_length(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        short, long = (
            run_evolution(tasks, EvoConfig(population_size=8, generations=g, seed=1), FAST_PROXY) for g in (0, 3)
        )
        for a, b in zip(short, long):
            assert len(b.history) == 4
            assert vars(a.history[0]) == vars(b.history[0])

    def test_same_seed_identical_runs(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=4, seed=5)
        a = run_evolution(tasks, cfg, FAST_PROXY)
        b = run_evolution(tasks, cfg, FAST_PROXY)
        assert run_snapshot(a) == run_snapshot(b)

    def test_history_length_and_population_size(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=6, seed=2)
        for workers in (1, 2):
            for tr in run_evolution(tasks, cfg, FAST_PROXY, workers=workers):
                assert len(tr.history) == 7  # generation 0 (the initial population) .. 6
                assert len(tr.population.members) == 8

    def test_elitism_never_regresses(self, tmp_path):
        tasks = small_benchmark(tmp_path, seed=41)
        cfg = EvoConfig(population_size=10, generations=6, seed=3)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for tr in result:
            best_trace = [s.best_g1 for s in tr.history]
            assert all(b <= a + 1e-15 for a, b in zip(best_trace, best_trace[1:]))

    def test_best_improves_on_most_tasks(self, tmp_path):
        tasks = small_benchmark(tmp_path, seed=42, task_count=4)
        cfg = EvoConfig(population_size=20, generations=15, seed=7)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        improved = sum(1 for tr in result if tr.history[-1].best_g1 < tr.history[0].best_g1)
        assert improved >= 3

    def test_transfer_counts_zero_without_enm(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=3, seed=1, transfer_prob=0.0)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        for tr in result:
            assert all(not s.transfers for s in tr.history)

    def test_transfer_counts_zero_for_single_task(self, tmp_path):
        tasks = small_benchmark(tmp_path, task_count=1)
        cfg = EvoConfig(population_size=8, generations=3, seed=1)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        assert all(not s.transfers for s in result[0].history)

    def test_transfers_recorded_with_enm(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=10, generations=5, seed=1, transfer_prob=0.9)
        result = run_evolution(tasks, cfg, FAST_PROXY)
        total = sum(sum(s.transfers.values()) for tr in result for s in tr.history)
        assert total > 0
        for tr in result:
            for s in tr.history:
                assert tr.population.task.position not in s.transfers

    def test_validation_rejects_broken_tasks(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        tasks[0].labels[tasks[0].n_train :] = 0
        with pytest.raises(ValueError):
            run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY)

    def test_one_dimensional_pool_entries_rejected(self, tmp_path):
        tasks = small_benchmark(tmp_path)
        tasks[2].pool = [entry[:, 0].copy() for entry in tasks[2].pool]
        with pytest.raises(ValueError, match=r"task task_02: pool entries must be 2-D, got shape \(240,\)"):
            run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY)

    def test_positions_are_list_indices(self, tmp_path):
        tasks = small_benchmark(tmp_path)[::-1]
        cfg = EvoConfig(population_size=8, generations=2, seed=1)
        for i, (task, tr) in enumerate(zip(tasks, run_evolution(tasks, cfg, FAST_PROXY, workers=2))):
            assert tr.population.task == TaskDescriptor(task.name, i, 5)
            assert {ind.task for ind in tr.population.members} == {i}
            assert {ind.id // driver.ID_STRIDE for ind in tr.population.members + tr.pareto} == {i}

    @pytest.mark.parametrize("n_train", [-5, 0, 240])
    def test_training_row_count_outside_the_task_rejected(self, tmp_path, n_train):
        tasks = small_benchmark(tmp_path)
        tasks[1].n_train = n_train
        with pytest.raises(ValueError, match=f"task task_01: training rows {n_train} outside 1 .. 239"):
            run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY)

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("run", ["evolution", "naive_mean"])
    def test_single_class_training_split_fails_before_any_evaluation(
        self, tmp_path, monkeypatch, label, run
    ):
        tasks = small_benchmark(tmp_path)
        tasks[1].labels[: tasks[1].n_train] = label

        monkeypatch.setattr(driver, "evaluate_individual", no_evaluation)
        with pytest.raises(ValueError, match="task task_01: training split"):
            if run == "evolution":
                run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY)
            else:
                run_naive_mean(tasks, FAST_PROXY)

    @pytest.mark.parametrize("value", UNBOUNDED_VALUES)
    @pytest.mark.parametrize("run", ["evolution-1", "evolution-2", "naive_mean"])
    def test_pool_value_beyond_float32_fails_before_any_evaluation(
        self, tmp_path, monkeypatch, children, value, run
    ):
        tasks = small_benchmark(tmp_path)
        tasks[1].pool[3] = with_value(tasks[1].pool[3], value)
        monkeypatch.setattr(driver, "evaluate_individual", no_evaluation)
        with pytest.raises(ValueError, match="task task_01: pool entry 3 holds NaN, an infinity or a value beyond"):
            if run == "naive_mean":
                run_naive_mean(tasks, FAST_PROXY)
            else:
                workers = int(run[-1])
                run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY, workers)
        assert not children

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_values_at_float32_max_accepted(self, tmp_path, dtype):
        tasks = small_benchmark(tmp_path, noise=1.0)
        for k, entry in enumerate(tasks[1].pool):
            entry = entry.astype(dtype)
            entry[k, 0], entry[k + 1, 1] = F32_MAX, -F32_MAX
            tasks[1].pool[k] = entry
        strategy = run_naive_mean(tasks, FAST_PROXY)[1].strategy
        assert strategy.objectives is not None
        assert np.isfinite(predict(strategy, tasks[1].pool)).all()
        cfg = EvoConfig(population_size=8, generations=2, seed=3)
        for tr in run_evolution(tasks, cfg, FAST_PROXY, workers=2):
            assert all(0.0 <= g <= 1.0 for ind in tr.population.members for g in ind.objectives)


@dataclass(frozen=True)
class LocalProxyConfig(ProxyConfig):
    """Defined in this test module, which a worker process cannot import."""


@pytest.fixture
def children(monkeypatch):
    """Every worker process started during the test."""
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return started


class TestWorkers:
    def test_results_do_not_depend_on_worker_count(self, tmp_path, children):
        tasks = small_benchmark(tmp_path, task_count=5)
        for transfer_prob in (0.3, 0.0):
            cfg = EvoConfig(population_size=8, generations=3, seed=6, transfer_prob=transfer_prob)
            runs = [run_evolution(tasks, cfg, FAST_PROXY, workers=w) for w in (1, 2, 3)]
            for run in runs[1:]:
                assert run_snapshot(run) == run_snapshot(runs[0])
                for a, b in zip(run, runs[0]):
                    assert np.array_equal(a.strategy.proxy.coefficients, b.strategy.proxy.coefficients)
                    assert a.strategy.proxy.intercept == b.strategy.proxy.intercept
            transfers = sum(sum(s.transfers.values()) for tr in runs[0] for s in tr.history)
            assert (transfers > 0) == (transfer_prob > 0)
        # one child for 2 workers, two for 3, per transfer setting
        assert len(children) == 6
        assert all(child.poll() is not None for child in children)

    def test_heads_do_not_depend_on_worker_count_at_d128(self, tmp_path):
        """OpenBLAS threads its reductions at this width, so the last bits
        of a head depend on the BLAS thread count of the process that
        trains it."""
        synth = SynthConfig(task_count=2, residues=300, feature_dim=128, positive_rate=0.1,
                            noise_scale=5.0, val_ratio=0.75, seed=1)
        tasks = load_all_tasks(generate_synthetic(synth, tmp_path / "d128"))
        cfg = EvoConfig(population_size=6, generations=2, seed=1)
        one, two = (run_evolution(tasks, cfg, ProxyConfig(), workers=w) for w in (1, 2))
        assert run_snapshot(two) == run_snapshot(one)
        for a, b in zip(one, two):
            for x, y in zip([a.strategy, *a.pareto], [b.strategy, *b.pareto]):
                assert np.array_equal(x.proxy.coefficients, y.proxy.coefficients)
                assert x.proxy.intercept == y.proxy.intercept

    @pytest.mark.skipif(driver._OPENBLAS is None, reason="numpy does not bundle OpenBLAS")
    def test_caller_blas_thread_count_is_restored(self, tmp_path):
        get, set_ = driver._OPENBLAS
        original = get()
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=1, seed=1)
        try:
            set_(2)
            run_evolution(tasks, cfg, FAST_PROXY, workers=2)
            assert get() == 2
            with pytest.raises(WorkerError):
                run_evolution(tasks, cfg, LocalProxyConfig(max_iter=150), workers=2)
            assert get() == 2
        finally:
            set_(original)

    def test_worker_count_is_capped_at_the_task_count(self, tmp_path, children):
        tasks = small_benchmark(tmp_path, task_count=2)
        cfg = EvoConfig(population_size=8, generations=1, seed=1)
        one = run_evolution(tasks, cfg, FAST_PROXY)
        assert run_snapshot(run_evolution(tasks, cfg, FAST_PROXY, workers=8)) == run_snapshot(one)
        assert len(children) == 1

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, tmp_path, workers):
        tasks = small_benchmark(tmp_path)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_evolution(tasks, EvoConfig(population_size=8, generations=1, seed=0), FAST_PROXY, workers)

    def test_child_that_raises_ends_the_run(self, tmp_path, children):
        tasks = small_benchmark(tmp_path, task_count=5)
        cfg = EvoConfig(population_size=8, generations=2, seed=1)
        with pytest.raises(WorkerError, match=r"worker 1 \(tasks task_01, task_04\) failed: "
                           r"ModuleNotFoundError: No module named 'test_driver'"):
            run_evolution(tasks, cfg, LocalProxyConfig(max_iter=150), workers=3)
        assert len(children) == 2
        assert all(child.poll() is not None for child in children)

    def test_child_that_dies_ends_the_run(self, tmp_path, monkeypatch, children):
        original = subprocess.Popen

        def start_then_kill(*args, **kwargs):
            child = original(*args, **kwargs)
            child.kill()
            return child

        monkeypatch.setattr(subprocess, "Popen", start_then_kill)
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=2, seed=1)
        with pytest.raises(WorkerError, match=r"worker 1 \(tasks task_01\) exited with code -9"):
            run_evolution(tasks, cfg, FAST_PROXY, workers=2)
        assert len(children) == 1
        assert all(child.poll() is not None for child in children)

    def test_child_that_cannot_start_ends_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(driver.sys, "executable", str(tmp_path / "no-such-python"))
        tasks = small_benchmark(tmp_path)
        cfg = EvoConfig(population_size=8, generations=1, seed=1)
        with pytest.raises(WorkerError, match=r"worker 1 \(tasks task_01\) could not start"):
            run_evolution(tasks, cfg, FAST_PROXY, workers=2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors through /proc")
    def test_no_descriptor_outlives_the_run(self, tmp_path):
        tasks = small_benchmark(tmp_path, task_count=5)
        cfg = EvoConfig(population_size=8, generations=2, seed=1)
        before = sorted(os.listdir("/proc/self/fd"))
        run_evolution(tasks, cfg, FAST_PROXY, workers=3)
        assert sorted(os.listdir("/proc/self/fd")) == before
        # ``kept`` holds the run's frame, so only an explicit close frees the sockets
        with pytest.raises(WorkerError) as kept:
            run_evolution(tasks, cfg, LocalProxyConfig(max_iter=150), workers=3)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_failing_caller_stops_every_child(self, tmp_path, monkeypatch, children):
        def fail(*args):
            raise RuntimeError("selection failed in the caller")

        monkeypatch.setattr(driver, "environmental_selection", fail)
        tasks = small_benchmark(tmp_path, task_count=5)
        cfg = EvoConfig(population_size=8, generations=2, seed=1)
        with pytest.raises(RuntimeError, match="selection failed in the caller"):
            run_evolution(tasks, cfg, FAST_PROXY, workers=3)
        assert len(children) == 2
        assert all(child.poll() is not None for child in children)


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
        for task, tr in zip(tasks, result):
            strategy = tr.strategy
            probs = predict(strategy, task.pool)[task.n_train :]
            y = task.labels[task.n_train :]
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
        tr = result[0]
        holdout = holdout_tasks[0]
        probs = predict(tr.strategy, holdout.pool)
        assert auprc(probs, holdout.labels) >= 0.9

    def test_dimension_mismatch(self, rng):
        model = ProxyModel(np.zeros(4), 0.0, Standardizer(np.zeros(4), np.ones(4)))
        ind = Individual(0, 0, make_genotype(0), objectives=ObjectiveVector(0.5, 0.5), proxy=model)
        with pytest.raises(ValueError):
            predict(ind, [rng.normal(size=(6, 5))])
        with pytest.raises(ValueError, match=r"pool entry 1 has shape \(3,\)"):
            predict(ind, [rng.normal(size=(6, 4)), np.zeros(3)])

    @pytest.mark.parametrize("value", UNBOUNDED_VALUES)
    def test_pool_value_beyond_float32_rejected(self, rng, value):
        model = ProxyModel(np.zeros(4), 0.0, Standardizer(np.zeros(4), np.ones(4)))
        ind = Individual(0, 0, make_genotype(0), objectives=ObjectiveVector(0.5, 0.5), proxy=model)
        pool = [rng.normal(size=(6, 4)), with_value(rng.normal(size=(6, 4)), value)]
        with pytest.raises(ValueError, match="pool entry 1 holds NaN, an infinity or a value beyond"):
            predict(ind, pool)


class TestNaiveMean:
    def test_covers_whole_pool_with_unit_add_chain(self):
        g = naive_mean_genotype(7)
        assert [gene.pool_index for gene in g.genes] == list(range(7))
        assert all(gene.op == "add" and gene.w_c == 1.0 and gene.w_f == 1.0 for gene in g.genes)

    def test_evaluates_cleanly(self, tmp_path):
        tasks = small_benchmark(tmp_path, noise=1.0)
        ind = run_naive_mean(tasks, FAST_PROXY)[0].strategy
        assert ind.objectives is not None
        assert len(ind.genotype) == 5

    def test_run_result_holds_the_one_individual(self, tmp_path):
        tasks = small_benchmark(tmp_path, noise=1.0)
        result = run_naive_mean(tasks, FAST_PROXY)
        for position, (task, tr) in enumerate(zip(tasks, result)):
            assert tr.population.members == tr.pareto == [tr.strategy]
            assert tr.population.task == TaskDescriptor(task.name, position, 5)
            (stat,) = tr.history
            assert stat.best_g1 == stat.mean_g1 == tr.strategy.objectives.g1
            assert stat.best_g2 == tr.strategy.objectives.g2
            assert stat.transfers == {}

    @pytest.mark.skipif(driver._OPENBLAS is None, reason="numpy does not bundle OpenBLAS")
    def test_heads_are_trained_on_one_blas_thread_at_d128(self, tmp_path):
        """OpenBLAS threads its reductions at this width, so without one
        BLAS thread the heads would depend on the caller's thread count."""
        synth = SynthConfig(task_count=2, residues=300, feature_dim=128, positive_rate=0.1,
                            noise_scale=5.0, val_ratio=0.75, seed=1)
        tasks = load_all_tasks(generate_synthetic(synth, tmp_path / "d128"))
        get, set_ = driver._OPENBLAS
        original = get()
        try:
            set_(2)
            caller = run_naive_mean(tasks, ProxyConfig())
            with driver._one_blas_thread():
                pinned = run_naive_mean(tasks, ProxyConfig())
        finally:
            set_(original)
        for a, b in zip(caller, pinned):
            assert np.array_equal(a.strategy.proxy.coefficients, b.strategy.proxy.coefficients)
            assert a.strategy.proxy.intercept == b.strategy.proxy.intercept
