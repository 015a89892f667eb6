"""Orchestration of the multi-task search.

Each task evolves its own population; once per generation the tasks
exchange elite genotypes through the neighborhood mechanism and then
advance independently (offspring generation, batch DE weight
refinement, evaluation, NSGA-III truncation). Every task owns an rng
stream spawned from (seed, task position), so a task's results do not
depend on the order in which the tasks are advanced, nor on which
worker process advances them. The caller is worker 0; each other
worker is a child process that reads its tasks from its stdin and
trades elites and results with the caller over one socket.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import socket
import subprocess
import sys
import tempfile
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import TaskData, check_f32_values
from .model import (
    FusionGene,
    Genotype,
    Individual,
    TaskDescriptor,
    TaskPopulation,
    aligned_pool_size,
    random_genotype,
)
from .neighborhood import build_neighborhoods, publish_elites
from .nsga3 import environmental_selection, nondominated_sort
from .operators import EvoConfig, batch_de, generate_offspring
from .proxy import ProxyConfig, evaluate_batch, score_rows

# id space: each task owns a disjoint block, keeping ids unique and
# schedule-independent
ID_STRIDE = 10 ** 7


@dataclass(eq=False)
class GenerationStats:
    best_g1: float
    best_g2: float
    mean_g1: float
    transfers: dict[int, int]


@dataclass(eq=False)
class TaskResult:
    """A task's final population, its Pareto set, the strategy picked
    from it, and one record per generation: ``history[g]`` describes
    generation g, and ``history[0]`` the initial population."""

    population: TaskPopulation
    pareto: list[Individual]
    strategy: Individual
    history: list[GenerationStats]


def _task_rng(seed: int, position: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(position,)))


def _population_stats(pop: TaskPopulation, transfers) -> GenerationStats:
    g1s = [ind.objectives.g1 for ind in pop.members]
    g2s = [ind.objectives.g2 for ind in pop.members]
    return GenerationStats(
        best_g1=min(g1s),
        best_g2=min(g2s),
        mean_g1=float(np.mean(g1s)),
        transfers=dict(transfers),
    )


def _validate_tasks(tasks: list[TaskData]) -> list[TaskDescriptor]:
    """Check every task and describe each by its index in ``tasks``."""
    if not tasks:
        raise ValueError("need at least one task")
    pool_size = aligned_pool_size(len(tasks))
    for task in tasks:
        name, rows = task.name, task.labels.size
        if len(task.pool) != pool_size:
            raise ValueError(f"task {name}: expected {pool_size} pool entries")
        shapes = {entry.shape for entry in task.pool}
        if len(shapes) != 1:
            raise ValueError(f"task {name}: pool entries disagree on shape: {shapes}")
        (shape,) = shapes
        if len(shape) != 2:
            raise ValueError(f"task {name}: pool entries must be 2-D, got shape {shape}")
        for k, entry in enumerate(task.pool):
            check_f32_values(entry, f"task {name}: pool entry {k}")
        if task.labels.ndim != 1 or shape[0] != rows:
            raise ValueError(f"task {name}: {shape[0]} pool rows but labels of shape {task.labels.shape}")
        if not ((task.labels == 0) | (task.labels == 1)).all():
            raise ValueError(f"task {name}: labels must be 0/1")
        if not 0 < task.n_train < rows:
            raise ValueError(f"task {name}: training rows {task.n_train} outside 1 .. {rows - 1}")
        if not task.labels[task.n_train:].any():
            raise ValueError(f"task {name}: validation split has no positives")
        train = task.labels[: task.n_train]
        if not train.any() or train.all():
            raise ValueError(f"task {name}: training split needs both classes")
    return [TaskDescriptor(task.name, i, len(task.pool)) for i, task in enumerate(tasks)]


def _pareto_front(pop: TaskPopulation) -> list[Individual]:
    fronts = nondominated_sort([ind.objectives for ind in pop.members])
    return sorted((pop.members[i] for i in fronts[0]), key=lambda ind: ind.id)


def _task_result(pop: TaskPopulation, history: list[GenerationStats]) -> TaskResult:
    pareto = _pareto_front(pop)
    return TaskResult(population=pop, pareto=pareto, strategy=select_strategy(pareto), history=history)


def select_strategy(pareto: list[Individual]) -> Individual:
    """Pick the deployment strategy from a Pareto set: lowest g1, then
    lowest g2, then shortest genotype, then lowest id."""
    if not pareto:
        raise ValueError("empty Pareto set")
    return min(pareto, key=lambda ind: (*ind.sort_key()[:2], len(ind.genotype), ind.id))


def predict(strategy: Individual, pool: list[np.ndarray]) -> np.ndarray:
    """Score a pool with a trained strategy: fuse, standardize, apply
    the stored head, sigmoid, one block of rows at a time (see
    proxy.score_rows). Returns one probability per row. Raises
    ValueError before any scoring unless the pool holds every entry the
    genotype selects (so it is not empty), and every entry has the shape
    of entry 0, with the head's column count, and bounded values."""
    if strategy.proxy is None:
        raise ValueError("strategy has no trained head")
    for gene in strategy.genotype.genes:
        if not 0 <= gene.pool_index < len(pool):
            raise ValueError(f"genotype selects pool entry {gene.pool_index}, pool holds {len(pool)} entries")
    d = strategy.proxy.coefficients.shape[0]
    for i, entry in enumerate(pool):
        if entry.ndim != 2 or entry.shape[1] != d:
            raise ValueError(f"pool entry {i} has shape {entry.shape}, head expects {d} columns")
        if entry.shape != pool[0].shape:
            raise ValueError(f"pool entry {i} has shape {entry.shape}, pool entry 0 has {pool[0].shape}")
        check_f32_values(entry, f"pool entry {i}")
    return score_rows(strategy.genotype, strategy.proxy, pool, 0, pool[0].shape[0])


def naive_mean_genotype(pool_size: int) -> Genotype:
    """Equal-weight aggregation of the whole pool: a unit-weight add
    chain over every entry. Standardization makes this equivalent to the
    arithmetic mean of the pool."""
    genes = [FusionGene(0, "add", 1.0, 1.0)]
    genes += [FusionGene(k, "add", 1.0, 1.0) for k in range(1, pool_size)]
    return Genotype(tuple(genes))


def run_naive_mean(tasks: list[TaskData], proxy_cfg: ProxyConfig) -> list[TaskResult]:
    """Evaluate the naive-mean baseline on every task, without evolution.

    Each task's population, Pareto set and strategy are the one naive-mean
    individual, and its history holds generation 0 alone. Like the search,
    it runs on one BLAS thread. Raises ValueError when a task fails the
    checks of run_evolution.
    """
    results = []
    with _one_blas_thread():
        for d, task in zip(_validate_tasks(tasks), tasks):
            ind = Individual(d.position * ID_STRIDE, d.position, naive_mean_genotype(d.pool_size))
            evaluate_batch([ind], task, proxy_cfg)
            pop = TaskPopulation(d, [ind])
            results.append(_task_result(pop, [_population_stats(pop, {})]))
    return results


class _TaskState:
    """Mutable per-task evolution state."""

    def __init__(self, d: TaskDescriptor, task: TaskData, cfg: EvoConfig):
        self.task = task
        self.rng = _task_rng(cfg.seed, d.position)
        self.next_id = d.position * ID_STRIDE
        self.population = TaskPopulation(d, [])
        self.history: list[GenerationStats] = []
        # evaluation is a pure function of the genotype, so identical
        # genotypes (crossover copies, DE no-ops) reuse their result
        self.eval_cache: dict[Genotype, tuple] = {}

    def take_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def evaluate(self, individuals: list[Individual], proxy_cfg: ProxyConfig) -> None:
        """Evaluate the individuals a generation creates: each genotype
        not in the cache is evaluated once, all in one batch, and every
        individual takes its genotype's objectives and head."""
        fresh: dict[Genotype, Individual] = {}
        for ind in individuals:
            if ind.genotype not in self.eval_cache:
                fresh.setdefault(ind.genotype, ind)
        evaluate_batch(list(fresh.values()), self.task, proxy_cfg)
        for genotype, first in fresh.items():
            self.eval_cache[genotype] = (first.objectives, first.proxy)
        for ind in individuals:
            ind.objectives, ind.proxy = self.eval_cache[ind.genotype]


def _init_task(state: _TaskState, cfg: EvoConfig, proxy_cfg: ProxyConfig) -> None:
    d = state.population.task
    members = [
        Individual(state.take_id(), d.position, random_genotype(state.rng, d.pool_size, cfg.max_feature_length))
        for _ in range(cfg.population_size)
    ]
    state.evaluate(members, proxy_cfg)
    state.population = TaskPopulation(d, members)
    state.history.append(_population_stats(state.population, {}))


def _advance_task(state: _TaskState, neighborhood: dict, cfg: EvoConfig, proxy_cfg: ProxyConfig) -> None:
    pop = state.population
    transfers: Counter = Counter()
    offspring_genotypes = []
    for _ in range(cfg.population_size):
        child, source = generate_offspring(pop, neighborhood, cfg, state.rng)
        if source is not None:
            transfers[source] += 1
        offspring_genotypes.append(child)
    parent_best = min(pop.members, key=Individual.sort_key).genotype
    offspring_genotypes = batch_de(offspring_genotypes, parent_best, cfg, state.rng)
    offspring = [Individual(state.take_id(), pop.task.position, genotype) for genotype in offspring_genotypes]
    state.evaluate(offspring, proxy_cfg)
    union = pop.members + offspring
    survivors = environmental_selection(union, cfg.population_size, state.rng)
    state.population = TaskPopulation(pop.task, survivors)
    state.history.append(_population_stats(state.population, transfers))


def _find_openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS,
    or None when numpy links another BLAS. numpy's core extension links
    the library, so its symbols resolve through the extension."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None


_OPENBLAS = _find_openblas()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with one OpenBLAS thread, then restore the count.

    OpenBLAS splits its reductions by thread count, so a head's last
    bits would depend on the process that trains it. Without numpy's
    bundled OpenBLAS nothing is set, and every process keeps the same
    default."""
    if _OPENBLAS is None:
        yield
        return
    get, set_ = _OPENBLAS
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _run_share(
    share: list[tuple[TaskDescriptor, TaskData]],
    cfg: EvoConfig,
    proxy_cfg: ProxyConfig,
    exchange: Callable[[list[Individual]], list[Individual]],
) -> list[TaskResult]:
    """Evolve one worker's tasks for the whole run, on one BLAS thread.

    At every generation barrier the share publishes its elites and
    ``exchange`` returns every task's elites in task-position order.
    """
    with _one_blas_thread():
        states = [_TaskState(d, task, cfg) for d, task in share]
        for state in states:
            _init_task(state, cfg, proxy_cfg)
        for _ in range(cfg.generations):
            pops = [s.population for s in states]
            nmap = build_neighborhoods(exchange(publish_elites(pops, cfg)), pops, cfg)
            for state in states:
                _advance_task(state, nmap[state.population.task.position], cfg, proxy_cfg)
        return [_task_result(s.population, s.history) for s in states]


class WorkerError(OSError):
    """A worker process failed to start, raised or died."""


class _Worker:
    """A child interpreter running ``_run_share`` over a fixed share of
    the tasks. Frames are pickles. The share is written to a temporary
    file that is the child's stdin; after that one socket carries each
    barrier's elites down and (failed, value) pairs with the child's
    elites, its results or its error up. Its stdout and stderr are the
    caller's."""

    def __init__(
        self, index: int, share: list[tuple[TaskDescriptor, TaskData]], cfg: EvoConfig, proxy_cfg: ProxyConfig
    ):
        names = ", ".join(d.name for d, _ in share)
        self.label = f"worker {index} (tasks {names})"
        env = dict(os.environ)
        if _OPENBLAS is not None:
            # its share runs on one thread anyway; starting on one spares
            # the child's numpy import a spinning OpenBLAS thread (~0.07 s)
            env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SOURCE_ROOT, env.get("PYTHONPATH"))))
        with tempfile.TemporaryFile() as setup:
            pickle.dump((share, cfg, proxy_cfg), setup, protocol=pickle.HIGHEST_PROTOCOL)
            setup.seek(0)
            ours, theirs = socket.socketpair()
            with theirs:
                try:
                    self.proc = subprocess.Popen(
                        [sys.executable, "-c", _CHILD_MAIN, str(theirs.fileno())],
                        stdin=setup,
                        pass_fds=(theirs.fileno(),),
                        env=env,
                    )
                except OSError as exc:
                    ours.close()
                    raise WorkerError(f"{self.label} could not start: {exc}") from exc
        self.channel = ours.makefile("rwb")
        ours.close()  # the channel keeps the descriptor open until it closes

    def broadcast(self, data: bytes) -> None:
        try:
            self.channel.write(data)
            self.channel.flush()
        except OSError:
            raise WorkerError(f"{self.label} exited with code {self._exit_code()}") from None

    def receive(self):
        """The child's next frame: its elites or its results."""
        try:
            failed, value = pickle.load(self.channel)
        except (EOFError, OSError, pickle.UnpicklingError):  # the socket closed, at once or mid-frame
            raise WorkerError(f"{self.label} exited with code {self._exit_code()}") from None
        if failed:
            raise WorkerError(f"{self.label} failed: {value}")
        return value

    def _exit_code(self):
        try:
            return self.proc.wait(timeout=_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()

    def stop(self, kill: bool) -> None:
        """End the child (at once if ``kill``) and close the socket."""
        if kill and self.proc.poll() is None:
            self.proc.kill()
        self._exit_code()
        try:
            self.channel.close()
        except OSError:
            pass  # unsent bytes for an ended child


# run in a child: python -c _CHILD_MAIN <fd of its socket to the caller>
_CHILD_MAIN = "import sys; from evofusion.driver import _serve; _serve(int(sys.argv[1]))"
_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# how long a child that has stopped sending may take to exit before it is killed
_EXIT_WAIT_S = 10.0


def _serve(fd: int) -> None:
    """Child side of ``_Worker``: read the share, run it, send the results."""
    with socket.socket(fileno=fd) as sock, sock.makefile("rwb") as channel:

        def send(failed: bool, value) -> None:
            pickle.dump((failed, value), channel, protocol=pickle.HIGHEST_PROTOCOL)
            channel.flush()

        def exchange(elites: list[Individual]) -> list[Individual]:
            send(False, elites)
            return pickle.load(channel)

        try:
            share, cfg, proxy_cfg = pickle.load(sys.stdin.buffer)
            results = _run_share(share, cfg, proxy_cfg, exchange)
        except BaseException as exc:  # reported to the caller; the child then exits
            try:
                send(True, f"{type(exc).__name__}: {exc}")
            except OSError:
                pass  # the caller is gone
            raise SystemExit(1) from None
        send(False, results)


def run_evolution(
    tasks: list[TaskData], cfg: EvoConfig, proxy_cfg: ProxyConfig, workers: int = 1
) -> list[TaskResult]:
    """Run the full multi-task search and return one result per task,
    in the order of ``tasks``.

    Deterministic given cfg.seed: tasks only interact at the generation
    barrier where neighborhoods are rebuilt from all populations, so the
    results do not depend on ``workers``. With ``workers`` = W > 1 (at
    most one per task), worker w evolves tasks w, w+W, ...; worker 0 is
    the caller and the others are child processes. Every worker runs on
    one BLAS thread, and the caller's count is restored on return.
    Every generation the workers meet at one exchange of elites, also
    when no task publishes any. A worker that fails ends the run with
    WorkerError, an OSError.
    """
    described = list(zip(_validate_tasks(tasks), tasks))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    count = min(workers, len(tasks))
    shares = [described[w::count] for w in range(count)]
    children: list[_Worker] = []
    done = False
    try:
        for w in range(1, count):
            children.append(_Worker(w, shares[w], cfg, proxy_cfg))

        def gather(own: list[Individual]) -> list[Individual]:
            published = own + [e for child in children for e in child.receive()]
            elites = sorted(published, key=lambda e: e.task)
            if children:
                data = pickle.dumps(elites, protocol=pickle.HIGHEST_PROTOCOL)
                for child in children:
                    child.broadcast(data)
            return elites

        results: list = [None] * len(tasks)
        results[0::count] = _run_share(shares[0], cfg, proxy_cfg, gather)
        for w, child in enumerate(children, start=1):
            results[w::count] = child.receive()
        done = True
    finally:
        for child in children:
            child.stop(kill=not done)
    return results
