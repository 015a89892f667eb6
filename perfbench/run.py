"""evofusion benchmark: three workloads through ``evofusion.cli.main``.

Usage (from the repository root):
    python3 perfbench/run.py --workload search-d128 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Set-up generates the inputs from ``--seed`` and writes naive-mean
strategies for them; it is repeated at least SETUP_REPEATS times and its
median is ``setup_s``. A separate worker process then runs operations in a
closed loop with one client for ``--seconds`` seconds. Its outputs are
checked by ``checks.py`` and the last stdout line is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from checks import CheckError, SearchOutput, Task
from tracing import LAYER_METRICS, SCORE_SPANS, SEARCH_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4
SETUP_MIN_S = 4.0
MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0
MAX_FEATURE_LENGTH = 25  # evolve's default genotype length limit

PROXY = {"alpha_pos": 0.85, "alpha_neg": 0.15, "gamma": 1.5, "ridge_lambda": 0.5}

# why each workload has this shape: see README.md
WORKLOADS = {
    "search-d128": {
        "kind": "search", "threads": 1, "score_passes": 20,
        "evolution": {"population_size": 20, "generations": 5},
        "proxy": {**PROXY, "max_iter": 300},
        "synthetic": {"task_count": 4, "residues": 1200, "feature_dim": 128, "positive_rate": 0.1,
                      "noise_scale": 5.0, "val_ratio": 0.75},
    },
    "search-15task": {
        "kind": "search", "threads": 2, "score_passes": 15,
        "evolution": {"population_size": 50, "generations": 3},
        "proxy": {**PROXY, "max_iter": 20},
        "synthetic": {"task_count": 15, "residues": 200, "feature_dim": 8, "positive_rate": 0.1,
                      "noise_scale": 2.0, "val_ratio": 0.25},
    },
    "deploy-score": {
        "kind": "score", "score_passes": 1,
        "evolution": {},
        "proxy": {**PROXY, "max_iter": 300},
        "synthetic": {"task_count": 4, "residues": 20000, "feature_dim": 64, "positive_rate": 0.025,
                      "noise_scale": 1.5, "val_ratio": 0.25},
    },
}

END_TO_END = (("setup_s", "s"), ("evolve_s", "s"), ("score_rows_per_s", "rows/s"),
              ("peak_rss_mb", "MB"), ("val_auprc", "1"), ("front_hv", "1"))


def cli(*argv: str) -> float:
    """Run one CLI call in this process; return its wall time."""
    import evofusion.cli

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = evofusion.cli.main(list(argv))
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up step {argv[0]} exited {code}")
    return elapsed


def write_config(path: Path, workload: dict, seed: int) -> None:
    doc = {
        "evolution": {**workload["evolution"], "seed": seed},
        "proxy": workload["proxy"],
        "synthetic": {**workload["synthetic"], "seed": seed},
    }
    path.write_text(json.dumps(doc, indent=1))


def make_inputs(work: Path) -> tuple[float, float]:
    """Generate the inputs and their naive-mean strategies; return the
    set-up time and the time of the naive-mean evolve call."""
    config = str(work / "config.json")
    for name in ("data", "strategies"):
        shutil.rmtree(work / name, ignore_errors=True)
    # Deleting files leaves deferred filesystem work (journal commits,
    # discards) that would otherwise land in the timed calls below and
    # grow from one set-up to the next; flush it first.
    os.sync()
    gen = cli("gen", "--config", config, "--out", str(work / "data"))
    evolve = cli("evolve", "--data", str(work / "data"), "--config", config,
                 "--out", str(work / "strategies"), "--naive-mean")
    return gen + evolve, evolve


def setup(work: Path) -> tuple[list[float], list[float]]:
    """Run ``make_inputs`` at least SETUP_REPEATS times and for at least
    SETUP_MIN_S seconds; return the set-up and naive-mean evolve times."""
    setup_times, evolve_times = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        total, evolve = make_inputs(work)
        setup_times.append(total)
        evolve_times.append(evolve)
    return setup_times, evolve_times


def round_steps(workload: dict, work: Path, names: list[str]) -> list[dict]:
    """CLI steps of one operation; ``{round}`` is the round's directory.

    A search operation is one ``evolve`` call. Every operation then makes
    ``score_passes`` passes of ``predict`` + ``eval`` over all tasks with
    the naive-mean strategies written at set-up, each pass timed apart.
    """
    steps = []
    if workload["kind"] == "search":
        steps.append({"timer": "evolve", "argv": [
            "evolve", "--data", str(work / "data"), "--config", str(work / "config.json"),
            "--out", "{round}", "--threads", str(workload["threads"])]})
    for p in range(workload["score_passes"]):
        for name in names:
            steps.append({"timer": f"score{p}", "argv": [
                "predict", "--strategy", str(work / "strategies" / f"strategy.{name}.out"),
                "--pool-dir", str(work / "data" / name), "--out", f"{{round}}/pred.{name}.txt"]})
            steps.append({"timer": f"score{p}", "keep_stdout": name, "argv": [
                "eval", "--pred", f"{{round}}/pred.{name}.txt",
                "--labels", str(work / "data" / name / "labels.txt")]})
    return steps


def verify(workload: dict, work: Path, tasks: list[Task], result: dict) -> tuple[float, float]:
    """Check the naive-mean strategies, round 0's predictions and (on search
    workloads) round 0's search output in full, and every other round
    against round 0's digest. Returns the mean validation AUPRC and mean
    front hypervolume of the search output, or of the naive-mean output
    on deploy-score."""
    rounds = result["rounds"]
    for index, r in enumerate(rounds):
        if index not in result["failed"] and r["digest"] != rounds[0]["digest"]:
            raise CheckError(f"round {index} outputs differ from round 0")
    round0 = work / "round0"
    stdout = json.loads((round0 / "stdout.json").read_text())
    max_len = min(MAX_FEATURE_LENGTH, 2 * len(tasks) - 1)
    aps, hvs = [], []
    for task in tasks:
        naive = SearchOutput(work / "strategies", task)
        ap = checks.check_search(naive, workload["proxy"], len(task.pool))
        pred = (round0 / f"pred.{task.name}.txt").read_text(encoding="utf-8")
        checks.check_predictions(task, naive.strategy, pred, stdout[task.name])
        out = naive
        if workload["kind"] == "search":
            out = SearchOutput(round0, task)
            ap = checks.check_search(out, workload["proxy"], max_len)
        checks.check_above_chance(out)
        aps.append(ap)
        hvs.append(checks.hypervolume([(m["g1"], m["g2"]) for m in out.pareto]))
    return float(np.mean(aps)), float(np.mean(hvs))


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(5.0, deadline - time.perf_counter())
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          stdout=sys.stderr, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text())


def run(args) -> int:
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2 ** 32
    work = ROOT / ".perfbench" / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_config(work / "config.json", workload, seed)
        setup_times, naive_evolve_times = setup(work)
        names = json.loads((work / "data" / "manifest").read_text())["tasks"]
        spec = {
            "src": str(SRC), "work": str(work), "result": str(work / "result.json"),
            "seconds": args.seconds, "min_rounds": MIN_ROUNDS, "trace": bool(args.trace),
            "max_iter": workload["proxy"]["max_iter"], "steps": round_steps(workload, work, names),
            "spans": SEARCH_SPANS if workload["kind"] == "search" else SCORE_SPANS,
        }
        result = run_worker(spec, work, started + RUN_LIMIT_S)
        tasks = [Task(work / "data", name, workload["synthetic"]["val_ratio"]) for name in names]
        attempted = len(result["rounds"])
        failed = len(result["failed"])
        correct = True
        try:
            val_auprc, front_hv = verify(workload, work, tasks, result)
        except (CheckError, OSError, ValueError, KeyError) as exc:
            print(f"check failed: {exc!r}", file=sys.stderr)
            correct, failed, val_auprc, front_hv = False, attempted, float("nan"), float("nan")
        ok = [r for i, r in enumerate(result["rounds"]) if i not in result["failed"]]
        rows = sum(t.labels.size for t in tasks)
        evolve_times = [r["evolve"] for r in ok] if workload["kind"] == "search" else naive_evolve_times
        pass_times = [t for r in ok for timer, t in r.items() if timer.startswith("score")]
        values = {
            "setup_s": statistics.median(setup_times),
            "evolve_s": statistics.median(evolve_times) if evolve_times else float("nan"),
            "score_rows_per_s": rows / statistics.median(pass_times) if pass_times else float("nan"),
            "peak_rss_mb": result["peak_rss_mb"],
            "val_auprc": val_auprc,
            "front_hv": front_hv,
        }
        units = dict(END_TO_END)
        print(f"workload {args.workload} seed {seed}: {attempted} operations, {failed} failed, "
              f"traced={bool(args.trace)}")
        for name, value in values.items():
            print(f"  {name}: {value:.6g} {units[name]}")
        print(f"  evolve times: {' '.join(f'{t:.3f}' for t in evolve_times)} s; "
              f"set-up times: {' '.join(f'{t:.3f}' for t in setup_times)} s")
        if pass_times:
            q = statistics.quantiles(pass_times, n=4) if len(pass_times) > 1 else pass_times * 3
            print(f"  score pass times: {len(pass_times)} passes, min {min(pass_times):.4f} "
                  f"q1 {q[0]:.4f} median {q[1]:.4f} q3 {q[2]:.4f} max {max(pass_times):.4f} s")
        if args.trace:
            silent = result["silent_spans"]
            if silent:
                print(f"spans that recorded no call: {', '.join(silent)}", file=sys.stderr)
                return 1
            metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in LAYER_METRICS}
        else:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test() -> int:
    """Show that every check rejects an output with one corrupted value."""
    import worker

    workload = {
        "kind": "search", "threads": 1, "score_passes": 1,
        "evolution": {"population_size": 12, "generations": 3},
        "proxy": {**PROXY, "max_iter": 50},
        "synthetic": {"task_count": 3, "residues": 240, "feature_dim": 6, "positive_rate": 0.1,
                      "noise_scale": 2.0, "val_ratio": 0.5},
    }
    work = ROOT / ".perfbench" / f"self-test-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_config(work / "config.json", workload, 7)
        make_inputs(work)
        names = json.loads((work / "data" / "manifest").read_text())["tasks"]
        spec = {"work": str(work), "seconds": 0, "min_rounds": 2,
                "steps": round_steps(workload, work, names)}
        result = worker.run_rounds(spec)
        tasks = [Task(work / "data", name, 0.5) for name in names]
        verify(workload, work, tasks, result)
        round0 = work / "round0"
        stdout = json.loads((round0 / "stdout.json").read_text())
        outs = [SearchOutput(round0, task) for task in tasks]
        # a task whose front has two distinct points, for the dominance case
        out = next(o for o in outs if len({(m["g1"], m["g2"]) for m in o.pareto}) > 1)
        pred = (round0 / f"pred.{out.task.name}.txt").read_text()
        lines = pred.split("\n")

        def corrupt(path, value):
            def apply(o):
                target = getattr(o, path[0])
                for key in path[1:-1]:
                    target = target[key]
                target[path[-1]] = value(target[path[-1]])
            return apply

        def dominate(o):
            # give the lowest-g1 member the g2 of the next distinct point
            points = sorted({(m["g1"], m["g2"]) for m in o.pareto})
            member = next(m for m in o.pareto if (m["g1"], m["g2"]) == points[0])
            member["g2"] = points[1][1]

        def shifted_line(i, value):
            return "\n".join(lines[:i] + [value] + lines[i + 1:])

        def genotypes(o):
            checks.check_genotypes(o, 2 * len(tasks) - 1)

        cases = [
            ("weight outside [0.1, 2]", genotypes,
             corrupt(["pareto", 0, "genes", 0, 2], lambda w: 2.5)),
            ("unknown operator", genotypes,
             corrupt(["pareto", 0, "genes", 0, 1], lambda op: "xor")),
            ("pool index out of range", genotypes,
             corrupt(["strategy", "genes", 0, 0], lambda k: 99)),
            ("dominated Pareto member", checks.check_front,
             dominate),
            ("strategy not the front minimum", checks.check_front,
             corrupt(["strategy", "objectives", 0], lambda g: g + 1e-3)),
            ("strategy objective g1", checks.check_refold,
             corrupt(["strategy", "objectives", 0], lambda g: g + 1e-7)),
            ("strategy objective g2", checks.check_refold,
             corrupt(["strategy", "objectives", 1], lambda g: g + 1e-7)),
            ("summary auprc", checks.check_refold, corrupt(["summary", "auprc"], lambda v: v + 1e-7)),
            ("summary fpr", checks.check_refold, corrupt(["summary", "fpr"], lambda v: v + 1e-7)),
            ("standardizer mean", checks.check_refold,
             corrupt(["strategy", "standardizer", "means", 0], lambda v: v + 1e-3)),
            ("head intercept", lambda o: checks.check_head(o, PROXY),
             corrupt(["strategy", "intercept"], lambda v: 30.0)),
            ("AUPRC at chance", checks.check_above_chance, corrupt(["summary", "auprc"], lambda v: 0.0)),
        ]
        rejected = 0
        for label, check, apply in cases:
            broken = copy.deepcopy(out)
            apply(broken)
            rejected += _rejects(label, lambda: check(broken))
        strategy = SearchOutput(work / "strategies", out.task).strategy
        eval_text = stdout[out.task.name]
        auprc_line = next(line for line in eval_text.splitlines() if line.startswith("auprc"))
        prediction_cases = [
            ("prediction value", shifted_line(3, repr(float(lines[3]) + 1e-9)), eval_text),
            ("prediction above 1", shifted_line(3, "1.5"), eval_text),
            ("missing prediction", "\n".join(lines[1:]), eval_text),
            ("eval auprc", pred, eval_text.replace(auprc_line, f"auprc: {float(auprc_line[7:]) + 1e-7!r}")),
        ]
        for label, pred_text, eval_out in prediction_cases:
            rejected += _rejects(label, lambda: checks.check_predictions(
                out.task, strategy, pred_text, eval_out))
        summary = (round0 / "summary.out").read_bytes()
        (work / "summary.out").write_bytes(summary[:-1] + bytes([summary[-1] ^ 1]))
        rejected += _rejects("byte-identical outputs", lambda: checks.require(
            checks.digest([work / "summary.out"]) == checks.digest([round0 / "summary.out"]),
            "summary.out differs between rounds"))
        total = len(cases) + len(prediction_cases) + 1
        print(f"self-test: {rejected} of {total} corrupted outputs rejected")
        return 0 if rejected == total else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _rejects(label: str, check) -> bool:
    try:
        check()
    except CheckError as exc:
        print(f"  rejected {label}: {exc}")
        return True
    print(f"  NOT rejected: {label}")
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (SRC / "evofusion" / "cli.py").is_file():
        print(f"evofusion sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evofusion

    if Path(evofusion.__file__).resolve().parent != SRC / "evofusion":
        print(f"evofusion imported from {evofusion.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
