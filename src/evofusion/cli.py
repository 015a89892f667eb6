"""Command-line entry points.

Subcommands: ``gen`` (write a synthetic benchmark), ``evolve`` (run the
search and dump Pareto sets, strategies, histories and a metric
summary), ``predict`` (score a pool with a saved strategy), ``eval``
(metrics for a prediction file). Exit codes: 0 success, 1 usage error,
2 data or format error. Commands raise ValueError or OSError for any
unreadable or malformed input and any unwritable output; ``main`` alone
turns those into one ``evofusion: error:`` line and exit 2.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .data import (
    SynthConfig,
    TaskData,
    encode_genes,
    generate_synthetic,
    is_json_number,
    load_all_tasks,
    load_strategy,
    read_labels,
    read_manifest,
    read_pool_dir,
    read_predictions,
    save_strategy,
)
from .driver import TaskResult, predict, run_evolution, run_naive_mean
from .metrics import auprc, confusion, fpr, mcc, supplementary_metrics
from .operators import EvoConfig
from .proxy import DECISION_THRESHOLD, ProxyConfig

SUMMARY_KEYS = ("auprc", "mcc", "fpr", "sen", "pre", "spe", "acc")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this artifact reserves 2 for
    data errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# whether a JSON value fits a config field of each annotated type; ints pass as floats
_JSON_TYPES = {
    int: lambda v: is_json_number(v, integer=True),
    float: is_json_number,
    tuple: lambda v: isinstance(v, list),
    type(None): lambda v: v is None,
}


def _section(doc: dict, name: str, cls):
    """Build a config dataclass from one document section, rejecting
    unknown keys and numbers of the wrong JSON type."""
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ValueError(f"config section {name!r} must be an object")
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        if key not in hints:
            raise ValueError(f"unknown key {key!r} in config section {name!r}")
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if not any(_JSON_TYPES[typing.get_origin(kind) or kind](value) for kind in kinds):
            raise ValueError(f"config key {key!r} in section {name!r} has the wrong type")
    kwargs = dict(raw)
    try:
        if cls is SynthConfig and kwargs.get("informative") is not None:
            rows = kwargs["informative"]
            if not all(isinstance(row, list) and all(is_json_number(k, integer=True) for k in row) for row in rows):
                raise TypeError("'informative' must hold one list of integer pool indices per task")
            kwargs["informative"] = tuple(tuple(row) for row in rows)
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid value in config section {name!r}: {exc}") from exc


def load_run_config(path) -> tuple[EvoConfig, ProxyConfig, SynthConfig]:
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config {path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config {path}: document must be a JSON object")
    for key in doc:
        if key not in ("evolution", "proxy", "synthetic"):
            raise ValueError(f"unknown key {key!r} at config top level")
    return (
        _section(doc, "evolution", EvoConfig),
        _section(doc, "proxy", ProxyConfig),
        _section(doc, "synthetic", SynthConfig),
    )


def _task_summary_lines(name: str, values: dict[str, float]) -> list[str]:
    lines = [f"task: {name}"]
    lines += [f"{key}: {values[key]!r}" for key in SUMMARY_KEYS]
    lines.append("")
    return lines


def _metrics(scores: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """Every ``SUMMARY_KEYS`` metric of probabilities against 0/1 labels."""
    counts = confusion(scores, labels, DECISION_THRESHOLD)
    values = {"auprc": auprc(scores, labels), "mcc": mcc(counts), "fpr": fpr(counts)}
    values.update(supplementary_metrics(counts))
    return values


def _write_outputs(out_dir: Path, tasks: list[TaskData], results: list[TaskResult]) -> None:
    task_names = [t.descriptor.name for t in tasks]
    summary_lines: list[str] = []
    for task, result in zip(tasks, results):
        name = result.task_name
        with open(out_dir / f"pareto.{name}.out", "w", encoding="utf-8") as fh:
            for ind in result.pareto:
                fh.write(
                    json.dumps(
                        {
                            "id": ind.id,
                            "g1": ind.objectives.g1,
                            "g2": ind.objectives.g2,
                            "genes": encode_genes(ind.genotype),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        save_strategy(
            out_dir / f"strategy.{name}.out",
            result.strategy,
            name,
            task.pool[0].shape[1],
            task.descriptor.pool_size,
        )
        others = [n for n in task_names if n != name]
        with open(out_dir / f"history.{name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["generation", "task", "best_g1", "best_g2", "mean_g1"]
                + [f"transfers_from_{n}" for n in others]
            )
            for stat in result.history:
                row = [stat.generation, name, repr(stat.best_g1), repr(stat.best_g2), repr(stat.mean_g1)]
                row += [stat.transfers.get(task_names.index(n), 0) for n in others]
                writer.writerow(row)
        probs = predict(result.strategy, task.pool)[task.val_idx]
        summary_lines += _task_summary_lines(name, _metrics(probs, task.labels[task.val_idx]))
    (out_dir / "summary.out").write_text("\n".join(summary_lines), encoding="utf-8")


def cmd_gen(args) -> int:
    _, _, synth_cfg = load_run_config(args.config)
    manifest = generate_synthetic(synth_cfg, args.out)
    print(f"benchmark written to {args.out}")
    print(f"tasks: {manifest.task_count}, pool entries per task: {2 * manifest.task_count - 1}")
    for entry in manifest.tasks:
        print(
            f"  {entry.name}: residues={entry.residues} dim={entry.feature_dim} "
            f"positives={entry.positive_count} informative={list(entry.informative_indices)}"
        )
    return 0


def cmd_evolve(args) -> int:
    evo_cfg, proxy_cfg, _ = load_run_config(args.config)
    if args.seed is not None:
        evo_cfg = dataclasses.replace(evo_cfg, seed=args.seed)
    if args.no_enm:
        if args.naive_mean:
            print("warning: --no-enm is redundant with --naive-mean", file=sys.stderr)
        evo_cfg = dataclasses.replace(evo_cfg, transfer_prob=0.0)
    tasks = load_all_tasks(read_manifest(args.data))
    out_dir = Path(args.out)
    # made before the search, so an unusable --out costs no search time
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.naive_mean:
        run = run_naive_mean(tasks, proxy_cfg)
    else:
        run = run_evolution(tasks, evo_cfg, proxy_cfg)
    _write_outputs(out_dir, tasks, run.tasks)
    print(f"results written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    strategy, pool_size = load_strategy(args.strategy)
    pool = read_pool_dir(args.pool_dir, pool_size, strategy.proxy.coefficients.shape[0])
    probs = predict(strategy, pool)
    Path(args.out).write_text("".join(f"{float(p)!r}\n" for p in probs), encoding="utf-8")
    print(f"{probs.size} probabilities written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    scores = read_predictions(args.pred)
    labels = read_labels(args.labels)
    if scores.size != labels.size:
        raise ValueError(
            f"{scores.size} predictions in {args.pred} vs {labels.size} labels in {args.labels}"
        )
    if not labels.any():
        raise ValueError(f"label file {args.labels} has no positive labels, so AUPRC is undefined")
    values = _metrics(scores, labels)
    for key in SUMMARY_KEYS:
        print(f"{key}: {values[key]!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evofusion", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_gen = sub.add_parser("gen", help="generate a synthetic benchmark")
    p_gen.add_argument("--config", required=True, help="JSON run configuration")
    p_gen.add_argument("--out", required=True, help="output benchmark directory")
    p_gen.set_defaults(func=cmd_gen)

    p_evo = sub.add_parser("evolve", help="run the multi-task search")
    p_evo.add_argument("--data", required=True, help="benchmark directory (with manifest)")
    p_evo.add_argument("--config", required=True, help="JSON run configuration")
    p_evo.add_argument("--out", required=True, help="output directory")
    p_evo.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p_evo.add_argument("--no-enm", action="store_true", help="disable cross-task neighborhoods")
    p_evo.add_argument(
        "--naive-mean",
        action="store_true",
        help="skip evolution; evaluate the equal-weight mean of all pool entries",
    )
    p_evo.add_argument("--threads", type=int, help="ignored; the search runs serially")
    p_evo.set_defaults(func=cmd_evolve)

    p_pred = sub.add_parser("predict", help="score a pool directory with a saved strategy")
    p_pred.add_argument("--strategy", required=True)
    p_pred.add_argument("--pool-dir", dest="pool_dir", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="print metrics for a prediction file")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--labels", required=True)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"evofusion: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
