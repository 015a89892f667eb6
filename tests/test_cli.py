import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evofusion.cli
import evofusion.driver
import evofusion.proxy
from evofusion.cli import main
from evofusion.data import read_fmat, read_manifest, save_strategy, tail_split, write_fmat
from evofusion.driver import naive_mean_genotype
from evofusion.fusion import Standardizer
from evofusion.model import Individual, ObjectiveVector
from evofusion.proxy import ProxyModel
from test_data import tree_digest


def write_config(path: Path, **sections) -> Path:
    base = {
        "evolution": {"population_size": 8, "generations": 3, "seed": 1},
        "proxy": {"max_iter": 120},
        "synthetic": {
            "task_count": 2,
            "residues": 160,
            "feature_dim": 6,
            "positive_rate": 0.08,
            "noise_scale": 1.0,
            "seed": 77,
        },
    }
    for name, overrides in sections.items():
        base.setdefault(name, {}).update(overrides)
    path.write_text(json.dumps(base, indent=1))
    return path


def parse_summary(path: Path) -> dict[str, dict[str, float]]:
    blocks = {}
    current = None
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        key, value = line.split(": ", 1)
        if key == "task":
            current = value
            blocks[current] = {}
        else:
            blocks[current][key] = float(value)
    return blocks


def run_cli(*argv) -> tuple[int, str]:
    """Run ``main`` in-process with stdout discarded; return (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A small generated benchmark (``bench/``), its one-generation run
    config (``run.json``) and naive-mean strategies (``runN/``), built once
    per module. Tests that corrupt a file work on a copy."""
    root = tmp_path_factory.mktemp("shared")
    cfg = write_config(root / "run.json", evolution={"population_size": 4, "generations": 1})
    assert run_cli("gen", "--config", cfg, "--out", root / "bench")[0] == 0
    code, _ = run_cli(
        "evolve", "--data", root / "bench", "--config", cfg, "--out", root / "runN", "--naive-mean"
    )
    assert code == 0
    return root


@pytest.fixture
def workspace(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "bench")]) == 0
    return tmp_path


class TestGen:
    def test_writes_manifest(self, workspace):
        manifest = read_manifest(workspace / "bench")
        assert manifest.task_count == 2

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"evolution": {"popsize": 10}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "popsize" in capsys.readouterr().err

    def test_removed_step_size_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"proxy": {"step_size": 0.1}}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "'step_size'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["struct_prob", "op_prob", "weight_prob", "tournament_size"])
    def test_removed_evolution_key_is_rejected(self, tmp_path, key):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"evolution": {key: 0.5}}))
        code, err = run_cli("gen", "--config", cfg, "--out", tmp_path / "x")
        assert code == 2
        assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [("proxy", "max_iter", 1.0), ("evolution", "seed", "x"), ("evolution", "generations", None),
         ("synthetic", "feature_dim", 2.5), ("evolution", "neighborhood_size", 1.5),
         ("proxy", "grad_tol", [1]), ("synthetic", "informative", 3),
         ("synthetic", "informative", [[0.5], [1]]),
         # Python's JSON parser reads NaN and Infinity, which no config value may be
         ("proxy", "gamma", float("nan")), ("evolution", "de_F", float("inf")),
         ("proxy", "alpha_pos", float("nan")),
         # and integers of any size, which no double may hold
         pytest.param("proxy", "gamma", 10**400, id="proxy-gamma-huge"),
         pytest.param("synthetic", "noise_scale", 10**400, id="synthetic-noise_scale-huge")],
    )
    def test_mistyped_config_value_is_data_error(self, tmp_path, section, key, value):
        cfg = write_config(tmp_path / "typed.json", **{section: {key: value}})
        code, err = run_cli("gen", "--config", cfg, "--out", tmp_path / "x")
        assert code == 2
        assert err.count("\n") == 1 and repr(key) in err

    @pytest.mark.parametrize(
        "section, overrides",
        [("evolution", {"generations": -3}), ("evolution", {"seed": -1}), ("synthetic", {"seed": -2}),
         ("proxy", {"alpha_pos": 2.0, "alpha_neg": -1.0}), ("synthetic", {"feature_dim": 0}),
         ("synthetic", {"noise_scale": -1}), ("proxy", {"grad_tol": -1.0})],
        ids=["generations", "evolution-seed", "synthetic-seed", "alpha", "feature-dim", "noise-scale", "grad-tol"],
    )
    def test_out_of_range_config_value_is_data_error(self, tmp_path, section, overrides):
        cfg = write_config(tmp_path / "range.json", **{section: overrides})
        code, err = run_cli("gen", "--config", cfg, "--out", tmp_path / "x")
        assert code == 2
        assert err.count("\n") == 1 and f"config section {section!r}" in err
        assert all(key in err for key in overrides)

    @pytest.mark.parametrize(
        "overrides, key",
        [({"residues": 10, "positive_rate": 0.05}, "positive_rate"),
         ({"residues": 30, "positive_rate": 0.05}, "positive_rate"),
         ({"residues": 40, "val_ratio": 0.99}, "val_ratio")],
        ids=["no-positive", "one-positive", "empty-split"],
    )
    def test_unworkable_shape_creates_no_directory(self, tmp_path, overrides, key):
        cfg = write_config(tmp_path / "shape.json", synthetic=overrides)
        code, err = run_cli("gen", "--config", cfg, "--out", tmp_path / "x")
        assert code == 2
        assert err.count("\n") == 1 and key in err
        assert not (tmp_path / "x").exists()

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"evo": {}}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "evo" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{\n  "evolution": {,}\n}')
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_same_seed_identical_trees(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


class TestEvolve:
    def evolve(self, workspace, out, *flags) -> int:
        return main(
            [
                "evolve",
                "--data",
                str(workspace / "bench"),
                "--config",
                str(workspace / "run.json"),
                "--out",
                str(workspace / out),
                *flags,
            ]
        )

    def test_outputs_present(self, workspace):
        assert self.evolve(workspace, "run1") == 0
        out = workspace / "run1"
        for name in ("task_00", "task_01"):
            assert (out / f"pareto.{name}.out").is_file()
            assert (out / f"strategy.{name}.out").is_file()
            assert (out / f"history.{name}.csv").is_file()
        assert (out / "summary.out").is_file()
        summary = parse_summary(out / "summary.out")
        assert set(summary) == {"task_00", "task_01"}
        for values in summary.values():
            assert set(values) == {"auprc", "mcc", "fpr", "sen", "pre", "spe", "acc"}

    def test_history_has_one_row_per_generation(self, workspace):
        assert self.evolve(workspace, "run1") == 0
        lines = (workspace / "run1" / "history.task_00.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["generation", "task", "best_g1", "best_g2", "mean_g1"]
        assert header[5] == "transfers_from_task_01"
        # generation 0 is the initial population, then one row per generation
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2", "3"]

    def test_seed_override_reproducible(self, workspace):
        assert self.evolve(workspace, "runA", "--seed", "7") == 0
        assert self.evolve(workspace, "runB", "--seed", "7") == 0
        for name in ("summary.out", "pareto.task_00.out", "pareto.task_01.out"):
            a = (workspace / "runA" / name).read_bytes()
            b = (workspace / "runB" / name).read_bytes()
            assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()

    def test_no_enm_flag_runs(self, workspace):
        assert self.evolve(workspace, "runE", "--no-enm") == 0
        lines = (workspace / "runE" / "history.task_00.csv").read_text().splitlines()
        transfers = [int(row.split(",")[5]) for row in lines[1:]]
        assert transfers == [0, 0, 0, 0]

    def test_naive_mean_skips_evolution(self, workspace):
        assert self.evolve(workspace, "runN", "--naive-mean") == 0
        lines = (workspace / "runN" / "history.task_00.csv").read_text().splitlines()
        assert len(lines) == 2  # header and generation 0, the one individual
        assert lines[1].split(",")[:2] == ["0", "task_00"]
        assert lines[1].split(",")[5] == "0"
        summary = parse_summary(workspace / "runN" / "summary.out")
        assert set(summary) == {"task_00", "task_01"}

    def test_blocks_change_no_output_and_objectives_match_the_summary(self, workspace, monkeypatch):
        """With 8-row blocks the training rows (120 of 160) span many blocks,
        and every output keeps the bits of one-block scoring."""
        assert self.evolve(workspace, "whole") == 0
        assert self.evolve(workspace, "naive_whole", "--naive-mean") == 0
        monkeypatch.setattr(evofusion.proxy, "BLOCK_BYTES", 8 * 6 * 8)
        assert self.evolve(workspace, "blocks") == 0
        assert self.evolve(workspace, "naive_blocks", "--naive-mean") == 0
        assert tree_digest(workspace / "blocks") == tree_digest(workspace / "whole")
        assert tree_digest(workspace / "naive_blocks") == tree_digest(workspace / "naive_whole")
        summary = parse_summary(workspace / "naive_blocks" / "summary.out")
        for name, values in summary.items():
            (line,) = (workspace / "naive_blocks" / f"pareto.{name}.out").read_text().splitlines()
            member = json.loads(line)
            assert member["g1"] == min(max(1.0 - values["auprc"], 0.0), 1.0)
            assert member["g2"] == values["fpr"]

    def test_redundant_flags_warn_but_run(self, workspace, capsys):
        assert self.evolve(workspace, "runW", "--naive-mean", "--no-enm") == 0
        assert "redundant" in capsys.readouterr().err

    def test_missing_data_dir_is_data_error(self, workspace):
        code = main(
            [
                "evolve",
                "--data",
                str(workspace / "nowhere"),
                "--config",
                str(workspace / "run.json"),
                "--out",
                str(workspace / "x"),
            ]
        )
        assert code == 2

    def test_negative_seed_flag_is_data_error(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(evofusion.cli, "load_all_tasks", _search_entered)
        capsys.readouterr()
        assert self.evolve(workspace, "runNeg", "--seed", "-4") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be >= 0" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_data_error(self, workspace, monkeypatch, capsys, threads):
        monkeypatch.setattr(evofusion.cli, "load_all_tasks", _search_entered)
        capsys.readouterr()
        assert self.evolve(workspace, "runThreads", "--threads", threads) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--threads must be >= 1, got {threads}" in err
        assert not (workspace / "runThreads").exists()

    def test_worker_that_cannot_start_is_one_line_data_error(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(evofusion.driver.sys, "executable", str(workspace / "no-such-python"))
        capsys.readouterr()
        assert self.evolve(workspace, "runWorker", "--threads", "2") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("evofusion: error: worker 1 (tasks task_01)")
        assert "Traceback" not in err

    def test_manifest_with_legacy_keys_gives_identical_output(self, workspace):
        """A manifest as earlier versions wrote it, naming every file, loads
        and drives the same run."""
        assert self.evolve(workspace, "runL0") == 0
        manifest = workspace / "bench" / "manifest"
        doc = json.loads(manifest.read_text())
        for name, entry in doc["entries"].items():
            entry["pool_files"] = [f"{name}/pool_{k}.fmat" for k in range(3)]
            entry["label_file"] = f"{name}/labels.txt"
            entry["split_rule"] = "tail"
        manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert self.evolve(workspace, "runL1") == 0
        assert tree_digest(workspace / "runL0") == tree_digest(workspace / "runL1")

    def test_bad_flag_is_usage_error(self, workspace):
        assert self.evolve(workspace, "runX", "--selector", "hypervolume") == 1

    def test_manifest_without_entries_is_data_error(self, workspace, capsys):
        manifest = workspace / "bench" / "manifest"
        doc = json.loads(manifest.read_text())
        del doc["entries"]
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.evolve(workspace, "runM") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(manifest) in err and "'entries'" in err


    @pytest.mark.parametrize("flag", [(), ("--naive-mean",)], ids=["evolve", "naive-mean"])
    def test_single_class_training_split_is_data_error(self, workspace, capsys, flag):
        entry = read_manifest(workspace / "bench").tasks[1]
        n_train = tail_split(entry.residues, entry.val_ratio)
        labels_file = workspace / "bench" / entry.name / "labels.txt"
        labels = labels_file.read_text().split()
        labels[:n_train] = ["0"] * n_train
        labels_file.write_text("\n".join(labels) + "\n")
        capsys.readouterr()
        assert self.evolve(workspace, "runS", *flag) == 2
        err = capsys.readouterr().err
        assert err.startswith("evofusion: error: task task_01: ") and err.count("\n") == 1
        assert not list((workspace / "runS").glob("pareto.*"))


class TestPredictEval:
    def slice_validation(self, workspace) -> Path:
        """Write the validation rows of task_00 as a standalone pool dir."""
        manifest = read_manifest(workspace / "bench")
        entry = manifest.tasks[0]
        task_dir = workspace / "bench" / entry.name
        n_val = -(-entry.residues * 25 // 100)  # ceil at the default 0.25
        val_dir = workspace / "valpool"
        val_dir.mkdir()
        for i in range(2 * manifest.task_count - 1):
            matrix = read_fmat(task_dir / f"pool_{i}.fmat")
            write_fmat(matrix[-n_val:], val_dir / f"pool_{i}.fmat")
        labels = (task_dir / "labels.txt").read_text().splitlines()
        (workspace / "val_labels.txt").write_text("".join(f"{v}\n" for v in labels[-n_val:]))
        return val_dir

    def test_predict_then_eval_matches_summary(self, workspace, capsys):
        TestEvolve().evolve(workspace, "run1")
        val_dir = self.slice_validation(workspace)
        pred = workspace / "preds.txt"
        assert (
            main(
                [
                    "predict",
                    "--strategy",
                    str(workspace / "run1" / "strategy.task_00.out"),
                    "--pool-dir",
                    str(val_dir),
                    "--out",
                    str(pred),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--labels", str(workspace / "val_labels.txt")]) == 0
        printed = dict(
            line.split(": ") for line in capsys.readouterr().out.strip().splitlines()
        )
        summary = parse_summary(workspace / "run1" / "summary.out")["task_00"]
        for key, value in summary.items():
            assert float(printed[key]) == value

    def test_empty_prediction_file(self, workspace):
        (workspace / "empty.txt").write_text("")
        (workspace / "labels.txt").write_text("1\n0\n")
        code = main(["eval", "--pred", str(workspace / "empty.txt"), "--labels", str(workspace / "labels.txt")])
        assert code == 2

    def test_all_half_predictions_have_fpr_one(self, workspace, capsys):
        (workspace / "half.txt").write_text("0.5\n" * 6)
        (workspace / "labels6.txt").write_text("1\n0\n0\n1\n0\n0\n")
        assert main(["eval", "--pred", str(workspace / "half.txt"), "--labels", str(workspace / "labels6.txt")]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
        assert float(printed["fpr"]) == 1.0
        assert float(printed["sen"]) == 1.0

    def test_dimension_mismatch_is_data_error(self, workspace, capsys):
        TestEvolve().evolve(workspace, "run1")
        bad_dir = workspace / "badpool"
        bad_dir.mkdir()
        write_fmat(np.zeros((10, 9), dtype=np.float32), bad_dir / "pool_0.fmat")
        write_fmat(np.zeros((10, 9), dtype=np.float32), bad_dir / "pool_1.fmat")
        write_fmat(np.zeros((10, 9), dtype=np.float32), bad_dir / "pool_2.fmat")
        code = main(
            [
                "predict",
                "--strategy",
                str(workspace / "run1" / "strategy.task_00.out"),
                "--pool-dir",
                str(bad_dir),
                "--out",
                str(workspace / "p.txt"),
            ]
        )
        assert code == 2

    def test_pool_size_mismatch_is_data_error(self, workspace, capsys):
        # strategy from a 3-task run (pool of 5) against a 2-task pool dir (3 files)
        cfg = write_config(workspace / "run3.json", synthetic={"task_count": 3})
        assert main(["gen", "--config", str(cfg), "--out", str(workspace / "bench3")]) == 0
        assert main(
            ["evolve", "--data", str(workspace / "bench3"), "--config", str(cfg),
             "--out", str(workspace / "run3"), "--naive-mean"]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--strategy",
                str(workspace / "run3" / "strategy.task_00.out"),
                "--pool-dir",
                str(workspace / "bench" / "task_00"),
                "--out",
                str(workspace / "p.txt"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "5 entries" in err and "3 pool_<k>.fmat files" in err

    @pytest.mark.parametrize("field, value", [("genes", 5), ("coefficients", "x")])
    def test_mistyped_strategy_field_is_data_error(self, workspace, capsys, field, value):
        assert TestEvolve().evolve(workspace, "runN", "--naive-mean") == 0
        strategy = workspace / "runN" / "strategy.task_00.out"
        doc = json.loads(strategy.read_text())
        doc[field] = value
        strategy.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--strategy",
                str(strategy),
                "--pool-dir",
                str(workspace / "bench" / "task_00"),
                "--out",
                str(workspace / "p.txt"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(strategy) in err and repr(field) in err


class TestUsage:
    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["train"]) == 1

    def test_missing_required_flag(self):
        assert main(["gen", "--out", "/tmp/x"]) == 1


def _strategy_with_genes(genes):
    def case(shared: Path, tmp: Path):
        doc = json.loads((shared / "runN" / "strategy.task_00.out").read_text())
        doc["genes"] = genes
        strategy = tmp / "strategy.json"
        strategy.write_text(json.dumps(doc))
        pool_dir = shared / "bench" / "task_00"
        return ["predict", "--strategy", strategy, "--pool-dir", pool_dir, "--out", tmp / "p.txt"], strategy

    return case


def _nan_in_pool(shared: Path, tmp: Path):
    pool_dir = tmp / "pool"
    shutil.copytree(shared / "bench" / "task_00", pool_dir)
    bad = pool_dir / "pool_1.fmat"
    raw = bytearray(bad.read_bytes())
    raw[14 + 4 * 7 : 14 + 4 * 8] = struct.pack("<f", float("nan"))
    bad.write_bytes(bytes(raw))
    strategy = shared / "runN" / "strategy.task_00.out"
    return ["predict", "--strategy", strategy, "--pool-dir", pool_dir, "--out", tmp / "p.txt"], bad


def _nan_in_unused_entry(shared: Path, tmp: Path):
    """A NaN in the last value of pool_2.fmat, which a strategy of pool
    entry 0 alone never fuses: every entry is still read and checked."""
    pool_dir = tmp / "pool"
    shutil.copytree(shared / "bench" / "task_00", pool_dir)
    bad = pool_dir / "pool_2.fmat"
    raw = bytearray(bad.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    bad.write_bytes(bytes(raw))
    doc = json.loads((shared / "runN" / "strategy.task_00.out").read_text())
    doc["genes"] = [[0, "add", 1.0, 1.0]]
    strategy = tmp / "strategy.json"
    strategy.write_text(json.dumps(doc))
    return ["predict", "--strategy", strategy, "--pool-dir", pool_dir, "--out", tmp / "p.txt"], bad


def _missing_labels(shared: Path, tmp: Path):
    (tmp / "pred.txt").write_text("0.5\n" * 4)
    labels = tmp / "nowhere" / "labels.txt"
    return ["eval", "--pred", tmp / "pred.txt", "--labels", labels], labels


def _labels_without_positives(shared: Path, tmp: Path):
    (tmp / "pred.txt").write_text("0.5\n" * 4)
    labels = tmp / "labels.txt"
    labels.write_text("0\n" * 4)
    return ["eval", "--pred", tmp / "pred.txt", "--labels", labels], labels


def _predict_out(parent_is_file: bool):
    def case(shared: Path, tmp: Path):
        if parent_is_file:
            (tmp / "file").write_text("")
        out = tmp / ("file" if parent_is_file else "missing") / "p.txt"
        strategy = shared / "runN" / "strategy.task_00.out"
        pool_dir = shared / "bench" / "task_00"
        return ["predict", "--strategy", strategy, "--pool-dir", pool_dir, "--out", out], out

    return case


def _pool_dir_with(shapes, bad: int):
    """A pool dir of zero FMATs of the given (rows, cols) shapes, scored with
    a naive-mean strategy (head d=6, pool of 3); ``pool_<bad>.fmat`` is the
    file the error must name."""

    def case(shared: Path, tmp: Path):
        pool_dir = tmp / "pool"
        pool_dir.mkdir()
        for k, shape in enumerate(shapes):
            write_fmat(np.zeros(shape, dtype=np.float32), pool_dir / f"pool_{k}.fmat")
        strategy = shared / "runN" / "strategy.task_00.out"
        argv = ["predict", "--strategy", strategy, "--pool-dir", pool_dir, "--out", tmp / "p.txt"]
        return argv, pool_dir / f"pool_{bad}.fmat"

    return case


def _search_entered(*args, **kwargs):
    raise AssertionError("the search ran before the bad input or output was found")


def _copied_bench(shared: Path, tmp: Path) -> tuple[list, Path]:
    """A copy of the shared benchmark and the ``evolve`` argv that reads it."""
    bench = tmp / "bench"
    shutil.copytree(shared / "bench", bench)
    return ["evolve", "--data", bench, "--config", shared / "run.json", "--out", tmp / "run"], bench


def _short_pool_entry(command: str):
    """task_00's pool_2.fmat one row short: ``evolve`` and ``predict`` read
    it through the same loader and must both name it."""

    def case(shared: Path, tmp: Path):
        argv, bench = _copied_bench(shared, tmp)
        bad = bench / "task_00" / "pool_2.fmat"
        write_fmat(read_fmat(bad)[:-1], bad)
        if command == "predict":
            strategy = shared / "runN" / "strategy.task_00.out"
            argv = ["predict", "--strategy", strategy, "--pool-dir", bench / "task_00", "--out", tmp / "p.txt"]
        return argv, bad

    return case


def _extra_pool_file(shared: Path, tmp: Path):
    argv, bench = _copied_bench(shared, tmp)
    # the pool of a 2-task benchmark is pool_0 .. pool_2
    write_fmat(read_fmat(bench / "task_01" / "pool_0.fmat"), bench / "task_01" / "pool_3.fmat")
    return argv, bench / "task_01"


def _task_named(name: str):
    """task_00 renamed to ``name`` in the manifest; its files stay put."""

    def case(shared: Path, tmp: Path):
        argv, bench = _copied_bench(shared, tmp)
        manifest = bench / "manifest"
        doc = json.loads(manifest.read_text())
        doc["tasks"][0] = name
        doc["entries"][name] = doc["entries"].pop("task_00")
        manifest.write_text(json.dumps(doc))
        return argv, manifest

    return case


def _evolve_out_under_file(shared: Path, tmp: Path):
    (tmp / "file").write_text("")
    out = tmp / "file" / "run"
    argv = ["evolve", "--data", shared / "bench", "--config", shared / "run.json", "--out", out]
    return argv, out


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(_strategy_with_genes([[3, "add", 1.0, 1.0]]), id="gene-index-past-pool"),
        pytest.param(_strategy_with_genes([]), id="no-genes"),
        pytest.param(_strategy_with_genes([[-1, "add", 1.0, 1.0]]), id="negative-gene-index"),
        pytest.param(_nan_in_pool, id="nan-in-pool-fmat"),
        pytest.param(_nan_in_unused_entry, id="nan-in-unused-pool-entry"),
        pytest.param(_missing_labels, id="eval-missing-labels"),
        pytest.param(_labels_without_positives, id="eval-labels-without-positives"),
        pytest.param(_predict_out(parent_is_file=False), id="predict-out-missing-parent"),
        pytest.param(_predict_out(parent_is_file=True), id="predict-out-file-parent"),
        pytest.param(_evolve_out_under_file, id="evolve-out-file-parent"),
        pytest.param(_pool_dir_with([(10, 9)] * 3, bad=0), id="pool-column-count"),
        pytest.param(_pool_dir_with([(10, 6), (10, 6), (11, 6)], bad=2), id="pool-row-count"),
        pytest.param(_short_pool_entry("evolve"), id="task-pool-row-count-evolve"),
        pytest.param(_short_pool_entry("predict"), id="task-pool-row-count-predict"),
        pytest.param(_extra_pool_file, id="extra-pool-file"),
        pytest.param(_task_named("task_00/../grp/task_01"), id="task-name-escapes"),
        pytest.param(_task_named("a/b"), id="task-name-slash"),
        pytest.param(_task_named("a\\b"), id="task-name-backslash"),
        pytest.param(_task_named(".."), id="task-name-dotdot"),
        pytest.param(_task_named("."), id="task-name-dot"),
        pytest.param(_task_named(""), id="task-name-empty"),
        pytest.param(_task_named("a\0b"), id="task-name-nul"),
    ],
)
def test_bad_input_or_output_exits_2_naming_the_file(bench, tmp_path, monkeypatch, case):
    monkeypatch.setattr(evofusion.cli, "run_evolution", _search_entered)
    monkeypatch.setattr(evofusion.cli, "run_naive_mean", _search_entered)
    argv, offending = case(bench, tmp_path)
    fds = open_fds()
    code, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("evofusion: error: ") and err.count("\n") == 1
    assert str(offending) in err
    assert open_fds() == fds
    assert not (tmp_path / "p.txt").exists()


def open_fds() -> int:
    """The number of file descriptors this process has open."""
    return len(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


def test_predict_in_blocks_writes_the_one_block_output(bench, tmp_path, monkeypatch):
    """The 160 rows are one block at d = 6; 8-row blocks read every
    entry 20 times and change no byte."""
    argv = ["predict", "--strategy", bench / "runN" / "strategy.task_00.out", "--pool-dir", bench / "bench" / "task_00"]
    fds = open_fds()
    assert run_cli(*argv, "--out", tmp_path / "whole.txt")[0] == 0
    assert open_fds() == fds
    monkeypatch.setattr(evofusion.proxy, "BLOCK_BYTES", 8 * 6 * 8)
    assert run_cli(*argv, "--out", tmp_path / "blocks.txt")[0] == 0
    assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()
    assert open_fds() == fds


def test_predict_holds_less_than_one_pool_entry(tmp_path, rng):
    """``predict`` streams its pool from disk: on a pool of 7 entries of
    20,000 x 64 (5.12 MB each) its peak stays below one entry."""
    L, d, size = 20_000, 64, 7
    for k in range(size):
        write_fmat(rng.normal(size=(L, d)).astype(np.float32), tmp_path / f"pool_{k}.fmat")
    model = ProxyModel(rng.normal(size=d) / 8, 0.1, Standardizer(np.zeros(d), np.full(d, 2.0)))
    strategy = Individual(0, 0, naive_mean_genotype(size), objectives=ObjectiveVector(0.5, 0.5), proxy=model)
    save_strategy(tmp_path / "strategy.json", strategy, "task_00", size)
    argv = ["predict", "--strategy", tmp_path / "strategy.json", "--pool-dir", tmp_path, "--out", tmp_path / "p.txt"]
    tracemalloc.start()
    try:
        code, _ = run_cli(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((tmp_path / "p.txt").read_text().splitlines()) == L
    assert peak < L * d * 4


# file to corrupt -> the command that reads it
CORRUPTIBLE = {
    "bench/manifest": "evolve",
    "bench/task_00/pool_1.fmat": "evolve",
    "bench/task_01/labels.txt": "evolve",
    "run.json": "evolve",
    "runN/strategy.task_00.out": "predict",
}


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(sorted(CORRUPTIBLE)), data=st.data())
def test_corrupted_input_exits_0_or_2_without_raising(bench, target, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("bench", "runN"):
            shutil.copytree(bench / name, work / name)
        shutil.copy(bench / "run.json", work / "run.json")
        path = work / target
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            flips = data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4), label="at")
            for i in flips:
                raw[i] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(raw))
        if CORRUPTIBLE[target] == "evolve":
            argv = ["evolve", "--data", work / "bench", "--config", work / "run.json", "--out", work / "out"]
        else:
            argv = ["predict", "--strategy", path, "--pool-dir", work / "bench" / "task_00",
                    "--out", work / "p.txt"]
        code, err = run_cli(*argv)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("evofusion: error: ") and err.count("\n") == 1
