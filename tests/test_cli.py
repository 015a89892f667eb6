import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from evofusion.cli import main
from evofusion.data import read_fmat, read_manifest, write_fmat
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
        assert len(lines) == 1 + 3  # header + generations
        header = lines[0].split(",")
        assert header[:5] == ["generation", "task", "best_g1", "best_g2", "mean_g1"]
        assert header[5] == "transfers_from_task_01"

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
        assert transfers == [0, 0, 0]

    def test_naive_mean_skips_evolution(self, workspace):
        assert self.evolve(workspace, "runN", "--naive-mean") == 0
        lines = (workspace / "runN" / "history.task_00.csv").read_text().splitlines()
        assert len(lines) == 1  # header only
        summary = parse_summary(workspace / "runN" / "summary.out")
        assert set(summary) == {"task_00", "task_01"}

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


class TestPredictEval:
    def slice_validation(self, workspace) -> Path:
        """Write the validation rows of task_00 as a standalone pool dir."""
        manifest = read_manifest(workspace / "bench")
        entry = manifest.tasks[0]
        n_val = -(-entry.residues * 25 // 100)  # ceil at the default 0.25
        val_dir = workspace / "valpool"
        val_dir.mkdir()
        for i, rel in enumerate(entry.pool_files):
            matrix = read_fmat(workspace / "bench" / rel)
            write_fmat(matrix[-n_val:], val_dir / f"pool_{i}.fmat")
        labels = (workspace / "bench" / entry.label_file).read_text().splitlines()
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
