import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from evofusion.data import (
    FMAT_MAGIC,
    FormatError,
    SynthConfig,
    generate_synthetic,
    load_strategy,
    load_task,
    read_fmat,
    read_labels,
    read_manifest,
    read_pool_dir,
    read_predictions,
    save_strategy,
    tail_split,
    write_fmat,
    write_labels,
)
from evofusion.metrics import auprc
from evofusion.model import Individual
from evofusion.proxy import ProxyConfig, evaluate_individual

from conftest import make_genotype


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestFmat:
    def test_1x1_layout_is_18_bytes(self, tmp_path):
        path = tmp_path / "m.fmat"
        write_fmat(np.zeros((1, 1), dtype=np.float32), path)
        raw = path.read_bytes()
        assert len(raw) == 18
        assert raw[:6] == FMAT_MAGIC
        assert raw[6:14] == (1).to_bytes(4, "little") * 2

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        for i in range(100):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            m = rng.normal(size=(rows, cols)).astype(np.float32)
            path = tmp_path / f"r{i}.fmat"
            write_fmat(m, path)
            back = read_fmat(path)
            assert back.dtype == np.float32
            assert m.tobytes() == back.tobytes()

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bad.fmat"
        path.write_bytes(b"XMAT1\x00" + bytes(12))
        with pytest.raises(FormatError) as err:
            read_fmat(path)
        assert err.value.offset == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.fmat"
        path.write_bytes(FMAT_MAGIC + b"\x01\x00")
        with pytest.raises(FormatError) as err:
            read_fmat(path)
        assert err.value.offset == 8

    def test_truncated_payload_reports_file_end(self, tmp_path):
        path = tmp_path / "trunc.fmat"
        write_fmat(np.ones((2, 3), dtype=np.float32), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError) as err:
            read_fmat(path)
        assert err.value.offset == len(raw) - 5

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.fmat"
        write_fmat(np.ones((2, 2), dtype=np.float32), path)
        expected_end = 14 + 16
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError) as err:
            read_fmat(path)
        assert err.value.offset == expected_end

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_reports_its_offset(self, tmp_path, value):
        path = tmp_path / "nonfinite.fmat"
        write_fmat(np.ones((3, 4), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[14 + 4 * 5 : 14 + 4 * 6] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_fmat(path)
        assert err.value.offset == 14 + 4 * 5

    @pytest.mark.parametrize(
        "raw",
        [b"XMAT1\x00" + bytes(12), FMAT_MAGIC + b"\x01", FMAT_MAGIC + bytes(8),
         FMAT_MAGIC + struct.pack("<II", 1, 2) + bytes(4), FMAT_MAGIC + struct.pack("<II", 1, 1) + bytes(6),
         FMAT_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<f", float("nan"))],
        ids=["magic", "header", "dimensions", "payload", "trailing", "non-finite"],
    )
    def test_every_format_error_names_the_file(self, tmp_path, raw):
        path = tmp_path / "bad.fmat"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="byte offset") as err:
            read_fmat(path)
        assert str(path) in str(err.value)

    def test_rejects_non_finite_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_fmat(np.array([[np.inf]]), tmp_path / "inf.fmat")

    def test_rejects_wrong_rank(self, tmp_path):
        with pytest.raises(ValueError):
            write_fmat(np.zeros(4), tmp_path / "vec.fmat")


class TestLabelsAndSplit:
    def test_tail_split_example(self):
        train, val = tail_split(100, 0.25)
        assert train.tolist() == list(range(75))
        assert val.tolist() == list(range(75, 100))

    def test_split_rounds_up(self):
        train, val = tail_split(10, 0.26)
        assert val.size == 3

    def test_label_roundtrip(self, tmp_path, rng):
        labels = rng.integers(0, 2, 50).astype(np.int8)
        write_labels(labels, tmp_path / "labels.txt")
        assert np.array_equal(read_labels(tmp_path / "labels.txt", 50), labels)

    def test_label_validation(self, tmp_path):
        (tmp_path / "bad.txt").write_text("0\n2\n")
        with pytest.raises(ValueError):
            read_labels(tmp_path / "bad.txt")


    def test_undecodable_label_file_names_its_path(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"0\n\xff\n")
        with pytest.raises(ValueError) as err:
            read_labels(tmp_path / "bad.txt")
        assert str(tmp_path / "bad.txt") in str(err.value)


class TestPredictions:
    def test_reads_one_score_per_non_blank_line(self, tmp_path):
        (tmp_path / "p.txt").write_text("0.25\n\n 1.0 \n0\n")
        assert read_predictions(tmp_path / "p.txt").tolist() == [0.25, 1.0, 0.0]

    @pytest.mark.parametrize("text", ["", "\n\n", "0.5\nabc\n", "0.5\nnan\n", "inf\n"])
    def test_malformed_file_names_its_path(self, tmp_path, text):
        (tmp_path / "p.txt").write_text(text)
        with pytest.raises(ValueError) as err:
            read_predictions(tmp_path / "p.txt")
        assert str(tmp_path / "p.txt") in str(err.value)


class TestStrategy:
    @pytest.fixture
    def saved(self, tmp_path) -> Path:
        cfg = SynthConfig(task_count=2, residues=40, feature_dim=4, positive_rate=0.1, seed=5)
        task = load_task(generate_synthetic(cfg, tmp_path / "bench"), 0)
        ind = Individual(1, 0, make_genotype((2, "add", 1.0, 1.0), (0, "mul", 0.5, 1.5)))
        evaluate_individual(ind, task, ProxyConfig())
        save_strategy(tmp_path / "strategy.json", ind, "task_00", 4, 3)
        return tmp_path / "strategy.json"

    def test_roundtrip(self, saved):
        strategy, pool_size = load_strategy(saved)
        assert pool_size == 3
        assert strategy.genotype == make_genotype((2, "add", 1.0, 1.0), (0, "mul", 0.5, 1.5))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.update(genes=[[1, "add", 1.0, 1.0], [1, "mul", 1.0, 1.0]]),
            lambda doc: doc.update(genes=[[1, "pow", 1.0, 1.0]]),
            lambda doc: doc.update(genes=[[1, "add", 1.0, 2.5]]),
            lambda doc: doc.update(genes=[[3, "add", 1.0, 1.0]]),
            lambda doc: doc.update(pool_size=2),
            lambda doc: doc["standardizer"]["stds"].__setitem__(0, 0.0),
            lambda doc: doc["coefficients"].__setitem__(0, float("nan")),
            lambda doc: doc.update(intercept=float("inf")),
            lambda doc: doc.update(objectives=[1.5, 0.0]),
            # JSON true is not a number, even where 1 would be valid
            lambda doc: doc.update(pool_size=True, genes=[[0, "add", 1.0, 1.0]]),
            lambda doc: doc.update(intercept=True),
            lambda doc: doc["coefficients"].__setitem__(0, True),
            lambda doc: doc.update(genes=[[True, "add", 1.0, 1.0]]),
            lambda doc: doc.update(genes=[[1, "add", True, 1.0]]),
        ],
        ids=["duplicate-index", "unknown-op", "weight-out-of-bounds", "index-past-pool",
             "pool-too-small", "zero-std", "nan-coefficient", "inf-intercept", "objective-range",
             "pool-size-true", "intercept-true", "coefficient-true", "gene-index-true", "gene-weight-true"],
    )
    def test_invalid_strategy_names_its_path(self, saved, corrupt):
        doc = json.loads(saved.read_text())
        corrupt(doc)
        saved.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="strategy") as err:
            load_strategy(saved)
        assert str(saved) in str(err.value)


class TestGenerator:
    def test_exact_positive_count(self, tmp_path):
        cfg = SynthConfig(task_count=2, residues=4000, feature_dim=8, positive_rate=0.025, seed=1)
        manifest = generate_synthetic(cfg, tmp_path / "b")
        for entry in manifest.tasks:
            assert entry.positive_count == 100
            labels = read_labels(tmp_path / "b" / entry.name / "labels.txt", 4000)
            assert labels.sum() == 100

    def test_deterministic_tree(self, tmp_path):
        cfg = SynthConfig(task_count=3, residues=120, feature_dim=8, positive_rate=0.1, seed=9)
        generate_synthetic(cfg, tmp_path / "a")
        generate_synthetic(cfg, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_positives_in_both_splits(self, tmp_path):
        for seed in range(10):
            cfg = SynthConfig(task_count=1, residues=60, feature_dim=4, positive_rate=0.05, seed=seed)
            manifest = generate_synthetic(cfg, tmp_path / f"s{seed}")
            task = load_task(manifest, 0)
            assert task.labels[task.train_idx].any()
            assert task.labels[task.val_idx].any()

    def test_manifest_contents(self, tmp_path):
        cfg = SynthConfig(task_count=3, residues=80, feature_dim=8, positive_rate=0.1, seed=2)
        out = tmp_path / "bench"
        generate_synthetic(cfg, out)
        manifest = read_manifest(out)
        assert manifest.task_count == 3
        names = [t.name for t in manifest.tasks]
        assert names == sorted(names)
        for entry in manifest.tasks:
            assert entry.informative_indices  # generator records ground truth
        # the layout names the files, so the manifest does not
        doc = json.loads((out / "manifest").read_text())
        assert doc["schema_version"] == 1
        for raw in doc["entries"].values():
            assert set(raw) == {"residues", "feature_dim", "positive_count", "val_ratio", "informative_indices"}

    def test_zero_cross_correlation_kills_dual_signal(self, tmp_path, rng):
        """With c=0, an informative entry aligned to a partner task is
        label-free: a head trained on it alone scores inside the
        permutation null band."""
        cfg = SynthConfig(
            task_count=2,
            residues=400,
            feature_dim=8,
            positive_rate=0.1,
            informative=((1,), (0,)),  # dual-task entries for both tasks
            cross_correlation=0.0,
            seed=3,
        )
        manifest = generate_synthetic(cfg, tmp_path / "c0")
        task = load_task(manifest, 0)
        ind = Individual(1, 0, make_genotype(1))
        evaluate_individual(ind, task, ProxyConfig())
        achieved = 1.0 - ind.objectives.g1
        y_val = task.labels[task.val_idx]
        probs = ind.proxy.scores(np.asarray(task.pool[1][task.val_idx], dtype=np.float64))
        null = [auprc(probs, rng.permutation(y_val)) for _ in range(300)]
        lo, hi = np.quantile(null, [0.005, 0.995])
        assert lo <= achieved <= hi

    def test_full_cross_correlation_keeps_dual_signal(self, tmp_path):
        cfg = SynthConfig(
            task_count=2,
            residues=400,
            feature_dim=8,
            positive_rate=0.1,
            informative=((1,), (0,)),
            cross_correlation=1.0,
            seed=3,
        )
        manifest = generate_synthetic(cfg, tmp_path / "c1")
        task = load_task(manifest, 0)
        ind = Individual(1, 0, make_genotype(1))
        evaluate_individual(ind, task, ProxyConfig())
        assert 1.0 - ind.objectives.g1 > 0.9


class TestManifestAndLoad:
    def build(self, tmp_path, task_count=2, residues=40, dim=4) -> Path:
        cfg = SynthConfig(task_count=task_count, residues=residues, feature_dim=dim, positive_rate=0.1, seed=5)
        generate_synthetic(cfg, tmp_path / "bench")
        return tmp_path / "bench"

    def test_fifteen_task_manifest_has_29_entries(self, tmp_path):
        root = self.build(tmp_path, task_count=15, residues=24, dim=3)
        manifest = read_manifest(root)
        task = load_task(manifest, 7)
        assert len(task.pool) == 29
        assert task.descriptor.pool_size == 29

    def test_load_validates_pool_shape(self, tmp_path):
        root = self.build(tmp_path)
        manifest = read_manifest(root)
        victim = root / "task_00" / "pool_1.fmat"
        write_fmat(np.zeros((40, 7), dtype=np.float32), victim)
        with pytest.raises(ValueError) as err:
            load_task(manifest, 0)
        assert str(victim) in str(err.value)

    def test_missing_file_rejected(self, tmp_path):
        root = self.build(tmp_path)
        (root / "task_00" / "pool_0.fmat").unlink()
        manifest = read_manifest(root)
        with pytest.raises(ValueError) as err:
            load_task(manifest, 0)
        assert str(root / "task_00") in str(err.value)

    def test_misnumbered_pool_file_rejected(self, tmp_path):
        root = self.build(tmp_path)
        write_fmat(np.zeros((40, 4), dtype=np.float32), root / "task_01" / "pool_01.fmat")
        manifest = read_manifest(root)
        with pytest.raises(ValueError) as err:
            load_task(manifest, 1)
        assert str(root / "task_01") in str(err.value)

    def test_pool_entries_come_in_numeric_order(self, tmp_path, monkeypatch):
        # 6 tasks: pool_10.fmat sorts before pool_2.fmat as text
        root = self.build(tmp_path, task_count=6, residues=24, dim=2)
        task_dir = root / "task_03"
        expected = [read_fmat(task_dir / f"pool_{k}.fmat") for k in range(11)]
        listing = Path.iterdir
        monkeypatch.setattr(Path, "iterdir", lambda self: iter(sorted(listing(self), reverse=True)))
        pool = read_pool_dir(task_dir, 11, 2)
        assert [m.tobytes() for m in pool] == [m.tobytes() for m in expected]

    def test_unsorted_names_rejected(self, tmp_path):
        root = self.build(tmp_path)
        doc = json.loads((root / "manifest").read_text())
        doc["tasks"] = doc["tasks"][::-1]
        (root / "manifest").write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_manifest(root)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.pop("entries"),
            lambda doc: doc.update(entries=[]),
            lambda doc: doc.update(tasks="task_00"),
            lambda doc: doc["entries"].update(task_00=[1, 2]),
            lambda doc: doc["entries"]["task_00"].pop("residues"),
            lambda doc: doc["entries"]["task_00"].update(residues="forty"),
            lambda doc: doc["entries"]["task_00"].update(residues=40.9),
            lambda doc: doc["entries"]["task_00"].update(residues=True),
            lambda doc: doc["entries"]["task_00"].update(feature_dim="4"),
            lambda doc: doc["entries"]["task_00"].update(val_ratio="0.25"),
            lambda doc: doc["entries"]["task_00"].update(informative_indices=[True]),
        ],
        ids=["no-entries", "entries-list", "tasks-string", "entry-list", "no-residues",
             "residues-text", "residues-fraction", "residues-true", "feature-dim-text",
             "val-ratio-text", "informative-true"],
    )
    def test_malformed_manifest_names_its_path(self, tmp_path, corrupt):
        root = self.build(tmp_path)
        doc = json.loads((root / "manifest").read_text())
        corrupt(doc)
        (root / "manifest").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="manifest") as err:
            read_manifest(root)
        assert str(root / "manifest") in str(err.value)

    def test_manifest_not_an_object(self, tmp_path):
        root = self.build(tmp_path)
        (root / "manifest").write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            read_manifest(root)

    def test_label_length_mismatch(self, tmp_path):
        root = self.build(tmp_path)
        write_labels(np.ones(10, dtype=np.int8), root / "task_00" / "labels.txt")
        manifest = read_manifest(root)
        with pytest.raises(ValueError):
            load_task(manifest, 0)
