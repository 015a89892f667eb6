"""File formats and the synthetic multi-task benchmark generator.

FMAT matrix format (bit-exact contract)
    offset 0   magic bytes b"FMAT1\\x00"
    offset 6   rows, unsigned 32-bit little-endian
    offset 10  cols, unsigned 32-bit little-endian
    offset 14  rows*cols IEEE-754 float32 little-endian, row-major

Benchmark directory layout
    <root>/manifest                      JSON manifest (schema below)
    <root>/<task_name>/pool_<k>.fmat     pool entry k, shape L x d
    <root>/<task_name>/labels.txt        one '0' or '1' character per line

The layout is the schema for file names: a task's pool is every
``pool_<k>.fmat`` in its directory, numbered 0 .. 2T-2, and
``read_pool_dir`` is the one reader of it (``evolve`` and ``predict``
both call it). The manifest names no files. It holds
``schema_version`` (1), ``tasks`` (task names in lexicographic order;
each is a plain directory name) and ``entries``, which maps each name
to its ``residues`` and ``feature_dim`` (checked against the files),
``positive_count``, ``val_ratio`` (the last ceil(val_ratio * L) rows
validate) and, for generated benchmarks, ``informative_indices`` (pool
indices that carry planted signal, for oracle tests). Other keys, such
as the ``pool_files``, ``label_file`` and ``split_rule`` of older
manifests, are ignored.
"""
from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fusion import Standardizer
from .model import (
    FusionGene,
    Genotype,
    Individual,
    ObjectiveVector,
    TaskDescriptor,
    map_pool_index,
)
from .proxy import ProxyModel

FMAT_MAGIC = b"FMAT1\x00"
FMAT_HEADER_LEN = len(FMAT_MAGIC) + 8
SCHEMA_VERSION = 1

SIGNAL_AMPLITUDE = 3.0
SHARED_LATENT_SCALE = 0.3
MAX_LABEL_RETRIES = 1000


def is_json_number(value, integer: bool = False) -> bool:
    """True for a parsed JSON number (only an integer when ``integer``).
    JSON ``true``/``false`` are not numbers, although Python's bool is an int."""
    return not isinstance(value, bool) and isinstance(value, int if integer else (int, float))


class FormatError(ValueError):
    """Malformed FMAT data; names the file and carries the byte offset."""

    def __init__(self, path, message: str, offset: int):
        super().__init__(f"FMAT file {path}: {message} (at byte offset {offset})")
        self.offset = offset


def write_fmat(m: np.ndarray, path) -> None:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix values must be finite")
    rows, cols = m.shape
    if rows >= 2 ** 32 or cols >= 2 ** 32:
        raise ValueError("matrix dimensions exceed the u32 header range")
    payload = np.ascontiguousarray(m, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(FMAT_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(payload)


def read_fmat(path) -> np.ndarray:
    """Read an FMAT file; malformed content or a non-finite value raises FormatError."""
    data = Path(path).read_bytes()
    magic = data[: len(FMAT_MAGIC)]
    if magic != FMAT_MAGIC[: len(magic)]:
        raise FormatError(path, "bad magic bytes", 0)
    if len(data) < FMAT_HEADER_LEN:
        raise FormatError(path, "truncated header", len(data))
    rows, cols = struct.unpack_from("<II", data, len(FMAT_MAGIC))
    if rows < 1 or cols < 1:
        raise FormatError(path, f"invalid dimensions {rows}x{cols}", len(FMAT_MAGIC))
    expected = FMAT_HEADER_LEN + rows * cols * 4
    if len(data) < expected:
        raise FormatError(path, f"truncated payload, expected {expected} bytes", len(data))
    if len(data) > expected:
        raise FormatError(path, "trailing bytes after payload", expected)
    flat = np.frombuffer(data, dtype="<f4", offset=FMAT_HEADER_LEN)
    finite = np.isfinite(flat)
    if not finite.all():
        raise FormatError(path, "non-finite value", FMAT_HEADER_LEN + 4 * int(np.argmin(finite)))
    return flat.reshape(rows, cols).copy()


@dataclass(frozen=True)
class TaskEntry:
    name: str
    residues: int
    feature_dim: int
    positive_count: int
    val_ratio: float
    informative_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class PoolManifest:
    tasks: tuple[TaskEntry, ...]
    root: Path = field(compare=False)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def descriptor(self, position: int) -> TaskDescriptor:
        entry = self.tasks[position]
        return TaskDescriptor(
            name=entry.name,
            position=position,
            residue_count=entry.residues,
            pool_size=2 * self.task_count - 1,
        )


def _validate_manifest(manifest: PoolManifest) -> None:
    names = [t.name for t in manifest.tasks]
    if not names:
        raise ValueError("manifest lists no tasks")
    if names != sorted(names) or len(set(names)) != len(names):
        raise ValueError("task names must be unique and lexicographically ordered")
    for entry in manifest.tasks:
        # the name is also the task's directory under the manifest's root
        if entry.name in ("", ".", "..") or any(c in entry.name for c in "/\\\0"):
            raise ValueError(f"task name {entry.name!r} is not a plain directory name")
        if not 0.0 < entry.val_ratio < 1.0:
            raise ValueError(f"task {entry.name}: val_ratio must lie in (0, 1)")


def write_manifest(manifest: PoolManifest) -> Path:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tasks": [t.name for t in manifest.tasks],
        "entries": {
            t.name: {
                "residues": t.residues,
                "feature_dim": t.feature_dim,
                "positive_count": t.positive_count,
                "val_ratio": t.val_ratio,
                "informative_indices": list(t.informative_indices),
            }
            for t in manifest.tasks
        },
    }
    path = manifest.root / "manifest"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _task_entry(name: str, raw) -> TaskEntry:
    if not isinstance(raw, dict):
        raise TypeError(f"entry {name!r} must be an object")
    counts = [raw["residues"], raw["feature_dim"], raw["positive_count"]]
    informative = raw.get("informative_indices", [])
    if not isinstance(informative, list) or not all(is_json_number(v, integer=True) for v in counts + informative):
        raise TypeError(
            f"entry {name!r}: residues, feature_dim, positive_count and informative_indices must be integers"
        )
    if not is_json_number(raw["val_ratio"]):
        raise TypeError(f"entry {name!r}: val_ratio must be a number")
    return TaskEntry(name, *counts, float(raw["val_ratio"]), tuple(informative))


def read_manifest(root) -> PoolManifest:
    """Read and validate ``<root>/manifest``. Any malformed content (bad
    JSON, missing keys, wrong types, inconsistent entries) raises
    ValueError naming the manifest path; a missing one, OSError."""
    root = Path(root)
    path = root / "manifest"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise TypeError("document must be a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {doc.get('schema_version')}")
        names, entries = doc["tasks"], doc["entries"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise TypeError("'tasks' must be a list of task names")
        if not isinstance(entries, dict):
            raise TypeError("'entries' must be an object")
        tasks = tuple(_task_entry(name, entries[name]) for name in names)
        manifest = PoolManifest(tasks, root)
        _validate_manifest(manifest)
    except KeyError as exc:
        raise ValueError(f"manifest {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest {path}: {exc}") from exc
    return manifest


def tail_split(residues: int, val_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic split: the last ceil(val_ratio * L) rows validate."""
    n_val = math.ceil(val_ratio * residues)
    if n_val < 1 or n_val >= residues:
        raise ValueError(f"val_ratio {val_ratio} leaves an empty split for L={residues}")
    return np.arange(residues - n_val), np.arange(residues - n_val, residues)


def read_labels(path, expected_len: int | None = None) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if any(ln not in ("0", "1") for ln in lines):
        raise ValueError(f"label file {path} must contain one 0/1 per line")
    labels = np.array([int(ln) for ln in lines], dtype=np.int8)
    if expected_len is not None and labels.size != expected_len:
        raise ValueError(f"label file {path} has {labels.size} rows, expected {expected_len}")
    return labels


def read_predictions(path) -> np.ndarray:
    """Read a prediction file: one finite probability per non-blank line."""
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    try:
        scores = np.array([float(ln) for ln in text.splitlines() if ln.strip()])
    except ValueError as exc:
        raise ValueError(f"prediction file {path}: {exc}") from exc
    if not scores.size or not np.isfinite(scores).all():
        raise ValueError(f"prediction file {path} is empty or holds a non-finite value")
    return scores


def write_labels(labels: np.ndarray, path) -> None:
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels), encoding="utf-8")


@dataclass(eq=False)
class TaskData:
    """Everything the optimizer needs for one task."""

    descriptor: TaskDescriptor
    pool: list[np.ndarray]
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray


def read_pool_dir(pool_dir, size: int, columns: int, rows: int | None = None) -> list[np.ndarray]:
    """Read ``pool_0.fmat`` ... ``pool_<size-1>.fmat`` from ``pool_dir``,
    in index order. The directory must hold exactly those ``pool_<k>.fmat``
    files, and every entry must be ``rows`` x ``columns`` (``rows``
    defaults to that of ``pool_0.fmat``); otherwise ValueError names the
    directory or the offending file."""
    pool_dir = Path(pool_dir)
    found = {p.name for p in pool_dir.iterdir() if re.fullmatch(r"pool_\d+\.fmat", p.name)}
    if found != {f"pool_{k}.fmat" for k in range(len(found))}:
        raise ValueError(f"pool_<k>.fmat files under {pool_dir} are not numbered 0 .. {len(found) - 1}")
    if len(found) != size:
        raise ValueError(f"{pool_dir} holds {len(found)} pool_<k>.fmat files, expected a pool of {size} entries")
    pool = []
    for k in range(size):
        path = pool_dir / f"pool_{k}.fmat"
        matrix = read_fmat(path)
        rows = matrix.shape[0] if rows is None else rows
        if matrix.shape != (rows, columns):
            raise ValueError(f"pool file {path}: shape {matrix.shape} does not match ({rows}, {columns})")
        pool.append(matrix)
    return pool


def load_task(manifest: PoolManifest, task_position: int) -> TaskData:
    """Load one task's pool, labels and deterministic split."""
    entry = manifest.tasks[task_position]
    descriptor = manifest.descriptor(task_position)
    task_dir = manifest.root / entry.name
    pool = read_pool_dir(task_dir, descriptor.pool_size, entry.feature_dim, entry.residues)
    labels = read_labels(task_dir / "labels.txt", entry.residues)
    train_idx, val_idx = tail_split(entry.residues, entry.val_ratio)
    return TaskData(descriptor, pool, labels, train_idx, val_idx)


def load_all_tasks(manifest: PoolManifest) -> list[TaskData]:
    return [load_task(manifest, t) for t in range(manifest.task_count)]


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic benchmark shape. ``informative`` lists, per task, the
    pool indices that carry planted label signal (default: each task's
    own single-task entry). ``cross_correlation`` scales the signal of
    informative entries whose aligned partner is another task."""

    task_count: int = 4
    residues: int = 400
    feature_dim: int = 128
    positive_rate: float = 0.025
    informative: tuple[tuple[int, ...], ...] | None = None
    cross_correlation: float = 0.5
    noise_scale: float = 1.0
    val_ratio: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.task_count < 1 or self.residues < 4:
            raise ValueError("need task_count >= 1 and residues >= 4")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.noise_scale < 0 or self.seed < 0:
            raise ValueError("noise_scale and seed must be >= 0")
        if not 0.0 < self.positive_rate < 0.5:
            raise ValueError("positive_rate must lie in (0, 0.5)")
        if not 0.0 <= self.cross_correlation <= 1.0:
            raise ValueError("cross_correlation must lie in [0, 1]")
        if not 0.0 < self.val_ratio < 1.0:
            raise ValueError("val_ratio must lie in (0, 1)")
        pool_size = 2 * self.task_count - 1
        if self.informative is not None:
            if len(self.informative) != self.task_count:
                raise ValueError("informative must list indices for every task")
            for idx_list in self.informative:
                if any(not 0 <= k < pool_size for k in idx_list):
                    raise ValueError("informative index out of pool range")

    def informative_for(self, task_position: int) -> tuple[int, ...]:
        if self.informative is None:
            return (task_position,)
        return self.informative[task_position]


def _draw_labels(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """Place floor(rate * L) positives uniformly, retrying until both
    split halves contain at least one positive."""
    n_pos = int(cfg.positive_rate * cfg.residues)
    if n_pos < 1:
        raise ValueError("positive_rate * residues must be >= 1")
    train_idx, val_idx = tail_split(cfg.residues, cfg.val_ratio)
    boundary = train_idx.size
    for _ in range(MAX_LABEL_RETRIES):
        positions = rng.choice(cfg.residues, size=n_pos, replace=False)
        labels = np.zeros(cfg.residues, dtype=np.int8)
        labels[positions] = 1
        if labels[:boundary].any() and labels[boundary:].any():
            return labels
    raise ValueError("could not place positives in both splits; increase residues or rate")


def generate_synthetic(cfg: SynthConfig, out_dir) -> PoolManifest:
    """Write a deterministic synthetic benchmark tree and its manifest.

    Labels are uniform with an exact floor(rate * L) positive count.
    Informative pool entries carry the task's label signal in their
    first max(1, d // 4) columns (amplitude 3 per unit noise), plus a
    latent residue vector shared across tasks; entries aligned to a
    partner task have their label signal scaled by cross_correlation.
    Every other entry is pure Gaussian noise.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    T = cfg.task_count
    pool_size = 2 * T - 1
    names = [f"task_{t:02d}" for t in range(T)]
    shared_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    shared_latent = shared_rng.standard_normal(cfg.residues)
    n_signal_cols = max(1, cfg.feature_dim // 4)
    entries = []
    for t, name in enumerate(names):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1 + t,)))
        labels = _draw_labels(rng, cfg)
        informative = cfg.informative_for(t)
        task_dir = out_dir / name
        task_dir.mkdir(exist_ok=True)
        for k in range(pool_size):
            matrix = rng.normal(0.0, cfg.noise_scale, size=(cfg.residues, cfg.feature_dim))
            if k in informative:
                role = map_pool_index(t, k, T)
                strength = 1.0 if role.partner == t else cfg.cross_correlation
                signal = SIGNAL_AMPLITUDE * strength * labels
                matrix[:, :n_signal_cols] += signal[:, None]
                matrix[:, :n_signal_cols] += SHARED_LATENT_SCALE * shared_latent[:, None]
            write_fmat(matrix.astype(np.float32), task_dir / f"pool_{k}.fmat")
        write_labels(labels, task_dir / "labels.txt")
        entries.append(
            TaskEntry(
                name=name,
                residues=cfg.residues,
                feature_dim=cfg.feature_dim,
                positive_count=int(labels.sum()),
                val_ratio=cfg.val_ratio,
                informative_indices=tuple(sorted(informative)),
            )
        )
    manifest = PoolManifest(tuple(entries), out_dir)
    write_manifest(manifest)
    return manifest


def encode_genes(genotype: Genotype) -> list:
    """JSON form of a genotype: one ``[pool_index, op, w_c, w_f]`` per gene."""
    return [[g.pool_index, g.op, g.w_c, g.w_f] for g in genotype.genes]


def decode_genes(raw) -> Genotype:
    """Inverse of ``encode_genes``. Raises TypeError on any other shape."""
    if not isinstance(raw, list) or not all(
        isinstance(gene, list)
        and len(gene) == 4
        and is_json_number(gene[0], integer=True)
        and isinstance(gene[1], str)
        and all(is_json_number(w) for w in gene[2:])
        for gene in raw
    ):
        raise TypeError("'genes' must be a list of [pool_index, op, w_c, w_f]")
    return Genotype(tuple(FusionGene(k, op, float(wc), float(wf)) for k, op, wc, wf in raw))


def save_strategy(path, ind: Individual, task_name: str, feature_dim: int, pool_size: int) -> None:
    """Serialize a selected strategy (genotype plus trained head) as JSON."""
    if ind.objectives is None or ind.proxy is None:
        raise ValueError("strategy must be evaluated before saving")
    model: ProxyModel = ind.proxy
    doc = {
        "task": task_name,
        "pool_size": pool_size,
        "feature_dim": feature_dim,
        "genes": encode_genes(ind.genotype),
        "objectives": [ind.objectives.g1, ind.objectives.g2],
        "coefficients": [float(v) for v in model.coefficients],
        "intercept": float(model.intercept),
        "standardizer": {
            "means": [float(v) for v in model.standardizer.means],
            "stds": [float(v) for v in model.standardizer.stds],
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _numbers(doc: dict, key: str) -> np.ndarray:
    raw = doc[key]
    if not isinstance(raw, list) or not all(is_json_number(v) for v in raw):
        raise TypeError(f"{key!r} must be a list of numbers")
    return np.asarray(raw, dtype=np.float64)


def load_strategy(path) -> tuple[Individual, int]:
    """Read a strategy written by ``save_strategy``. Returns the strategy
    and the pool size of the run that produced it. Malformed content (bad
    JSON, missing keys, wrong types, non-finite head values, genes invalid
    for that pool size) raises ValueError naming the path."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or not isinstance(doc["standardizer"], dict):
            raise TypeError("document and 'standardizer' must be JSON objects")
        coefficients = _numbers(doc, "coefficients")
        means = _numbers(doc["standardizer"], "means")
        stds = _numbers(doc["standardizer"], "stds")
        objectives = _numbers(doc, "objectives")
        intercept, pool_size = doc["intercept"], doc["pool_size"]
        if not is_json_number(intercept) or not is_json_number(pool_size, integer=True):
            raise TypeError("'intercept' must be a number and 'pool_size' an integer")
        if not coefficients.size == means.size == stds.size or objectives.size != 2:
            raise ValueError("head sizes disagree or 'objectives' is not a pair")
        if not np.isfinite(np.r_[coefficients, means, stds, intercept]).all() or (stds <= 0).any():
            raise ValueError("head values must be finite and 'stds' positive")
        genotype = decode_genes(doc["genes"])
        genotype.validate(pool_size, pool_size)
        strategy = Individual(
            id=0,
            task=-1,
            genotype=genotype,
            objectives=ObjectiveVector(float(objectives[0]), float(objectives[1])),
            proxy=ProxyModel(coefficients, float(intercept), Standardizer(means=means, stds=stds)),
        )
    except KeyError as exc:
        raise ValueError(f"strategy {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"strategy {path}: {exc}") from exc
    return strategy, pool_size
