"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either a hand-derived constant or recomputed by
an in-test oracle that is independent of the library code path it
checks. The evolutionary criteria (7-9) run on seeded synthetic
benchmarks and are fully deterministic.
"""
import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from evofusion.cli import main
from evofusion.data import (
    FMAT_MAGIC,
    FormatError,
    SynthConfig,
    generate_synthetic,
    load_all_tasks,
    read_fmat,
    write_fmat,
)
from evofusion.driver import run_evolution
from evofusion.fusion import CLAMP_LIMIT, fuse_genotype
from evofusion.metrics import ConfusionCounts, auprc, mcc
from evofusion.model import random_genotype
from evofusion.neighborhood import grg
from evofusion.nsga3 import das_dennis, nondominated_sort
from evofusion.operators import EvoConfig
from evofusion.proxy import ProxyConfig, focal_logistic_loss_and_grad, focal_terms
from evofusion.model import Genotype


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} ({name}): PASS")


# ---------------------------------------------------------------- oracles


def peel_fronts_oracle(objs: np.ndarray):
    """Repeated peeling: each round recomputes pairwise dominance over
    the remaining points and removes the undominated layer."""
    remaining = np.arange(objs.shape[0])
    fronts = []
    while remaining.size:
        sub = objs[remaining]
        le = (sub[:, None, :] <= sub[None, :, :]).all(axis=2)
        lt = (sub[:, None, :] < sub[None, :, :]).any(axis=2)
        dominated = (le & lt).any(axis=0)
        fronts.append([int(i) for i in remaining[~dominated]])
        remaining = remaining[dominated]
    return fronts


def pr_curve_oracle(scores, labels):
    """Step-integrated PR curve over every distinct threshold."""
    n_pos = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= thr
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        ap += (tp / n_pos - prev_recall) * (tp / (tp + fp))
        prev_recall = tp / n_pos
    return ap


def mcc_formula_oracle(tp, tn, fp, fn):
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(den)


def manual_fuse_step(acc, nxt, op, w_c, w_f):
    a = w_c * np.asarray(acc, dtype=np.float64)
    f = w_f * np.asarray(nxt, dtype=np.float64)
    out = {
        "add": a + f,
        "mul": a * f,
        "max": np.maximum(a, f),
        "min": np.minimum(a, f),
        "diff": a - f,
        "avg": (a + f) / 2.0,
    }[op]
    return np.clip(out, -CLAMP_LIMIT, CLAMP_LIMIT)


def fd_gradient(w, b, X, y, cfg, h=1e-6):
    loss = lambda wv, bv: focal_logistic_loss_and_grad(wv, bv, X, y, cfg)[0]
    grad_w = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad_w[i] = (loss(up, b) - loss(down, b)) / (2 * h)
    grad_b = (loss(w, b + h) - loss(w, b - h)) / (2 * h)
    return grad_w, grad_b


# --------------------------------------------------------------- criteria


def test_criterion_01_nondominated_sort_oracle():
    with criterion(1, "non-dominated sort vs peeling oracle"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            objs = rng.random((n, 2))
            if n > 8:  # force ties and duplicates into a quarter of the points
                objs[: n // 4] = np.round(objs[: n // 4], 1)
            assert nondominated_sort([tuple(row) for row in objs]) == peel_fronts_oracle(objs)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_reference_point_counts():
    with criterion(2, "Das-Dennis reference point counts"):
        for p in range(1, 61):
            ref = das_dennis(p)
            assert len(ref) == p + 1
            assert np.abs(ref.points.sum(axis=1) - 1.0).max() <= 1e-12
        assert len(das_dennis(49)) == 50


def test_criterion_03_gradient_check():
    with criterion(3, "focal logistic gradient vs finite differences"):
        rng = np.random.default_rng(103)
        cfg = ProxyConfig()
        for _ in range(50):
            n = int(rng.integers(5, 201))
            d = int(rng.integers(1, 17))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n)
            y[:2] = (0, 1)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            _, gw, gb = focal_logistic_loss_and_grad(w, b, X, y, cfg)
            fw, fb = fd_gradient(w, b, X, y, cfg)
            num = np.linalg.norm(np.append(gw - fw, gb - fb))
            den = max(np.linalg.norm(np.append(fw, fb)), 1e-12)
            assert num / den < 1e-4


def test_criterion_04_metric_oracles():
    with criterion(4, "metric oracles and hand values"):
        rng = np.random.default_rng(104)
        for _ in range(500):
            n = int(rng.integers(2, 150))
            scores = rng.random(n)  # continuous, ties have measure zero
            labels = rng.integers(0, 2, n)
            labels[int(rng.integers(n))] = 1
            assert abs(auprc(scores, labels) - pr_curve_oracle(scores, labels)) < 1e-9
        for _ in range(500):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, 4))
            assert mcc(ConfusionCounts(tp, tn, fp, fn)) == pytest.approx(
                mcc_formula_oracle(tp, tn, fp, fn), abs=1e-12
            )
        # hand values: MCC 1/6, AP 0.5, GRG 0.6, focal 0.85*0.5^1.5*ln 2
        assert abs(mcc(ConfusionCounts(1, 2, 1, 1)) - 1 / 6) < 1e-5
        assert abs(auprc([0.9, 0.8, 0.7], [0, 1, 0]) - 0.5) < 1e-5
        assert abs(grg([0.0, 0.0], [[0.0, 1.0]], 0.25)[0] - 0.6) < 1e-5
        closed_form = 0.85 * 0.5 ** 1.5 * math.log(2)  # 0.208306
        assert abs(float(focal_terms(0.5, 1, ProxyConfig())[0]) - closed_form) < 1e-5


def test_criterion_05_grg_properties():
    with criterion(5, "grey relational grade properties"):
        rng = np.random.default_rng(105)
        for _ in range(10_000):
            x = rng.random(8)
            assert grg(x, [x], 0.25)[0] == 1.0
        for _ in range(10_000):
            x = rng.random(8)
            y = rng.random(8)
            assert grg(x, [y], 0.25)[0] == pytest.approx(grg(y, [x], 0.25)[0], abs=1e-15)
        for _ in range(10_000):
            x = rng.random(8)
            y = rng.random(8)
            # force delta_min = 0 by copying one coordinate; every
            # coefficient then has floor rho/(1+rho) = 0.2
            j = int(rng.integers(8))
            y[j] = x[j]
            assert grg(x, [y], 0.25)[0] >= 0.2


def test_criterion_06_fusion_oracle():
    with criterion(6, "fusion fold oracle, bit-exact"):
        rng = np.random.default_rng(106)
        for _ in range(100):
            pool = [rng.uniform(-10, 10, size=(6, 5)) for _ in range(9)]
            g = random_genotype(rng, 9, 9)
            expected = np.asarray(pool[g.genes[0].pool_index], dtype=np.float64)
            for gene in g.genes[1:]:
                expected = manual_fuse_step(expected, pool[gene.pool_index], gene.op, gene.w_c, gene.w_f)
            assert np.array_equal(fuse_genotype(g, pool), expected)


def test_criterion_07_synthetic_convergence(tmp_path):
    with criterion(7, "end-to-end synthetic convergence"):
        start = time.monotonic()
        cfg = SynthConfig(
            task_count=4, residues=400, feature_dim=16, positive_rate=0.05, seed=11
        )
        manifest = generate_synthetic(cfg, tmp_path / "bench7")
        tasks = load_all_tasks(manifest)
        evo = EvoConfig(population_size=20, generations=15, seed=3)
        result = run_evolution(tasks, evo, ProxyConfig())
        for tr in result:
            best_auprc = 1.0 - min(m.objectives.g1 for m in tr.population.members)
            assert best_auprc >= 0.90, f"{tr.population.task.name}: best AUPRC {best_auprc:.3f}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _first_reach_mean(result, gmax, thr=0.85):
    """Mean over tasks of the first generation whose best validation
    AUPRC reaches thr (0 = initial population, gmax+1 = never)."""
    gens = [next((g for g, s in enumerate(tr.history) if 1.0 - s.best_g1 >= thr), gmax + 1) for tr in result]
    return float(np.mean(gens))


def test_criterion_08_enm_ablation(tmp_path):
    with criterion(8, "neighborhood ablation speeds convergence"):
        gmax = 16
        proxy = ProxyConfig(max_iter=150)
        with_enm, without_enm = [], []
        for seed in range(7):
            cfg = SynthConfig(
                task_count=4,
                residues=400,
                feature_dim=12,
                positive_rate=0.06,
                informative=((1, 2),) * 4,
                cross_correlation=0.8,
                noise_scale=2.3,
                seed=100 + seed,
            )
            manifest = generate_synthetic(cfg, tmp_path / f"bench8_{seed}")
            tasks = load_all_tasks(manifest)
            evo = EvoConfig(population_size=16, generations=gmax, seed=seed)
            on = run_evolution(tasks, evo, proxy)
            off = run_evolution(tasks, replace(evo, transfer_prob=0.0), proxy)
            with_enm.append(_first_reach_mean(on, gmax))
            without_enm.append(_first_reach_mean(off, gmax))
        med_on = float(np.median(with_enm))
        med_off = float(np.median(without_enm))
        assert med_on <= med_off, f"median {med_on} (with) vs {med_off} (without)"


def _summary_mcc(path):
    values = {}
    current = None
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        key, value = line.split(": ", 1)
        if key == "task":
            current = value
        elif key == "mcc":
            values[current] = float(value)
    return values


def test_criterion_09_evolved_vs_naive_mean(tmp_path):
    with criterion(9, "evolved strategy beats the naive mean"):
        wins = 0
        for seed in range(7):
            root = tmp_path / f"bench9_{seed}"
            config = tmp_path / f"cfg9_{seed}.json"
            config.write_text(
                json.dumps(
                    {
                        "evolution": {"population_size": 16, "generations": 10, "seed": seed},
                        "proxy": {},
                        "synthetic": {
                            "task_count": 5,
                            "residues": 400,
                            "feature_dim": 12,
                            "positive_rate": 0.08,
                            "cross_correlation": 0.0,
                            "noise_scale": 1.0,
                            "seed": 200 + seed,
                        },
                    }
                )
            )
            assert main(["gen", "--config", str(config), "--out", str(root)]) == 0
            evolved_dir = tmp_path / f"out9_{seed}_evolved"
            naive_dir = tmp_path / f"out9_{seed}_naive"
            base = ["evolve", "--data", str(root), "--config", str(config)]
            assert main(base + ["--out", str(evolved_dir)]) == 0
            assert main(base + ["--out", str(naive_dir), "--naive-mean"]) == 0
            evolved = _summary_mcc(evolved_dir / "summary.out")
            naive = _summary_mcc(naive_dir / "summary.out")
            margins = [evolved[name] - naive[name] for name in evolved]
            if float(np.median(margins)) >= 0.2:
                wins += 1
        assert wins >= 6, f"margin held in only {wins}/7 seeds"


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical outputs across runs and threads"):
        config = tmp_path / "cfg10.json"
        config.write_text(
            json.dumps(
                {
                    "evolution": {"population_size": 10, "generations": 5, "seed": 17},
                    "proxy": {"max_iter": 120},
                    "synthetic": {
                        "task_count": 3,
                        "residues": 200,
                        "feature_dim": 8,
                        "positive_rate": 0.08,
                        "noise_scale": 1.5,
                        "seed": 55,
                    },
                }
            )
        )
        root = tmp_path / "bench10"
        assert main(["gen", "--config", str(config), "--out", str(root)]) == 0

        def run(out, threads):
            args = [
                "evolve", "--data", str(root), "--config", str(config),
                "--out", str(tmp_path / out), "--threads", str(threads),
            ]
            assert main(args) == 0
            digest = {}
            for path in sorted((tmp_path / out).iterdir()):
                if path.name == "summary.out" or path.name.startswith("pareto."):
                    digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            return digest

        first = run("run10_a", 1)
        second = run("run10_b", 1)
        threaded = run("run10_c", 8)
        assert first == second
        assert first == threaded


def test_criterion_11_fmat_roundtrip(tmp_path):
    with criterion(11, "FMAT format roundtrip and error offsets"):
        rng = np.random.default_rng(111)
        shapes = [(1, 1), (1, 4096)]
        shapes += [
            (int(rng.integers(1, 50)), int(rng.integers(1, 50))) for _ in range(998)
        ]
        path = tmp_path / "m.fmat"
        for shape in shapes:
            m = rng.normal(size=shape).astype(np.float32)
            write_fmat(m, path)
            back = read_fmat(path)
            assert back.shape == m.shape
            assert m.tobytes() == back.tobytes()
        # corrupt magic: error anchored at offset 0
        good = FMAT_MAGIC + (1).to_bytes(4, "little") * 2 + b"\x00" * 4
        bad_magic = tmp_path / "bad.fmat"
        bad_magic.write_bytes(b"XMAT" + good[4:])
        with pytest.raises(FormatError) as err:
            read_fmat(bad_magic)
        assert err.value.offset == 0
        # truncations: error anchored at the premature end of file
        for cut in (3, 10, 17):
            trunc = tmp_path / f"trunc{cut}.fmat"
            trunc.write_bytes(good[:cut])
            with pytest.raises(FormatError) as err:
                read_fmat(trunc)
            assert err.value.offset == cut
