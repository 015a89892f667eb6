"""Generate a small synthetic benchmark, run the multi-task search, and
inspect what comes back: history, Pareto front, selected strategy, and
out-of-sample predictions.

Run:  python3 demos/03_single_run_walkthrough.py   (about 10 s)
"""
import tempfile
from pathlib import Path

import numpy as np

from evofusion import (
    EvoConfig,
    ProxyConfig,
    SynthConfig,
    auprc,
    generate_synthetic,
    load_all_tasks,
    predict,
    run_evolution,
)

workdir = Path(tempfile.mkdtemp(prefix="evofusion_demo_"))
synth = SynthConfig(
    task_count=3,
    residues=300,
    feature_dim=10,
    positive_rate=0.06,
    noise_scale=2.0,
    seed=12,
)
manifest = generate_synthetic(synth, workdir / "bench")
tasks = load_all_tasks(manifest)
print(f"benchmark at {workdir}/bench")
for entry in manifest.tasks:
    print(
        f"  {entry.name}: L={entry.residues} d={entry.feature_dim} "
        f"positives={entry.positive_count} planted signal at pool index "
        f"{list(entry.informative_indices)}"
    )

cfg = EvoConfig(population_size=14, generations=10, seed=4)
results = run_evolution(tasks, cfg, ProxyConfig(max_iter=150))

print("\n=== best validation AUPRC per generation ===")
header = "gen  " + "  ".join(f"{tr.population.task.name:>8}" for tr in results)
print(header)
for g in range(cfg.generations + 1):
    row = [f"{1 - tr.history[g].best_g1:8.3f}" for tr in results]
    print(f"{g:3d}  " + "  ".join(row))

tr = results[0]
print(f"\n=== final Pareto front of {tr.population.task.name} ===")
for ind in tr.pareto:
    genes = [(g.pool_index, g.op) for g in ind.genotype.genes]
    print(f"  auprc={1 - ind.objectives.g1:.3f} fpr={ind.objectives.g2:.3f} genes={genes}")

strategy = tr.strategy
print("\nselected strategy:", [(g.pool_index, g.op) for g in strategy.genotype.genes])
print("planted informative index:", list(manifest.tasks[0].informative_indices))

probs = predict(strategy, tasks[0].pool)
val = slice(tasks[0].n_train, None)
print(f"validation AUPRC via predict(): {auprc(probs[val], tasks[0].labels[val]):.3f}")
print(f"stored at evaluation time:      {1 - strategy.objectives.g1:.3f}")
