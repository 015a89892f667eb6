"""Watch cross-task transfer at work: on a benchmark whose tasks share
their informative pool entries, compare convergence with and without
the elite-neighborhood exchange, and chart where second parents came
from generation by generation.

Run:  python3 demos/04_cross_task_transfer.py   (about 30 s)
"""
import tempfile
from dataclasses import replace
from pathlib import Path

from evofusion import (
    EvoConfig,
    ProxyConfig,
    SynthConfig,
    generate_synthetic,
    load_all_tasks,
    run_evolution,
)

workdir = Path(tempfile.mkdtemp(prefix="evofusion_demo_"))
# every task hides the same two signal-bearing entries (indices 1 and 2);
# partner-aligned entries carry it at 80% strength
synth = SynthConfig(
    task_count=4,
    residues=400,
    feature_dim=12,
    positive_rate=0.06,
    informative=((1, 2),) * 4,
    cross_correlation=0.8,
    noise_scale=2.3,
    seed=103,
)
tasks = load_all_tasks(generate_synthetic(synth, workdir / "bench"))
cfg = EvoConfig(population_size=16, generations=16, seed=3)
proxy = ProxyConfig(max_iter=150)

with_enm = run_evolution(tasks, cfg, proxy)
without = run_evolution(tasks, replace(cfg, transfer_prob=0.0), proxy)

print("=== best validation AUPRC, with vs without neighborhoods ===")
print("gen   " + "   ".join(f"{tr.population.task.name}(on/off)" for tr in with_enm))
for g in range(1, cfg.generations + 1):
    cells = []
    for on, off in zip(with_enm, without):
        cells.append(f"{1 - on.history[g].best_g1:.2f}/{1 - off.history[g].best_g1:.2f}")
    print(f"{g:3d}   " + "      ".join(cells))

print("\n=== interaction intensity: second parents drawn per source task ===")
names = [tr.population.task.name for tr in with_enm]
for tr in with_enm:
    name = tr.population.task.name
    print(f"\noffspring of {name} borrowed from:")
    others = [n for n in names if n != name]
    print("gen   " + "  ".join(f"{n:>8}" for n in others))
    for g, stat in enumerate(tr.history[1:], start=1):
        counts = [stat.transfers.get(names.index(n), 0) for n in others]
        print(f"{g:3d}   " + "  ".join(f"{c:8d}" for c in counts))

print(
    "\nTypical pattern: borrowing is heaviest in early generations while"
    "\ntasks still explore, then fades as each population converges on"
    "\nits own refined strategies."
)
