"""Drive the whole command-line pipeline end to end:

    gen -> evolve -> predict -> eval

and confirm that predict+eval on the validation rows reproduces the
metrics evolve wrote to summary.out.

Run:  python3 demos/05_cli_pipeline.py   (about 10 s)
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from evofusion.data import read_fmat, read_manifest, write_fmat

workdir = Path(tempfile.mkdtemp(prefix="evofusion_demo_"))
config = workdir / "run.json"
config.write_text(
    json.dumps(
        {
            "evolution": {"population_size": 12, "generations": 6, "seed": 9},
            "proxy": {"max_iter": 150},
            "synthetic": {
                "task_count": 3,
                "residues": 240,
                "feature_dim": 8,
                "positive_rate": 0.08,
                "noise_scale": 1.2,
                "seed": 21,
            },
        },
        indent=2,
    )
)


def cli(*args):
    cmd = [sys.executable, "-m", "evofusion.cli", *args]
    print("$", " ".join(str(a) for a in cmd[2:]))
    out = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(out.stdout)
    sys.stderr.write(out.stderr)
    assert out.returncode == 0, f"exit {out.returncode}"
    return out.stdout


cli("gen", "--config", config, "--out", workdir / "bench")
cli("evolve", "--data", workdir / "bench", "--config", config, "--out", workdir / "run")

print("\nsummary.out:")
print((workdir / "run" / "summary.out").read_text())

# slice the validation rows of task_00 into a standalone pool directory
manifest = read_manifest(workdir / "bench")
entry = manifest.tasks[0]
task_dir = workdir / "bench" / entry.name
n_val = -(-entry.residues // 4)  # ceil of the 25% default
val_dir = workdir / "valpool"
val_dir.mkdir()
for i in range(2 * manifest.task_count - 1):
    write_fmat(read_fmat(task_dir / f"pool_{i}.fmat")[-n_val:], val_dir / f"pool_{i}.fmat")
labels = (task_dir / "labels.txt").read_text().splitlines()
(workdir / "val_labels.txt").write_text("".join(f"{v}\n" for v in labels[-n_val:]))

cli(
    "predict",
    "--strategy", workdir / "run" / "strategy.task_00.out",
    "--pool-dir", val_dir,
    "--out", workdir / "preds.txt",
)
printed = cli("eval", "--pred", workdir / "preds.txt", "--labels", workdir / "val_labels.txt")

summary_block = (workdir / "run" / "summary.out").read_text().split("task: ")[1]
print("eval output matches the task_00 block of summary.out:",
      sorted(printed.strip().splitlines()) == sorted(summary_block.strip().splitlines()[1:]))
