"""Smoke test: every demo script, and the README's quickstart, runs to
completion."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
(QUICKSTART,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
CASES = [[str(demo)] for demo in DEMOS] + [["-c", QUICKSTART]]


@pytest.mark.parametrize("demo", CASES, ids=[d.stem for d in DEMOS] + ["readme_quickstart"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, *demo], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
