"""The scripts under scripts/ run as documented, each in a fresh interpreter
with the package on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_worked_example_concludes():
    out = run_script("worked_example.py")
    assert (
        "conclusion: a weighing matrix W(4*t, 92) exists for every t >= 1677312\n" in out
    )


def test_survey_bounds_lists_every_weight():
    lines = run_script("survey_bounds.py", "--max-k", "5").splitlines()
    weights = {line.split()[0] for line in lines if line[:5].strip().isdigit()}
    assert weights == {"1", "2", "3", "4", "5"}
