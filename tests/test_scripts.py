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


def test_build_catalog_regenerates_the_pinned_circulant_rows():
    from odforge.constructions import _PINNED_ROWS

    lines = run_script("build_catalog.py", "--rows").splitlines()
    rows = {int(q): row for q, row in (line.split() for line in lines)}
    assert rows == {q: row for q, (row, _) in _PINNED_ROWS.items()}


def test_census_prints_one_row_per_structure():
    lines = run_script("census.py", "--max-n", "16").splitlines()
    assert lines[0].split() == ["structure", "Exists", "NotExists", "Undecided"]
    labels = [line[:22].strip() for line in lines[1:]]
    assert labels == ["plain", "symmetric", "skew", "circulant", "symmetric --zero-diag"]
    # every row counts each of the sum(min(n, 32)) queries once
    assert all(sum(map(int, line[22:].split())) == 136 for line in lines[1:])
