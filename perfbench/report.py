"""Print every end-to-end (or per-layer) metric of all three workloads.

Usage (from the repository root)::

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace 1]

Each workload runs in its own fresh interpreter through ``run.py``.  The
table lists each metric by name with its unit, plus ``error_rate`` (failed
ops / attempted ops), which the result line carries as ``failed`` and
``attempted``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("block-io", "threshold-sweep", "query-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        facts, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {workload} (seed {args.seed}, {result['attempted']} ops, "
              f"nproc {facts['nproc']}, BLAS threads {facts['blas_threads']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
        print(f"  {'error_rate':40s} {facts['error_rate']:>16.6g} failed/attempted")
        for failure in facts["failures"]:
            print(f"  failure: {failure}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
