"""Check that query-mix answers do not depend on its search budget.

Usage (from the repository root)::

    python3 perfbench/audit_budget.py --seeds 1-10 --rounds 2 --against 5000

For each seed it draws the first ``--rounds`` query-mix rounds, runs every op
at the benchmark's budget (``workloads.DEFAULT_SEARCH_MS``) and again at
``--against`` milliseconds
(the CLI default is 5000), and compares exit codes and stdout.  It prints one
JSON object: ops compared, mismatches, and how many ops ran the search until
the budget was spent.
"""

from __future__ import annotations

import argparse
import json
import sys

import program


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    program.configure()
    import checks
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--against", type=int, default=5000)
    args = parser.parse_args(argv)

    cli = program.import_program()
    reference = checks.Reference()
    compared, exhausting, mismatches = 0, 0, []
    for seed in _seeds(args.seeds):
        stream = workloads.rounds("query-mix", seed, tmpdir="", reference=reference)
        for _ in range(args.rounds):
            for op in next(stream):
                runs = []
                for budget in (workloads.DEFAULT_SEARCH_MS, args.against):
                    argv_b = list(op.argv)
                    if "--search-ms" in argv_b:
                        argv_b[argv_b.index("--search-ms") + 1] = str(budget)
                    res = program.run_cli(cli.main, argv_b)
                    runs.append((res.rc, res.out, res.error))
                compared += 1
                exhausting += op.key in reference.slow
                if runs[0] != runs[1]:
                    mismatches.append({"argv": op.argv, "at": runs[0][:2], "against": runs[1][:2]})
    print(json.dumps({
        "seeds": args.seeds, "rounds_per_seed": args.rounds,
        "search_ms": workloads.DEFAULT_SEARCH_MS,
        "against_ms": args.against, "ops_compared": compared,
        "slow_ops": exhausting, "mismatches": mismatches,
    }, indent=1))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
