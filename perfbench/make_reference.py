"""Record the reference answers the benchmark checks every op against.

Usage (from the repository root; takes about ten minutes on two cores)::

    python3 perfbench/make_reference.py

It answers every query the workloads can draw with the program in ``src``
and writes ``perfbench/reference.json``:

* ``exists``: one letter per query-mix exists query (see
  ``checks.VERDICT_CODES``), in ``workloads.exists_space`` order, zlib-compressed;
* ``bound``: exit code and stdout of every query-mix bound query;
* ``block``: header line and ``verify`` answer of every block-io design;
* ``slow``: the exists and bound queries that took at least 90% of the
  search budget, with their seconds.

Threshold-sweep queries need no table: each must answer ``Exists``.  Decompose
answers are checked against the sum-of-squares theorems directly.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import program


def main() -> int:
    program.configure()
    cli = program.import_program()
    import checks
    import workloads

    search = ["--search-ms", str(workloads.DEFAULT_SEARCH_MS)]
    started = time.perf_counter()

    def call(argv):
        res = program.run_cli(cli.main, argv)
        if res.error is not None:
            raise RuntimeError(f"{' '.join(argv)}: {res.error}")
        return res

    block = {}
    tmp = program.ROOT / ".perfbench_tmp" / "reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for method, ks in workloads.block_configs():
            path = str(tmp / "design.od")
            csv = ",".join(map(str, ks))
            call(["construct", "od", "--method", method, "--ks", csv, "--out", path] + search)
            with open(path) as fh:
                header = fh.readline().rstrip("\n")
            verdict = call(["verify", "--file", path])
            if verdict.rc != 0:
                raise RuntimeError(f"{method} {csv}: {verdict.out}")
            block[workloads.block_key(method, ks)] = [header, verdict.out]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"block: {len(block)} designs, {time.perf_counter() - started:.0f} s", file=sys.stderr)

    slow = {}

    def note_time(key, res):
        if res.seconds >= 0.9 * workloads.DEFAULT_SEARCH_MS / 1000:
            slow[key] = round(res.seconds, 3)

    bound = {}
    for family in workloads.BOUND_FAMILIES:
        for k in range(1, workloads.MAX_K + 1):
            argv = ["bound", "--k", str(k), "--family", family]
            res = call(argv + search)
            bound[f"bound:{family}:{k}"] = [res.rc, res.out]
            note_time(f"bound:{family}:{k}", res)

    codes = []
    for structure, zero_diag, n, k in workloads.exists_space():
        argv = ["exists", "--n", str(n), "--k", str(k), "--structure", structure]
        if zero_diag:
            argv.append("--zero-diag")
        res = call(argv + search)
        codes.append(checks.exists_code(res.rc, res.out))
        note_time(workloads.exists_key(structure, zero_diag, n, k), res)
        if len(codes) % 20000 == 0:
            print(f"exists: {len(codes)} answered, {time.perf_counter() - started:.0f} s",
                  file=sys.stderr)

    data = {
        "search_ms": workloads.DEFAULT_SEARCH_MS,
        "exists": checks.encode_codes("".join(codes)),
        "bound": bound,
        "block": block,
        "slow": slow,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    counts = {c: codes.count(c) for c in sorted(set(codes))}
    print(f"wrote {checks.REFERENCE_PATH}: exists answers {counts}, "
          f"{len(slow)} slow queries, "
          f"{time.perf_counter() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
