"""odforge benchmark: one workload, one seed, one fresh interpreter.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload block-io --seed 1 --seconds 24 --trace 0

Workloads (see ``workloads.py``): ``block-io``, ``threshold-sweep`` and
``query-mix``.  The run drives ``odforge.cli.main(argv)`` in this process,
one call at a time (a closed loop with one client), with stdout and stderr
captured.  Every op that takes a search budget runs at
``workloads.DEFAULT_SEARCH_MS``, the budget the reference answers were
recorded at.  Every op is checked right after it runs, outside its timed
call (``checks.py``); block-io's design files are checked in a child
process, so the check's memory is not in ``peak_rss_mb``.

``--trace 0`` runs whole rounds of seeded ops until the ops have taken
``--seconds`` seconds and reports the end-to-end metrics.  ``setup_s`` is the
median of five fresh interpreters, each timed from launch until
``odforge.cli`` is imported and ``load_catalog()`` has returned.

``--trace 1`` reports the per-layer metrics instead, from a fixed number of
rounds whatever ``--seconds`` says.  The first ``workloads.TRACE_ROUNDS``
rounds run through the span recorder (``spans.py``) and give the per-layer
totals.  Then ``workloads.OVERHEAD_PAIRS`` pairs of rounds, one untraced and
one traced (its spans dropped), give ``trace.overhead_ratio``, the median over
pairs of traced / untraced time minus 1; both rounds of a pair see the same
cache state.  Spans are written to ``.perfbench_out/`` in
the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's facts (machine, settings, ``error_rate``, memory floors, first
failures).
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program

MAX_LOOP_SECONDS = 140  # hard stop, well inside the 180 s a run may take
SETUP_RUNS = 5
SETUP_CODE = (
    "from odforge import cli\n"
    "from odforge.constructions import load_catalog\n"
    "load_catalog()\n"
    "import resource\n"
    "print('ready', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)\n"
)


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup(runs: int) -> tuple[list[float], float]:
    """Seconds from launching a fresh interpreter until it reports ready, and
    the largest peak RSS (MB) of those interpreters: the program's floor."""
    samples, rss_kb = [], 0
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], cwd=program.ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, kb = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {err.strip()[-400:]}")
        rss_kb = max(rss_kb, int(kb))
    return samples, rss_kb / 1024


class Loop:
    """Runs rounds of ops, checks each op, and keeps the measurements."""

    def __init__(self, cli, reference, recorder=None):
        self.cli, self.reference, self.recorder = cli, reference, recorder
        self.attempted = 0
        self.failures: list[str] = []

    def run_round(self, label: str, ops) -> tuple[list[float], int]:
        """Latencies (s) of the round's ops and the cells they built or checked."""
        latencies, cells = [], 0
        for i, op in enumerate(ops):
            if self.recorder is not None:
                self.recorder.op = f"{label}.{i}"
            res = program.run_cli(self.cli.main, op.argv)
            self.attempted += 1
            latencies.append(res.seconds)
            if res.error is not None:
                reason = f"exception escaped main: {res.error}"
            elif res.rc not in (0, 1, 2):
                reason = f"exit code {res.rc}"
            else:
                reason = self.reference.check(op, res.rc, res.out, res.err)
            if reason is not None:
                self.failures.append(f"{' '.join(op.argv)}: {reason}")
            elif op.kind in ("construct", "verify"):
                cells += self.reference.order_of(op) ** 2
            elif op.kind == "exists" and res.rc == 0:
                cells += op.order**2
            if op.kind == "verify":
                Path(op.path).unlink(missing_ok=True)
        return latencies, cells


def p90_supported(latencies: list[float]) -> bool:
    if len(latencies) < 100:
        return False
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return sum(x > p90 for x in latencies) >= 10


def run(args, env) -> dict:
    import checks

    checker = checks.DesignChecker() if args.workload == "block-io" else None
    try:
        return measure(args, env, checks.Reference(check_design=checker))
    finally:
        if checker is not None:
            checker.close()


def measure(args, env, reference) -> dict:
    import spans
    import workloads

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "search_ms": workloads.DEFAULT_SEARCH_MS, **env,
        "python": sys.version.split()[0],
    }
    if not args.trace:
        setup, facts["import_rss_mb"] = measure_setup(SETUP_RUNS)

    recorder = spans.Recorder() if args.trace else None
    setup_call_s = 0.0
    if recorder is None:
        cli = program.import_program()
    else:
        cli = program.import_program(load_catalog=False)
        recorder.install()
        start = time.perf_counter()
        sys.modules["odforge.constructions"].load_catalog()
        setup_call_s = time.perf_counter() - start
        recorder.uninstall()

    tmpdir = program.ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    loop = Loop(cli, reference, recorder)
    stream = workloads.rounds(args.workload, args.seed, tmpdir=str(tmpdir), reference=reference)
    # Draw the first round before any op runs: the peak RSS then covers the
    # program's import and every table the harness holds.
    stream = itertools.chain([next(stream)], stream)
    facts["harness_rss_mb"] = maxrss_mb()
    wall_start = time.perf_counter()
    latencies: list[float] = []
    cells = 0
    traced_rounds: list[float] = []
    untraced_rounds: list[float] = []
    probe_rounds: list[float] = []
    try:
        if recorder is None:
            for r, ops in enumerate(stream):
                lat, c = loop.run_round(f"r{r}", ops)
                latencies += lat
                cells += c
                if sum(latencies) >= args.seconds and p90_supported(latencies):
                    break
                if time.perf_counter() - wall_start > MAX_LOOP_SECONDS:
                    break
        else:
            def traced_round(rec, label: str) -> float:
                loop.recorder = rec
                rec.install()
                try:
                    lat, _ = loop.run_round(label, next(stream))
                finally:
                    rec.uninstall()
                return sum(lat)

            for r in range(workloads.TRACE_ROUNDS[args.workload]):
                traced_rounds.append(traced_round(recorder, f"r{r}"))
            probe = spans.Recorder()  # adds the tracing cost; its totals are not reported
            for p in range(workloads.OVERHEAD_PAIRS[args.workload]):
                untraced_rounds.append(sum(loop.run_round(f"u{p}", next(stream))[0]))
                probe_rounds.append(traced_round(probe, f"p{p}"))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    facts["ops"] = loop.attempted
    facts["loop_wall_s"] = time.perf_counter() - wall_start
    facts["error_rate"] = len(loop.failures) / loop.attempted
    facts["failures"] = loop.failures[:5]

    metrics: dict[str, tuple[float, str]]
    if recorder is None:
        busy = sum(latencies)
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        facts["setup_samples_s"] = setup
        facts["latency_samples"] = len(latencies)
        facts["busy_s"] = busy
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "throughput_ops_s": (len(latencies) / busy, "ops/s"),
            "latency_p50_ms": (deciles[4] * 1000, "ms"),
            "latency_p90_ms": (deciles[8] * 1000, "ms"),
            "cells_per_s": (cells / busy, "cells/s"),
            "peak_rss_mb": (maxrss_mb(), "MB"),
        }
    else:
        metrics = recorder.metrics()
        ratios = [t / u for t, u in zip(probe_rounds, untraced_rounds)]
        metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1, "ratio")
        metrics["trace.wall_s"] = (setup_call_s + sum(traced_rounds), "s")
        out_dir = program.ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(span_path)
        facts["spans"] = str(span_path.relative_to(program.ROOT))
        facts["traced_rounds"] = len(traced_rounds)
        facts["traced_round_s"] = traced_rounds
        facts["overhead_pairs_s"] = list(zip(untraced_rounds, probe_rounds))
    print(json.dumps(facts))
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    try:
        env = program.configure()
    except program.MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    result = run(args, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
