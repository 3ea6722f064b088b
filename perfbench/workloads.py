"""Seeded op generators for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round of a workload has
the same cost profile (the same methods, order levels and op kinds in the same
counts); the seed decides everything else: which weights, which permutation of
them, the exact orders inside each level, the query parameters and the order
in which ops run.  Runs stop only at round boundaries, so every run measures
whole rounds and two seeds measure the same mix of work.

The program only ever sees the argv lists built here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

WORKLOADS = ("block-io", "threshold-sweep", "query-mix")

# Budget for the Kronecker-word search in every op that takes one.  The
# reference answers are recorded at this budget; BENCHMARK.json names it in
# the query-mix "why" line.
DEFAULT_SEARCH_MS = 500

# Whole rounds the traced run sums its per-layer totals over, per workload:
# the first rounds of the run, as in an untraced run, so threshold-sweep's
# first round fills the seed caches and its second uses them.  A fixed count
# keeps the totals a function of the code alone: a faster program reports the
# same calls, cells and bytes, and less time.
TRACE_ROUNDS = {"block-io": 1, "threshold-sweep": 2, "query-mix": 5}

# Pairs of later rounds, one untraced and one traced, that trace.overhead_ratio
# compares (the median over pairs of traced / untraced time); both rounds of a
# pair see the same (warm) caches.
OVERHEAD_PAIRS = {"block-io": 1, "threshold-sweep": 1, "query-mix": 6}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the harness needs to check it."""

    argv: tuple[str, ...]
    kind: str  # construct | verify | exists | bound | decompose
    key: str = ""  # reference lookup key
    order: int = 0  # order of the matrix built or checked, when there is one
    path: Optional[str] = None  # matrix file written or read (block-io)


# ---------------------------------------------------------------------------
# block-io: construct od --out, then verify --file, for each drawn design
# ---------------------------------------------------------------------------

# One slot per (method, order level).  Each multiset in a slot gives the same
# order and number of variables, so every choice costs about the same.  The
# count is how many designs of that slot one round builds and checks.
BLOCK_SLOTS = (
    # small: orders 312-546, about 50-110 ms per call
    ("eight", ((1, 1, 1, 3), (1, 1, 3, 3), (1, 3, 3, 3)), 6),
    ("gs", ((2, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 3)), 6),
    ("gs", ((1, 1, 1, 5), (1, 1, 5, 5), (1, 5, 5, 5)), 5),
    ("two", ((2, 5),), 4),
    ("two", ((1, 8),), 3),
    ("two", ((3, 4), (2, 6)), 6),
    # medium: orders 728-1022, about 0.3-0.5 s per call
    ("eight", ((2, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 3)), 1),
    ("eight", ((1, 1, 1, 5), (1, 1, 5, 5), (1, 5, 5, 5)), 1),
    ("two", ((3, 5),), 1),
    ("gs", ((2, 2, 2, 5), (2, 2, 5, 5), (2, 5, 5, 5)), 1),
    ("two", ((2, 8),), 1),
    # large: order 1092 (four blocks) and 1898 (two blocks, 28.8 MB of codes)
    ("gs", ((1, 1, 2, 3), (1, 2, 2, 3), (1, 2, 3, 3)), 1),
    ("two", ((3, 8),), 1),
)


def block_configs() -> list[tuple[str, tuple[int, ...]]]:
    """Every (method, ks) the block-io draw can produce."""
    out = set()
    for method, multisets, _ in BLOCK_SLOTS:
        for ms in multisets:
            out.update((method, p) for p in itertools.permutations(ms))
    return sorted(out)


def block_key(method: str, ks: tuple[int, ...]) -> str:
    return f"{method}:{','.join(map(str, ks))}"


def _block_rounds(rng: random.Random, tmpdir: str) -> Iterator[list[Op]]:
    for r in itertools.count():
        designs = []
        for method, multisets, count in BLOCK_SLOTS:
            for _ in range(count):
                ks = list(rng.choice(multisets))
                rng.shuffle(ks)
                designs.append((method, tuple(ks)))
        rng.shuffle(designs)
        ops: list[Op] = []
        for i, (method, ks) in enumerate(designs):
            key = block_key(method, ks)
            path = f"{tmpdir}/r{r}-{i}.od"
            csv = ",".join(map(str, ks))
            ops.append(
                Op(("construct", "od", "--method", method, "--ks", csv, "--out", path),
                   "construct", key, path=path)
            )
            ops.append(Op(("verify", "--file", path), "verify", key, path=path))
        yield ops


# ---------------------------------------------------------------------------
# threshold-sweep: exists at orders at or past the threshold, grouped by seed
# ---------------------------------------------------------------------------

# (structure, k, first order, step, top of the ladder, ops per round).  The
# first order is h*N of the family the engine routes to (no N for skew k=1,
# which needs only an even order); orders advance in steps of h.
SWEEP_GROUPS = (
    ("symmetric", 4, 112, 1, 1600, 24),
    ("skew", 1, 96, 2, 1600, 8),
    ("skew", 2, 96, 4, 960, 14),
    ("skew", 3, 96, 4, 960, 14),
    ("skew", 4, 168, 2, 1600, 16),
    ("skew", 5, 1344, 4, 1360, 1),
    ("skew", 6, 1344, 4, 1360, 1),
    ("skew", 7, 1344, 8, 1360, 1),
)


def _ladder(rng: random.Random, first: int, step: int, top: int, count: int) -> list[int]:
    """count orders on a geometric ladder from first to top, each jittered by
    up to 2% and snapped to first + a multiple of step."""
    orders = []
    for i in range(count):
        if count == 1:
            target = rng.uniform(first, top)
        else:
            target = first * (top / first) ** (i / (count - 1)) * rng.uniform(0.98, 1.02)
        steps = max(0, round((target - first) / step))
        orders.append(min(first + steps * step, first + (top - first) // step * step))
    return orders


def _sweep_rounds(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        groups = []
        for structure, k, first, step, top, count in SWEEP_GROUPS:
            orders = _ladder(rng, first, step, top, count)
            rng.shuffle(orders)
            groups.append(
                [
                    Op(("exists", "--n", str(n), "--k", str(k), "--structure", structure,
                        "--search-ms", str(DEFAULT_SEARCH_MS)),
                       "exists", f"sweep:{structure}:{k}", order=n)
                    for n in orders
                ]
            )
        rng.shuffle(groups)
        yield [op for group in groups for op in group]


# ---------------------------------------------------------------------------
# query-mix: thousands of small exists / bound / decompose ops
# ---------------------------------------------------------------------------

STRUCTURES = ("plain", "symmetric", "skew", "circulant")
BOUND_FAMILIES = (
    "sym-square", "two-square-2n", "four-square-4n", "skew-2n", "skew-4n", "skew-8n",
)
EXISTS_MAX_N = 512
MAX_K = 40
DECOMPOSE_MAX_K = 10**6

# One round: 400 ops, 70% exists, 20% bound, 10% decompose, drawn from the
# uniform distribution by systematic sampling: each kind's query space is
# sorted (exists by reference answer, structure and order), cut into as many
# equally likely strata as the round has ops of that kind, and one query is
# taken from each stratum at a seeded offset.  Every round then holds the same
# mix of answers and orders.
#
# Slow queries (``slow`` in the reference: at least 90% of the search budget
# at the seed commit, nearly all of them a Kronecker-word search that runs
# until the budget is spent) are drawn apart: each cost class (multiples of
# the budget) gets the whole number of ops per round nearest to its uniform
# rate, so every round carries the same budget waste.  A class rarer than one
# op in two rounds gets no ops, and its queries are left out of the draw.
MIX_ROUND = 400
MIX_EXISTS = 280
MIX_BOUND = 80
MIX_DECOMPOSE = 40


def exists_key(structure: str, zero_diag: bool, n: int, k: int) -> str:
    return f"exists:{structure}:{int(zero_diag)}:{n}:{k}"


# The exists query space, in the order the reference table stores it: by
# structure (STRUCTURES order), then --zero-diag off/on, then n, then k.
# Harness tables over it are numpy columns, not one string per query, so the
# harness adds little to the program's peak RSS.
_K_COUNTS = [min(n, MAX_K) for n in range(2, EXISTS_MAX_N + 1)]
_N_OFFSETS = [0, 0, 0, *itertools.accumulate(_K_COUNTS)]  # index of (n, k=1) in a block
_BLOCK = _N_OFFSETS[-1]  # queries per (structure, zero_diag)
EXISTS_COUNT = len(STRUCTURES) * 2 * _BLOCK


def exists_space():
    """(structure, zero_diag, n, k) of every query-mix exists query, in table order."""
    for structure in STRUCTURES:
        for zero_diag in (False, True):
            for n in range(2, EXISTS_MAX_N + 1):
                for k in range(1, min(n, MAX_K) + 1):
                    yield structure, zero_diag, n, k


def exists_index(key: str) -> int:
    """Position of an exists key in table order."""
    _, structure, zero_diag, n, k = key.split(":")
    block = STRUCTURES.index(structure) * 2 + int(zero_diag)
    return block * _BLOCK + _N_OFFSETS[int(n)] + int(k) - 1


def exists_columns() -> dict[str, np.ndarray]:
    """Structure index, zero_diag, n and k of every exists query, in table order."""
    n = np.repeat(np.arange(2, EXISTS_MAX_N + 1), _K_COUNTS)
    k = np.concatenate([np.arange(1, c + 1) for c in _K_COUNTS])
    blocks = len(STRUCTURES) * 2
    return {
        "structure": np.repeat(np.arange(blocks) // 2, _BLOCK),
        "zero_diag": np.repeat(np.arange(blocks) % 2, _BLOCK),
        "n": np.tile(n, blocks),
        "k": np.tile(k, blocks),
    }


def _exists_key_at(cols: dict[str, np.ndarray], i: int) -> str:
    return exists_key(STRUCTURES[cols["structure"][i]], bool(cols["zero_diag"][i]),
                      int(cols["n"][i]), int(cols["k"][i]))


def _natural_rate(key: str) -> float:
    """Probability that one uniformly drawn query-mix op is this query."""
    parts = key.split(":")
    if parts[0] == "bound":
        return MIX_BOUND / MIX_ROUND / (len(BOUND_FAMILIES) * MAX_K)
    _, _, zero_diag, n, _ = parts
    share = MIX_EXISTS / MIX_ROUND / len(STRUCTURES) * (0.1 if zero_diag == "1" else 0.9)
    return share / (EXISTS_MAX_N - 1) / min(int(n), MAX_K)


def slow_plan(slow: dict[str, float], search_ms: int):
    """[(ops per round, keys, uniform rates)] for each cost class of the slow
    queries; ``slow`` maps key to seconds at a budget of search_ms."""
    classes: dict[int, list[str]] = {}
    for key, seconds in sorted(slow.items()):
        classes.setdefault(max(1, round(seconds * 1000 / search_ms)), []).append(key)
    plan = []
    for _, keys in sorted(classes.items()):
        rates = [_natural_rate(key) for key in keys]
        count = round(MIX_ROUND * sum(rates))
        if count:
            plan.append((count, keys, rates))
    return plan


def _exists_rates(cols: dict[str, np.ndarray]) -> np.ndarray:
    """``_natural_rate`` of every exists query, in table order."""
    share = MIX_EXISTS / MIX_ROUND / len(STRUCTURES) * np.where(cols["zero_diag"], 0.1, 0.9)
    return share / (EXISTS_MAX_N - 1) / np.minimum(cols["n"], MAX_K)


class _Strata:
    """Systematic sampler over items listed in stratification order; ``key``
    turns an item's position in that order into its query key."""

    def __init__(self, rates: np.ndarray, key: Callable[[int], str]):
        self.key = key
        self.cumulative = np.cumsum(rates)

    def draw(self, rng: random.Random, m: int) -> list[str]:
        total, offset = self.cumulative[-1], rng.random()
        at = np.searchsorted(self.cumulative, (np.arange(m) + offset) / m * total, side="right")
        return [self.key(min(int(i), len(self.cumulative) - 1)) for i in at]


def _exists_op(structure: str, n: int, k: int, zero_diag: bool) -> Op:
    argv = ["exists", "--n", str(n), "--k", str(k), "--structure", structure]
    if zero_diag:
        argv.append("--zero-diag")
    argv += ["--search-ms", str(DEFAULT_SEARCH_MS)]
    return Op(tuple(argv), "exists", exists_key(structure, zero_diag, n, k), order=n)


def _bound_op(family: str, k: int) -> Op:
    return Op(("bound", "--k", str(k), "--family", family, "--search-ms", str(DEFAULT_SEARCH_MS)),
              "bound", f"bound:{family}:{k}")


def _op_from_key(key: str) -> Op:
    parts = key.split(":")
    if parts[0] == "bound":
        return _bound_op(parts[1], int(parts[2]))
    _, structure, zero_diag, n, k = parts
    return _exists_op(structure, int(n), int(k), zero_diag == "1")


def _mix_rounds(rng: random.Random, reference) -> Iterator[list[Op]]:
    slow = reference.slow
    plan = slow_plan(slow, reference.search_ms)

    # Exists strata: sorted by reference answer, structure name, n, k and
    # zero_diag, slow queries left out.
    cols = exists_columns()
    answers = np.frombuffer(reference.exists_codes.encode(), dtype=np.uint8)
    name_rank = np.argsort(np.argsort(STRUCTURES))[cols["structure"]]
    order = np.lexsort((cols["zero_diag"], cols["k"], cols["n"], name_rank, answers))
    fast = np.ones(EXISTS_COUNT, dtype=bool)
    fast[[exists_index(key) for key in slow if key.startswith("exists:")]] = False
    order = order[fast[order]]
    exists = _Strata(_exists_rates(cols)[order], lambda i: _exists_key_at(cols, order[i]))
    bound_keys = [
        f"bound:{family}:{k}" for family in BOUND_FAMILIES for k in range(1, MAX_K + 1)
        if f"bound:{family}:{k}" not in slow
    ]
    bounds = _Strata(np.array([_natural_rate(key) for key in bound_keys]), bound_keys.__getitem__)
    while True:
        picked = [rng.choices(keys, rates)[0] for count, keys, rates in plan for _ in range(count)]
        n_exists = MIX_EXISTS - sum(key.startswith("exists:") for key in picked)
        n_bound = MIX_BOUND - sum(key.startswith("bound:") for key in picked)
        picked += exists.draw(rng, n_exists) + bounds.draw(rng, n_bound)
        ops = [_op_from_key(key) for key in picked]
        offset = rng.random()
        for i in range(MIX_DECOMPOSE):
            k = 1 + int((i + offset) / MIX_DECOMPOSE * DECOMPOSE_MAX_K)
            squares = rng.choice((3, 4))
            ops.append(Op(("decompose", "--k", str(k), "--squares", str(squares)),
                          "decompose", f"decompose:{squares}:{k}"))
        rng.shuffle(ops)
        yield ops


def rounds(workload: str, seed: int, *, tmpdir: str, reference) -> Iterator[list[Op]]:
    """Endless rounds of ops for one workload, fully determined by the seed
    and the recorded reference answers (``checks.Reference``)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "block-io":
        return _block_rounds(rng, tmpdir)
    if workload == "threshold-sweep":
        return _sweep_rounds(rng)
    if workload == "query-mix":
        return _mix_rounds(rng, reference)
    raise ValueError(f"unknown workload {workload!r}")
