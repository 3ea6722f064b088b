#!/usr/bin/env python3
"""Decision census: how many existence queries the engine decides.

Asks ``exists_query`` once for every order n <= --max-n and weight
k <= min(n, --max-k), for each structure and for symmetric with zero
diagonal, and prints how many answers are Exists, NotExists and Undecided.
A change that decides more queries moves these counts; one that loses an
answer moves them back.

Usage:
    python3 scripts/census.py                    # n <= 512, k <= 32, about 4 s
    python3 scripts/census.py --max-n 128
"""

from __future__ import annotations

import argparse
from collections import Counter

from odforge.existence import Query, exists_query

# (label, structure, zero diagonal), in print order.
ROWS = (
    ("plain", "plain", False),
    ("symmetric", "symmetric", False),
    ("skew", "skew", False),
    ("circulant", "circulant", False),
    ("symmetric --zero-diag", "symmetric", True),
)
KINDS = (("exists", "Exists"), ("not-exists", "NotExists"), ("unknown", "Undecided"))


def answers(max_n: int, max_k: int, structure: str, zero_diagonal: bool):
    """(query, verdict) for every n <= max_n and k <= min(n, max_k)."""
    for n in range(1, max_n + 1):
        for k in range(1, min(n, max_k) + 1):
            query = Query(n, k, structure, zero_diagonal)
            yield query, exists_query(query)


def census(max_n: int, max_k: int) -> dict[str, Counter]:
    """Verdict kinds counted per row label."""
    return {
        label: Counter(v.kind for _, v in answers(max_n, max_k, structure, zero_diagonal))
        for label, structure, zero_diagonal in ROWS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=512)
    parser.add_argument("--max-k", type=int, default=32)
    args = parser.parse_args()
    print(f"{'structure':<22}" + "".join(f"{name:>10}" for _, name in KINDS))
    for label, counts in census(args.max_n, args.max_k).items():
        print(f"{label:<22}" + "".join(f"{counts[kind]:>10}" for kind, _ in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
