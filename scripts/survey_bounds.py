#!/usr/bin/env python3
"""Survey the explicit order thresholds across weights and families.

For each weight in a range, asks every threshold family that applies and
prints the resulting N (the order threshold past which the combination
construction always succeeds), the seed orders, and whether the
power-of-two seed is buildable at desk scale.

Usage:
    python3 scripts/survey_bounds.py                 # weights 1..30
    python3 scripts/survey_bounds.py --max-k 100
    python3 scripts/survey_bounds.py --family skew-4n
"""

from __future__ import annotations

import argparse

from odforge.existence import BOUND_FAMILIES, ExistenceError, bound_N


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-k", type=int, default=1)
    parser.add_argument("--max-k", type=int, default=30)
    parser.add_argument(
        "--family",
        choices=BOUND_FAMILIES,
        default=None,
        help="restrict to one family (default: all)",
    )
    args = parser.parse_args()
    families = [args.family] if args.family else list(BOUND_FAMILIES)

    header = f"{'k':>5}  {'family':<16} {'N':>12}  {'odd':>8} {'pow2':>8}  {'ks':<16} buildable"
    print(header)
    print("-" * len(header))
    for k in range(args.min_k, args.max_k + 1):
        for family in families:
            try:
                b = bound_N(k, family)
            except ExistenceError:
                continue  # family does not apply to this weight
            ks = ",".join(str(v) for v in b.ks)
            print(
                f"{k:>5}  {family:<16} {b.N:>12}  {b.odd_order:>8} {b.pow2_order:>8}"
                f"  {ks:<16} {'yes' if b.materializable else 'no'}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
