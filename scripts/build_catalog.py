#!/usr/bin/env python3
"""Generate the packaged catalog of small all-ones designs, and the pinned
first rows of circulant weighing matrices.

Each catalog entry is constructed, verified, and written as a .od matrix file
plus a MANIFEST.txt line recording how it came to be.  The four entries:

* order 2:  the explicit symmetric pattern [[x1, x2], [x2, -x1]]
* order 4:  quaternion left-multiplication family
* order 8:  octonion left-multiplication family (Fano-plane triple rule)
* order 16: lexicographically first Kronecker-word family from the bounded
            backtracking search below

With --rows the script writes no catalog and prints, one "q row" line each,
the first rows of W(q^2 + q + 1, q^2) that the multiplier-orbit sign search
below finds for q in {2, 3, 5, 7, 8, 9}; constructions._PINNED_ROWS holds
them.

Run from anywhere; by default writes into src/odforge/data/catalog next to
this script's repository root.  Both searches live here, not in the package:
the program builds its designs and circulant blocks without searching.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import reduce
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
CATALOG_DIR = REPO_ROOT / "src" / "odforge" / "data" / "catalog"
sys.path.insert(0, str(REPO_ROOT / "src"))

from odforge.gf import SingerZeroSet, singer_zero_set  # noqa: E402
from odforge.matfile import emit_matrix_file  # noqa: E402
from odforge.matrices import (  # noqa: E402
    ODType,
    SignedVarMatrix,
    structure_check,
    verify_od,
)

DEFAULT_SEARCH_MS = 30000

# Fano-plane triples defining the octonion products: for (a, b, c) the cyclic
# products are e_a e_b = e_c, e_b e_c = e_a, e_c e_a = e_b; reversing a pair
# flips the sign; e_i e_i = -e_0; e_0 is the unit.
TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (2, 5, 7), (3, 6, 5), (1, 7, 6))


def octonion_codes(dim: int) -> np.ndarray:
    """Variable codes of X = sum_i x_{i+1} L_{e_i} on the first dim units."""
    product: dict[tuple[int, int], tuple[int, int]] = {}
    for b in range(8):
        product[(0, b)] = (1, b)
        product[(b, 0)] = (1, b)
    for a in range(1, 8):
        product[(a, a)] = (-1, 0)
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            product[(x, y)] = (1, z)
            product[(y, x)] = (-1, z)
    codes = np.zeros((dim, dim), dtype=np.int64)
    for i in range(dim):
        for col in range(dim):
            sign, row = product[(i, col)]
            if row >= dim:
                raise AssertionError(f"unit {i} leaves the span at column {col}")
            if codes[row, col]:
                raise AssertionError(f"cell ({row}, {col}) written twice")
            codes[row, col] = sign * (i + 1)
    return codes


# Letters are indexed 0..3 = I, P, Q, K.  Each word over the letters denotes
# the Kronecker product of its 2x2 blocks, a signed permutation matrix.
_P = np.array([[0, 1], [1, 0]], dtype=np.int64)
_Q = np.array([[1, 0], [0, -1]], dtype=np.int64)
LETTERS = (np.eye(2, dtype=np.int64), _P, _Q, _P @ _Q)
# Support pattern per letter: True = diagonal (I, Q), False = antidiagonal.
_DIAGONAL = np.array([True, False, True, False])
# Letter pairs {I,K} and {P,Q} produce a rotation factor in W1 @ W2.T; the
# pair is anti-amicable exactly when the number of rotation factors is odd.
_ROTATION_PAIR = np.zeros((4, 4), dtype=bool)
for _a, _b in ((0, 3), (3, 0), (1, 2), (2, 1)):
    _ROTATION_PAIR[_a, _b] = True


def word_digits(count: int, exponent: int) -> np.ndarray:
    """Base-4 digit table, shape (count, exponent), most significant first."""
    idx = np.arange(count, dtype=np.int64)
    digits = np.zeros((count, exponent), dtype=np.int64)
    for pos in range(exponent):
        digits[:, exponent - 1 - pos] = (idx >> (2 * pos)) & 3
    return digits


def word_compatibility(exponent: int) -> np.ndarray:
    """Adjacency matrix over all 4**exponent words: True when the two words
    have disjoint support and are anti-amicable.  Built whole, with
    (4**e, 4**e, e) temporaries; the catalog needs e = 4 at most."""
    digits = word_digits(4**exponent, exponent)
    diag = _DIAGONAL[digits]
    disjoint = (diag[:, None, :] != diag[None, :, :]).any(axis=2)
    rotations = _ROTATION_PAIR[digits[:, None, :], digits[None, :, :]].sum(axis=2)
    return disjoint & (rotations % 2 == 1)


def word_matrix(digit_row: np.ndarray) -> np.ndarray:
    return reduce(np.kron, [LETTERS[d] for d in digit_row], np.eye(1, dtype=np.int64))


def clique_search(adjacency: np.ndarray, size: int, deadline: float) -> list[int] | None:
    """Lexicographically first clique of the given size, or None on timeout
    or exhaustion.  Depth-first over vertices in increasing index order."""
    count = adjacency.shape[0]

    def extend(chosen: list[int], candidates: np.ndarray) -> list[int] | None:
        if len(chosen) == size:
            return chosen
        if time.monotonic() > deadline:
            return None
        remaining = np.flatnonzero(candidates)
        if len(chosen) + remaining.size < size:
            return None
        for v in remaining:
            nxt = candidates & adjacency[v]
            nxt[: v + 1] = False
            result = extend(chosen + [int(v)], nxt)
            if result is not None:
                return result
            if time.monotonic() > deadline:
                return None
        return None

    return extend([], np.ones(count, dtype=bool))


def search_monomial_design(t: ODType, deadline: float) -> SignedVarMatrix | None:
    """Backtracking search for a design of type t on a power-of-two order
    whose variable matrices are sums of Kronecker words over {I, P, Q, K}.
    Lexicographically first; None when the deadline passes or none exists."""
    exponent = t.order.bit_length() - 1
    chosen = clique_search(word_compatibility(exponent), t.total_weight, deadline)
    if chosen is None:
        return None
    digits = word_digits(4**exponent, exponent)
    codes = np.zeros((t.order, t.order), dtype=np.int64)
    position = 0
    for var, weight in enumerate(t.type_tuple, start=1):
        for _ in range(weight):
            codes += var * word_matrix(digits[chosen[position]])
            position += 1
    return SignedVarMatrix(codes, t.num_vars)


# Hard cap on the sign patterns the circulant search scans.  The largest
# scan, q = 7, has 2**17 candidates; every other prime power up to 49 has at
# least 24 support orbits, past the cap.
CANDIDATE_CAP = 1 << 22
PINNED_CIRCULANT_Q = (2, 3, 5, 7, 8, 9)


def multiplier_orbits(n: int, p: int) -> list[list[int]]:
    """Orbits of i -> p*i (mod n) on Z_n, each sorted, ordered by minimum."""
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for start in range(n):
        if start in seen:
            continue
        orb = []
        j = start
        while j not in seen:
            seen.add(j)
            orb.append(j)
            j = (j * p) % n
        orbits.append(sorted(orb))
    return orbits


def paf_zero(row: np.ndarray) -> bool:
    n = row.shape[0]
    return all(int(np.dot(row, np.roll(row, shift))) == 0 for shift in range(1, n))


def orbit_sign_search(singer: SingerZeroSet) -> list[int] | None:
    """Search sign patterns constant on multiplier orbits, zeros fixed on the
    trace-zero set.  Returns the lexicographically first row (+1 tried before
    -1 on each orbit, orbits ordered by smallest member) whose periodic
    autocorrelation vanishes at every nonzero shift, or None."""
    n, q = singer.n, singer.q
    p = singer.field.p
    zero_positions = set(singer.positions)
    orbits = multiplier_orbits(n, p)
    # The trace-zero set is closed under the multiplier, so orbits never
    # straddle the support boundary.
    support_orbits = [orb for orb in orbits if orb[0] not in zero_positions]
    m = len(support_orbits)
    if (1 << m) > CANDIDATE_CAP:
        return None
    chunk = 4096
    total = 1 << m
    for base in range(0, total, chunk):
        count = min(chunk, total - base)
        idx = np.arange(base, base + count, dtype=np.int64)
        rows = np.zeros((count, n), dtype=np.int64)
        for bit, orb in enumerate(support_orbits):
            signs = np.where((idx >> (m - 1 - bit)) & 1, -1, 1)
            for pos in orb:
                rows[:, pos] = signs
        keep = np.abs(rows.sum(axis=1)) == q
        for row in rows[keep]:
            if paf_zero(row):
                return [int(v) for v in row]
    return None


def pinned_circulant_rows() -> dict[int, str]:
    """First row per pinned q as a "+"/"-"/"0" string."""
    rows = {}
    for q in PINNED_CIRCULANT_Q:
        row = orbit_sign_search(singer_zero_set(q))
        if row is None:
            raise SystemExit(f"circulant sign search found no row for q={q}")
        rows[q] = "".join({1: "+", -1: "-", 0: "0"}[v] for v in row)
    return rows


def build_entries(
    search_ms: int = DEFAULT_SEARCH_MS,
) -> list[tuple[str, SignedVarMatrix, ODType, str]]:
    entries = []

    two = SignedVarMatrix(np.array([[1, 2], [2, -1]], dtype=np.int64), 2)
    entries.append(
        (
            "od0002_ones2.od",
            two,
            ODType(2, (1, 1)),
            "explicit symmetric pattern [[x1, x2], [x2, -x1]]",
        )
    )

    entries.append(
        (
            "od0004_ones4.od",
            SignedVarMatrix(octonion_codes(4), 4),
            ODType(4, (1, 1, 1, 1)),
            "quaternion left-multiplication family",
        )
    )

    entries.append(
        (
            "od0008_ones8.od",
            SignedVarMatrix(octonion_codes(8), 8),
            ODType(8, (1,) * 8),
            "octonion left-multiplication family (Fano triple rule)",
        )
    )

    t16 = ODType(16, (1,) * 9)
    found = search_monomial_design(t16, time.monotonic() + search_ms / 1000.0)
    if found is None:
        raise SystemExit("order-16 search failed; raise --search-ms")
    entries.append(
        (
            "od0016_ones9.od",
            found,
            t16,
            "lexicographically first Kronecker-word family from the bounded search",
        )
    )
    return entries


def render_entry(name: str, matrix: SignedVarMatrix, claim: ODType) -> tuple[str, list[str]]:
    """Verify one entry; return its matrix file text and structure flags."""
    report = verify_od(matrix, claim)
    if not report.ok:
        raise SystemExit(f"{name} failed verification: {report.message()}")
    shape = structure_check(matrix)
    flags = []
    if shape.symmetric:
        flags.append("sym")
    if shape.skew_symmetric:
        flags.append("skew")
    if shape.circulant:
        flags.append("circ")
    return emit_matrix_file(matrix, claim, flags), flags


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=CATALOG_DIR,
        help="output directory (default: the packaged data directory)",
    )
    parser.add_argument("--search-ms", type=int, default=DEFAULT_SEARCH_MS)
    parser.add_argument(
        "--rows",
        action="store_true",
        help="print the pinned circulant first rows instead of writing the catalog",
    )
    args = parser.parse_args()

    if args.rows:
        for q, row in pinned_circulant_rows().items():
            print(q, row)
        return
    args.out.mkdir(parents=True, exist_ok=True)
    manifest_lines = ["# catalog entries: <file>: <how it was built>"]
    for name, matrix, claim, provenance in build_entries(args.search_ms):
        text, flags = render_entry(name, matrix, claim)
        (args.out / name).write_text(text)
        manifest_lines.append(f"{name}: {provenance}")
        print(f"wrote {name}: order {claim.order}, type {claim.type_tuple}, flags {flags}")
    (args.out / "MANIFEST.txt").write_text("\n".join(manifest_lines) + "\n")
    print(f"manifest with {len(manifest_lines) - 1} entries -> {args.out}")


if __name__ == "__main__":
    main()
