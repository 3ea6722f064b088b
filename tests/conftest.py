"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths (and numpy
where feasible) so that agreement between implementation and oracle is
meaningful evidence, not a tautology.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "odforge",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("odforge")


def naive_matmul(a, b):
    """Triple-loop integer matrix product over Python ints."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum(int(a[i][t]) * int(b[t][j]) for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def naive_gram(rows):
    """rows @ rows^T over Python ints."""
    transposed = [list(col) for col in zip(*rows)]
    return naive_matmul(rows, transposed)


def is_weighing_oracle(rows, k):
    """Definition-level weighing check, no linear algebra library."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    for r in rows:
        if any(int(v) not in (-1, 0, 1) for v in r):
            return False
    gram = naive_gram(rows)
    for i in range(n):
        for j in range(n):
            want = k if i == j else 0
            if gram[i][j] != want:
                return False
    return True


def dense_weighing_report(a, k, prefix=""):
    """Reference weighing check by dense int64 products, independent of the
    library's kernels: the first violated condition as (ok, condition,
    where), with the library's wording and order of conditions."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    bad = np.argwhere(np.abs(a) > 1)
    if bad.size:
        return False, f"{prefix}entry outside {{0,+1,-1}}", tuple(int(v) for v in bad[0])
    support = np.abs(a)
    for axis, name in ((1, "row"), (0, "column")):
        off = np.flatnonzero(support.sum(axis=axis) != k)
        if off.size:
            return False, f"{prefix}{name} weight != {k}", (int(off[0]),)
    diff = np.argwhere(a @ a.T != k * np.eye(n, dtype=np.int64))
    if diff.size:
        return (
            False,
            f"{prefix}rows not orthogonal with weight k",
            tuple(int(v) for v in diff[0]),
        )
    return True, None, None


def dense_od_report(codes, weights):
    """Reference design check: each member A_j a weighing matrix of weight
    s_j, then every pair i < j with A_i A_j^T = -(A_j A_i^T), both products
    computed densely.  Returns (ok, condition, where) as the library does."""
    codes = np.asarray(codes, dtype=np.int64)
    members = [
        np.where(np.abs(codes) == j, np.sign(codes), 0)
        for j in range(1, len(weights) + 1)
    ]
    for j, (a, s) in enumerate(zip(members, weights), start=1):
        report = dense_weighing_report(a, s, f"variable {j}: ")
        if not report[0]:
            return report
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            left = members[i] @ members[j].T
            right = members[j] @ members[i].T
            diff = np.argwhere(left != -right)
            if diff.size:
                return (
                    False,
                    f"variables {i + 1},{j + 1} not anti-amicable",
                    tuple(int(v) for v in diff[0]),
                )
    return True, None, None


def _ref_token_error(line, column, message):
    from odforge.matfile import MatrixFileError

    return MatrixFileError(f"line {line}, token {column}: {message}")


def _ref_parse_weighing_token(token, line, column):
    table = {"0": 0, "+": 1, "-": -1, "1": 1, "-1": -1}
    if token not in table:
        raise _ref_token_error(
            line, column, f"bad weighing token {token!r} (expected 0, +, -)"
        )
    return table[token]


def _ref_parse_od_token(token, num_vars, line, column):
    if token == "0":
        return 0
    sign = {"+": 1, "-": -1}.get(token[:1])
    digits = token[1:]
    if sign is None or not (digits.isascii() and digits.isdigit()):
        raise _ref_token_error(
            line, column, f"bad design token {token!r} (expected 0, +j, -j)"
        )
    index = int(digits)
    if not 1 <= index <= num_vars:
        raise _ref_token_error(
            line, column, f"variable index {index} outside 1..{num_vars}"
        )
    return sign * index


def reference_parse_matrix_file(text):
    """Reference parser: the body read token by token into a list of lists,
    as the library did before its lookup tables; the header goes through
    the library's own header parser.  Returns (codes as a list of lists,
    claim, flags)."""
    from odforge.matfile import MatrixFileError, _parse_header
    from odforge.matrices import WeighingType

    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixFileError("empty file")
    claim, flags = _parse_header(lines[0])
    n = claim.order
    if len(lines) - 1 != n:
        raise MatrixFileError(f"body has {len(lines) - 1} rows, header promises {n}")
    grid = []
    for row_index, line in enumerate(lines[1:], start=2):
        tokens = line.split(" ")
        if "" in tokens:
            raise MatrixFileError(
                f"line {row_index}: tokens must be separated by single spaces"
            )
        if len(tokens) != n:
            raise MatrixFileError(
                f"line {row_index}: row has {len(tokens)} tokens, expected {n}"
            )
        if isinstance(claim, WeighingType):
            grid.append(
                [
                    _ref_parse_weighing_token(tok, row_index, col)
                    for col, tok in enumerate(tokens, start=1)
                ]
            )
        else:
            grid.append(
                [
                    _ref_parse_od_token(tok, claim.num_vars, row_index, col)
                    for col, tok in enumerate(tokens, start=1)
                ]
            )
    return grid, claim, flags


def reference_emit_matrix_file(matrix, claim, flags=()):
    """Reference emitter: one Python string per entry, as the library did
    before its lookup tables."""
    from odforge.matfile import FLAG_ORDER, MatrixFileError
    from odforge.matrices import IntMatrix, SignedVarMatrix, WeighingType

    for flag in flags:
        if flag not in FLAG_ORDER:
            raise MatrixFileError(f"unknown flag {flag!r}")
    if len(set(flags)) != len(tuple(flags)):
        raise MatrixFileError("duplicate flags")
    ordered_flags = sorted(flags, key=FLAG_ORDER.index)
    suffix = "" if not ordered_flags else " " + " ".join(ordered_flags)
    if isinstance(claim, WeighingType):
        if not isinstance(matrix, IntMatrix):
            raise MatrixFileError("weighing claim needs an integer matrix")
        header = f"W {claim.order} {claim.weight}{suffix}"
        payload = matrix.entries
    else:
        if not isinstance(matrix, SignedVarMatrix):
            raise MatrixFileError("design claim needs a symbolic matrix")
        if matrix.num_vars != claim.num_vars:
            raise MatrixFileError(
                f"matrix has {matrix.num_vars} variables, claim has {claim.num_vars}"
            )
        type_csv = ",".join(str(s) for s in claim.type_tuple)
        header = f"OD {claim.order} {type_csv}{suffix}"
        payload = matrix.codes
    if payload.shape != (claim.order, claim.order):
        raise MatrixFileError(
            f"matrix shape {payload.shape} does not match claimed order {claim.order}"
        )

    def token_of(value):
        if isinstance(claim, WeighingType):
            if value not in (-1, 0, 1):
                raise MatrixFileError(
                    f"weighing entries must lie in {{0, +1, -1}}, got {value}"
                )
            return {0: "0", 1: "+", -1: "-"}[value]
        if value == 0:
            return "0"
        return f"+{value}" if value > 0 else f"-{-value}"

    lines = [header]
    for row in payload:
        lines.append(" ".join(token_of(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def three_squares_oracle(k):
    """Brute-force: is k a sum of three integer squares?"""
    import math

    for a in range(math.isqrt(k) + 1):
        rem_a = k - a * a
        for b in range(a, math.isqrt(rem_a) + 1):
            rem = rem_a - b * b
            c = math.isqrt(rem)
            if c * c == rem:
                return True
            if rem < b * b:
                break
    return False


def reference_three_squares(k, lo=0):
    """Lexicographically smallest sorted (a, b, c) with lo <= a and squares
    summing to k, else None: the full search the library ran before its
    residue test and its two-squares pruning."""
    from math import isqrt

    for a in range(lo, isqrt(k // 3) + 1):
        rest_a = k - a * a
        b = a
        while 2 * b * b <= rest_a:
            c2 = rest_a - b * b
            c = isqrt(c2)
            if c * c == c2 and c >= b:
                return (a, b, c)
            b += 1
    return None


def reference_four_squares(k, nonzero=False):
    """Lexicographically smallest sorted (a, b, c, d) with squares summing to
    k (all parts positive with ``nonzero``), else None: the nested loops the
    library ran before it searched through three squares."""
    from math import isqrt

    for a in range(1 if nonzero else 0, isqrt(k // 4) + 1):
        rest_a = k - a * a
        for b in range(a, isqrt(rest_a // 3) + 1):
            rest_b = rest_a - b * b
            c = b
            while 2 * c * c <= rest_b:
                d2 = rest_b - c * c
                d = isqrt(d2)
                if d * d == d2 and d >= c:
                    return (a, b, c, d)
                c += 1
    return None


def frobenius_oracle(x, y, n):
    """All (a, b) with a*x + b*y = n, by enumeration."""
    out = []
    for a in range(n // x + 1):
        rest = n - a * x
        if rest % y == 0:
            out.append((a, rest // y))
    return out


def paf_oracle(row, shift):
    """Periodic autocorrelation of a first row at a given shift."""
    n = len(row)
    return sum(int(row[i]) * int(row[(i + shift) % n]) for i in range(n))


@pytest.fixture(autouse=True)
def _fresh_weight_caches():
    """Empty the per-weight caches before each test, so a test that
    monkeypatches a builder or a split sees no other test's entries."""
    from odforge.existence import _WEIGHT_CACHES

    for cache in _WEIGHT_CACHES:
        cache.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
