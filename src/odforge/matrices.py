"""Exact matrix algebra over the integers and over formal signed variables,
and the exact verifiers built on it.

Two matrix kinds live here:

* ``IntMatrix`` holds exact integer entries in a signed numpy integer array
  (int64 for anything given as Python integers); an entry past int64 is
  refused.  Products go through two proven-safe tiers: float64 BLAS when every
  intermediate value is bounded below 2**53, int64 accumulation when bounded
  below 2**63.  A product that could pass int64 is refused, so there is no
  silent overflow and no rounding.

* ``SignedVarMatrix`` holds entries drawn from {0, +x_1, -x_1, ..., +x_l, -x_l}
  for formal commuting variables x_j, encoded as signed integer codes: 0 for
  zero and ``+j`` / ``-j`` for ``+x_j`` / ``-x_j``.  A cell mentions at most
  one variable, so the matrix decomposes uniquely as X = sum_j x_j * A_j with
  pairwise disjoint integer coefficient matrices A_j.

Verification.  ``verify_weighing`` and ``verify_od`` (and the re-check inside
``specialize_variables``) use the family characterization: X is an OD of type
(s_1..s_l) exactly when each A_j is a W(n, s_j) and A_i A_j^T + A_j A_i^T = 0
for i != j.  ``_family_report`` checks it at one choke point, with one rule
for picking the method:

* A small family, n * (s_1 + ... + s_l)**2 <= ``_PASS_MIN_TERMS``, goes to
  the support kernel alone.
* A larger one first tries the block-circulant pass: when n = h * q with h
  the 2-part of n and q >= 3, and every q x q block of the codes is
  developed or back-developed over one group Z_q1 x ... x Z_qr of order q
  (circulant or back-circulant when r = 1, Kronecker products of such when
  r > 1), each block of a Gram matrix or pair sum follows from the first
  rows of the blocks alone, in O(h * s_i * s_j) terms.  A family the pass
  does not prove sends each Gram matrix and each pair sum to the kernel
  that the fixed cost rule ``_support_is_cheaper`` picks for n, s_i and s_j.

One pass over the codes gives every variable's row and column weights.  Once
those hold, row r of A_i A_j^T is a sum of s_i * s_j signed partner terms, so
the support kernel checks each Gram matrix and each pair sum exactly from the
row and column supports in O(n * s_i * s_j), in row blocks that keep the
temporaries bounded.  Both sums, A_j A_j^T and A_i A_j^T + A_j A_i^T, are
symmetric, so their first violation in row-major order lies on or above the
diagonal, and the support kernel counts only those terms.  The dense kernel
checks M M^T = d I by float64 BLAS products of a few rows at a time against
one float copy of M: M = A_j and d = s_j for a Gram matrix, M = A_i + A_j and
d = s_i + s_j for a pair, whose product is the pair sum plus both Gram
matrices, all checked before any pair.  Both kernels report the same first
violation, so every report is theirs.

Indexing convention: storage is 0-based throughout.  Classical 1-based matrix
descriptions are converted here, in one place, as follows: a circulant has
C[i][j] = a[(j - i) mod n] (row i is the first row cyclically right-shifted by
i), a back-circulant has B[i][j] = d[(i + j) mod n], and the back-diagonal
permutation R has ones exactly where i + j = n - 1 (0-based), which is the
1-based condition i + j == 1 (mod n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "MatrixError",
    "VerificationInternalError",
    "IntMatrix",
    "SignedVarMatrix",
    "Matrix",
    "ODType",
    "WeighingType",
    "StructureReport",
    "CheckReport",
    "Var",
    "mat_mul",
    "transpose",
    "circulant",
    "structure_check",
    "verify_weighing",
    "decompose_family",
    "verify_od",
    "specialize_variables",
]

_FLOAT_SAFE = 2**53
_INT64_SAFE = 2**63 - 1

_SIGNED_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _code_dtype(num_vars: int) -> np.dtype:
    """The narrowest signed integer dtype that holds the codes -l..l:
    int8 for l <= 127."""
    return np.dtype(next(t for t in _SIGNED_INT_DTYPES if np.iinfo(t).max >= num_vars))


class MatrixError(ValueError):
    """Malformed matrix input: bad shape, bad entries, or kind mismatch."""


class VerificationInternalError(RuntimeError):
    """An operation's own output failed re-verification; indicates a bug."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_exact_array(data) -> np.ndarray:
    """Return a 2-D signed-integer array: a copy of a signed-integer array,
    or int64 for any other input, whose entries must each be an integer (not
    a bool) within int64.  A narrower array holding its dtype's minimum (-128
    in int8), whose negation and ``np.abs`` would wrap, is copied to int64."""
    if isinstance(data, np.ndarray):
        if data.ndim != 2:
            raise MatrixError(f"expected a 2-D array, got ndim={data.ndim}")
        if data.dtype in _SIGNED_INT_DTYPES:
            if data.dtype != np.int64 and data.size and data.min() == np.iinfo(data.dtype).min:
                return data.astype(np.int64)
            return data.copy()
        if data.dtype != object and not np.issubdtype(data.dtype, np.integer):
            raise MatrixError(f"matrix entries must be integers, got dtype {data.dtype}")
        data = data.tolist()  # object and unsigned arrays: checked entry by entry
    rows = [list(r) for r in data]
    if not rows:
        raise MatrixError("matrix needs at least one row")
    width = len(rows[0])
    if width == 0:
        raise MatrixError("matrix needs at least one column")
    for r in rows:
        if len(r) != width:
            raise MatrixError("ragged rows")
        for v in r:
            if not _is_int(v):
                raise MatrixError(f"non-integer entry {v!r}")
            if not -_INT64_SAFE <= int(v) <= _INT64_SAFE:
                raise MatrixError(f"entry {v} does not fit a 64-bit integer")
    return np.array(rows, dtype=np.int64)


def _max_abs(arr: np.ndarray) -> int:
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


class IntMatrix:
    """Dense matrix with exact integer entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = _as_exact_array(entries)
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def _adopt(cls, grid: np.ndarray) -> "IntMatrix":
        """Wrap a 2-D signed-int array the caller allocated and hands over,
        without the copy ``__init__`` makes; the array becomes read-only."""
        out = cls.__new__(cls)
        grid.setflags(write=False)
        out.entries = grid
        return out

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.entries.shape, tuple(self.entries.flat[:16])))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


class SignedVarMatrix:
    """Square matrix over {0, +-x_1, ..., +-x_l}, encoded as signed variable codes.

    ``codes[i][j] == 0`` means a zero cell; ``codes[i][j] == +-j`` means
    ``+-x_j`` (variables are numbered from 1).  ``num_vars`` is l; every code
    magnitude must lie in [0, l].  The codes keep the signed dtype they are
    given (int64 for Python integers); arithmetic on them widens where a sum
    could pass that dtype, as ``_substitute_variables`` does.
    """

    __slots__ = ("codes", "num_vars")

    def __init__(self, codes, num_vars: int | None = None):
        self._own(_as_exact_array(codes), num_vars)

    @classmethod
    def _adopt(cls, grid: np.ndarray, num_vars: int) -> "SignedVarMatrix":
        """Wrap a square signed-int code array the caller hands over or
        shares read-only, without the copy ``__init__`` makes; the array
        becomes read-only.  The library's grids are ``_code_dtype(num_vars)``,
        one byte per cell for up to 127 variables."""
        out = cls.__new__(cls)
        out._own(grid, num_vars)
        return out

    def _own(self, arr: np.ndarray, num_vars: int | None) -> None:
        if arr.shape[0] != arr.shape[1]:
            raise MatrixError("symbolic matrices must be square")
        top = _max_abs(arr)
        if num_vars is None:
            num_vars = top
        if not _is_int(num_vars) or num_vars < 0:
            raise MatrixError("num_vars must be a nonnegative integer")
        if top > num_vars:
            raise MatrixError(f"variable index {top} exceeds num_vars={num_vars}")
        arr.setflags(write=False)
        self.codes = arr
        self.num_vars = int(num_vars)

    @property
    def order(self) -> int:
        return self.codes.shape[0]

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedVarMatrix):
            return NotImplemented
        return self.num_vars == other.num_vars and bool(
            np.array_equal(self.codes, other.codes)
        )

    def __hash__(self):
        return hash((self.codes.shape, self.num_vars))

    def __repr__(self) -> str:
        return f"SignedVarMatrix(order={self.order}, num_vars={self.num_vars})"


Matrix = Union[IntMatrix, SignedVarMatrix]


class Var(NamedTuple):
    """Substitution target meaning 'the variable with this 1-based index'."""

    index: int


@dataclass(frozen=True)
class ODType:
    """Order and type tuple (s_1, ..., s_l) of an orthogonal design claim."""

    order: int
    type_tuple: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "type_tuple", tuple(int(s) for s in self.type_tuple))
        if not _is_int(self.order) or self.order < 1:
            raise MatrixError("order must be a positive integer")
        if len(self.type_tuple) < 1:
            raise MatrixError("type tuple must be nonempty")
        if any(s < 1 for s in self.type_tuple):
            raise MatrixError("type entries must be positive")
        if sum(self.type_tuple) > self.order:
            raise MatrixError(
                f"type weights sum to {sum(self.type_tuple)} > order {self.order}"
            )

    @property
    def num_vars(self) -> int:
        return len(self.type_tuple)

    @property
    def total_weight(self) -> int:
        return sum(self.type_tuple)


@dataclass(frozen=True)
class WeighingType:
    """Order and weight (n, k) of a weighing-matrix claim."""

    order: int
    weight: int

    def __post_init__(self):
        if not _is_int(self.order) or self.order < 1:
            raise MatrixError("order must be a positive integer")
        if not _is_int(self.weight) or self.weight < 1:
            raise MatrixError("weight must be a positive integer")
        if self.weight > self.order:
            raise MatrixError(
                f"weight {self.weight} exceeds order {self.order}"
            )


@dataclass(frozen=True)
class StructureReport:
    """Shape predicates of a square matrix, computed exactly."""

    symmetric: bool
    skew_symmetric: bool
    circulant: bool
    zero_diagonal: bool


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a verifier: ``ok`` or the first violated condition."""

    ok: bool
    condition: str | None = None
    where: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def message(self) -> str:
        if self.ok:
            return "ok"
        if self.where is None:
            return self.condition or "failed"
        return f"{self.condition} at {self.where}"


def _payload(m: Matrix) -> np.ndarray:
    return m.entries if isinstance(m, IntMatrix) else m.codes


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not isinstance(a, IntMatrix) or not isinstance(b, IntMatrix):
        raise MatrixError("mat_mul is defined for integer matrices only")
    if a.cols != b.rows:
        raise MatrixError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    # The cheaper representation whose partial sums provably stay exact:
    # float64 (BLAS) below 2**53, int64 below 2**63.
    bound = a.cols * _max_abs(a.entries) * _max_abs(b.entries)
    if bound > _INT64_SAFE:
        raise MatrixError(f"product entries could reach {bound}, past 64-bit integers")
    if bound < _FLOAT_SAFE:
        return IntMatrix(
            (a.entries.astype(np.float64) @ b.entries.astype(np.float64)).astype(np.int64)
        )
    return IntMatrix(a.entries.astype(np.int64) @ b.entries.astype(np.int64))


def transpose(m: Matrix) -> Matrix:
    if isinstance(m, SignedVarMatrix):
        return SignedVarMatrix(m.codes.T, m.num_vars)
    return IntMatrix(m.entries.T)


def circulant(first_row: Sequence[int]) -> IntMatrix:
    """Circulant matrix: row i is ``first_row`` cyclically right-shifted by i,
    held as a read-only view of the row written twice (2n entries).  A signed
    integer array keeps its dtype; any other row is checked into int64."""
    as_is = isinstance(first_row, np.ndarray) and first_row.dtype in _SIGNED_INT_DTYPES
    row = _as_exact_array(first_row[None] if as_is and first_row.size else [list(first_row)])[0]
    n = row.shape[0]
    return IntMatrix._adopt(np.lib.stride_tricks.sliding_window_view(np.tile(row, 2), n)[n:0:-1])


# Rows per block of the exact comparisons below: their temporaries are a few
# rows of the matrix, whatever its order.
_COMPARE_ROWS = 64


def _equal_by_rows(a: np.ndarray, b: np.ndarray, negate: bool = False) -> bool:
    """``np.array_equal(a, -b if negate else b)`` for arrays of one shape,
    compared ``_COMPARE_ROWS`` rows at a time and stopped at the first block
    that differs."""
    for r in range(0, a.shape[0], _COMPARE_ROWS):
        rows = b[r : r + _COMPARE_ROWS]
        if not np.array_equal(a[r : r + _COMPARE_ROWS], -rows if negate else rows):
            return False
    return True


def structure_check(m: Matrix) -> StructureReport:
    """Exact shape predicates; works for numeric and symbolic matrices alike."""
    arr = _payload(m)
    if arr.shape[0] != arr.shape[1]:
        raise MatrixError("structure_check needs a square matrix")
    symmetric = _equal_by_rows(arr, arr.T)
    skew = _equal_by_rows(arr, arr.T, negate=True)
    zero_diag = not bool(np.any(np.diagonal(arr)))
    # Circulant: each row is the one above shifted right by one, the last
    # entry wrapping to the front.
    circ = np.array_equal(arr[1:, 0], arr[:-1, -1]) and _equal_by_rows(
        arr[1:, 1:], arr[:-1, :-1]
    )
    return StructureReport(
        symmetric=symmetric,
        skew_symmetric=skew,
        circulant=circ,
        zero_diagonal=zero_diag,
    )


# ---------------------------------------------------------------------------
# Family check: weights, Gram matrices and anti-amicable pair sums
# ---------------------------------------------------------------------------

# Cells of the code matrix scanned per block while extracting supports, and
# partner terms per block in the support kernel.  Both bound the temporaries
# (a few tens of MB) whatever the order.
_SCAN_CELLS = 1 << 20
_BLOCK_TERMS = 1 << 19

# One partner term of the support kernel costs about as much as this many
# multiply-adds of the dense BLAS product.  Measured on a 2-core x86-64 VM
# (Xeon, numpy 2.4.6, OpenBLAS 0.3.31, two threads), each kernel alone on
# valid W(n, s) inputs (I (x) Sylvester H_s, rows and columns permuted) with
# s near the crossover: the support kernel takes 6-7 ns per term of n * s**2
# (it sorts only the half on or above the diagonal), and the dense product
# 14-18 ps per multiply-add at n >= 1024 (ratio 400-460) and 18-27 ps at
# n = 512 (ratio 250-520).  Verifying the designs of one perfbench block-io
# round (orders 312-1898) takes about as long at every cost from 256 to 512
# (294-299 ms), and longer at 128 (312 ms) and 1024 (404 ms), so 256 stays.
# A Gram check goes to the support kernel while s / n < 1/16.
_TERM_COST = 256


# Prefix of a design member's conditions, formatted with its 1-based index.
_VARIABLE_LABEL = "variable {}: "


def _support_is_cheaper(n: int, terms_per_row: int) -> bool:
    """Cost rule: the support kernel does n * terms_per_row partner terms,
    the dense path n**3 multiply-adds."""
    return terms_per_row * _TERM_COST < n * n


class _Member(NamedTuple):
    """Row and column supports of one {0,+1,-1} member with s nonzeros in
    every row and every column: row r has a nonzero at column ``cols[r, a]``,
    negative where ``negative[r, a]`` is 1; column t has its nonzeros at the
    rows p of ``partners[t, b] = 2 * p + (entry > 0)``."""

    cols: np.ndarray
    negative: np.ndarray
    partners: np.ndarray


def _scan_codes(codes: np.ndarray, l: int, keep: bool):
    """One pass over the codes, in row blocks.

    Returns per-variable row and column weights, each an (l, n) array, and,
    when ``keep``, the row-major list of nonzero (column, code) pairs, from
    which the weights are two bincounts.  Without ``keep`` (every product
    dense) the weights are counted per variable in place, which costs less
    than listing the nonzeros of a dense matrix.
    """
    n = codes.shape[0]
    row_w = np.zeros((l, n), dtype=np.int64)
    col_w = np.zeros((l, n), dtype=np.int64)
    cols_out, codes_out = [], []
    step = max(1, _SCAN_CELLS // n)
    for r0 in range(0, n, step):
        block = codes[r0 : r0 + step]
        if not keep:
            mag = np.abs(block)
            for j in range(l):
                hit = mag == j + 1
                row_w[j, r0 : r0 + step] = np.count_nonzero(hit, axis=1)
                col_w[j] += np.count_nonzero(hit, axis=0)
            continue
        # flatnonzero of a 1-D mask is far faster than nonzero of a 2-D array
        r, c = np.divmod(np.flatnonzero(block != 0), n)
        v = block[r, c].astype(np.int64)
        slot = (np.abs(v) - 1) * n
        row_w += np.bincount(slot + r + r0, minlength=l * n).reshape(l, n)
        col_w += np.bincount(slot + c, minlength=l * n).reshape(l, n)
        cols_out.append(c)
        codes_out.append(v)
    pairs = (np.concatenate(cols_out), np.concatenate(codes_out)) if keep else None
    return row_w, col_w, pairs


def _member_supports(pairs, j: int, s: int, n: int) -> _Member:
    """Supports of member j (code magnitude j + 1), whose row and column
    weights are all s."""
    cols, vals = pairs
    mask = np.abs(vals) == j + 1
    mcols = cols[mask].reshape(n, s)
    positive = vals[mask] > 0
    by_col = np.argsort(mcols.ravel(), kind="stable")
    partners = 2 * (by_col // max(s, 1)) + positive[by_col]
    negative = (~positive).astype(np.int64).reshape(n, s)
    return _Member(mcols, negative, partners.reshape(n, s))


def _support_mismatch(
    products: Sequence[tuple[_Member, _Member]], n: int, diag: int
) -> tuple[int, int] | None:
    """First cell, in row-major order, where sum_(a,b) A_a A_b^T differs from
    diag * I.

    Precondition: the sum is symmetric, as A_j A_j^T and A_i A_j^T +
    A_j A_i^T are.  Then a violation at (r, c) with c < r has its mirror
    (c, r) earlier in row-major order, so the first one lies on or above
    the diagonal, and only terms with partner row c >= r are counted.

    Row r of A_a A_b^T is the sum, over the s_a columns t of row r's
    support, of A_a[r, t] times column t of A_b, which has s_b nonzeros: so a
    row costs s_a * s_b partner terms, not n.  Terms are encoded as
    2 * (local row * n + partner row) + (sign > 0), sorted, and counted per
    cell.
    """
    per_row = sum(a.cols.shape[1] * b.partners.shape[1] for a, b in products)
    if per_row == 0:
        return None
    step = max(1, _BLOCK_TERMS // per_row)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        local = np.arange(r1 - r0, dtype=np.int64)[:, None, None]
        parts = []
        for a, b in products:
            # the sign bit of A_b[p, t] flips where A_a[r, t] is negative
            enc = b.partners[a.cols[r0:r1]]
            enc ^= a.negative[r0:r1, :, None]
            enc += 2 * n * local
            parts.append(enc[enc >= 2 * ((n + 1) * local + r0)])  # p >= r
        enc = np.concatenate(parts)
        if not enc.size:  # no term on or above the diagonal
            continue
        enc.sort()
        key = enc >> 1
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        positives = np.add.reduceat(enc & 1, starts)
        sizes = np.diff(np.append(starts, enc.size))
        sums = 2 * positives - sizes
        cells = key[starts]
        if diag:
            # every row has diag nonzeros, so every diagonal cell has terms
            local, col = np.divmod(cells, n)
            sums[col == local + r0] -= diag
        bad = np.flatnonzero(sums)
        if bad.size:
            local, col = divmod(int(cells[bad[0]]), n)
            return r0 + local, col
    return None


def _dense_mismatch(
    codes: np.ndarray, magnitudes: Sequence[int], diag: int
) -> tuple[int, int] | None:
    """First cell, in row-major order, where M M^T differs from diag * I, M
    the sum of the members of ``codes`` with the given code magnitudes.

    M is copied once into float64, and its product with M^T is taken
    ``_SCAN_CELLS // n`` rows at a time.  Every partial sum is an integer of
    magnitude at most n, far below 2**53, so the float64 BLAS product is
    exact.
    """
    n = codes.shape[0]
    step = max(1, _SCAN_CELLS // n)
    m = np.zeros((n, n))
    for r0 in range(0, n, step):
        block = codes[r0 : r0 + step]
        mag = np.abs(block)
        keep = reduce(np.logical_or, (mag == v for v in magnitudes))
        np.copyto(m[r0 : r0 + step], np.sign(block), where=keep)
    local = np.arange(step)
    for r0 in range(0, n, step):
        prod = m[r0 : r0 + step] @ m.T
        rows = local[: prod.shape[0]]
        prod[rows, rows + r0] -= diag
        off = prod != 0
        if off.any():
            row, col = divmod(int(off.argmax()), n)
            return r0 + row, col
    return None


def _divisors(q: int) -> list[int]:
    """The divisors d > 1 of q, largest first."""
    low = [d for d in range(1, math.isqrt(q) + 1) if q % d == 0]
    return sorted({d for e in low for d in (e, q // e)} - {1}, reverse=True)


def _turns(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """For probe rows shaped (h, h, outer, level, stride), one row per block:
    an (h, h) bool array marking the blocks whose ``new`` row is the ``old``
    one turned right by one place of the level's digit (axis 3)."""
    return (new[..., 1:, :] == old[..., :-1, :]).all(axis=(2, 3, 4)) & (
        new[..., 0, :] == old[..., -1, :]
    ).all(axis=(2, 3))


def _is_turned(new: np.ndarray, old: np.ndarray) -> bool:
    """Whether ``new`` is ``old`` turned right by one place along axis -2."""
    return bool((new[..., 1:, :] == old[..., :-1, :]).all()) and bool(
        (new[..., :1, :] == old[..., -1:, :]).all()
    )


def _rows_turned(
    codes: np.ndarray, h: int, q: int, level: int, stride: int, back: np.ndarray
) -> bool:
    """Whether, in every block, each row whose last nonzero digit is the
    digit of this level (place value ``stride``) is the row one lower in
    that digit turned by one place of it: right in a developed block, left
    in a back-developed one (``back``).  Rows are compared on views of the
    block row, ``_COMPARE_ROWS`` rows and one run of block columns of one
    type at a time, and the first block of rows that differs ends the
    check."""
    outer = q // (level * stride)
    step_p = max(1, _COMPARE_ROWS // (level - 1))
    step_d = min(level - 1, _COMPARE_ROWS)
    for i, types in enumerate(back.tolist()):
        # rows (p, d, 0) of block row i: digit d at this level, the later digits 0
        strip = codes[i * q : (i + 1) * q]
        rows = strip.reshape(outer, level, stride, h, outer, level, stride)[:, :, 0]
        cuts = [0, *(j for j in range(1, h) if types[j] != types[j - 1]), h]
        for p in range(0, outer, step_p):
            for d in range(1, level, step_d):
                e = min(level, d + step_d)
                new, old = rows[p : p + step_p, d:e], rows[p : p + step_p, d - 1 : e - 1]
                for j0, j1 in zip(cuts, cuts[1:]):
                    a, b = new[:, :, j0:j1], old[:, :, j0:j1]
                    if not (_is_turned(b, a) if types[j0] else _is_turned(a, b)):
                        return False
    return True


def _splits(probe, q: int, stride: int, developed: np.ndarray, back: np.ndarray):
    """The splits of q // stride into levels above place value ``stride``
    whose probes pass: their (level, stride) steps, most significant first,
    and the blocks still developed.  ``probe(level, stride)`` gives the
    (developed, back-developed) blocks of one level from its probe rows."""
    if stride == q:
        yield (), developed
        return
    for level in _divisors(q // stride):
        right, left = probe(level, stride)
        right, left = developed & right, back & left
        if (right | left).all():
            for steps, types in _splits(probe, q, stride * level, right, left):
                yield steps + ((level, stride),), types


def _block_types(codes: np.ndarray, h: int, q: int) -> tuple[tuple[int, ...], np.ndarray] | None:
    """For ``codes`` read as an h x h grid of q x q blocks: the levels
    (q_1, ..., q_r) of a group G = Z_q1 x ... x Z_qr of order q over which
    every block is developed or back-developed, and an (h, h) bool array
    marking the back-developed blocks; else None.

    Place t of a block is the element of G whose digits, q_r last, write t
    in mixed radix (row-major), and e_i is the element with digit i one and
    the others zero.  A block developed over G has B[g, x] = u(x - g), so
    row g + e_i is row g turned right by one place of digit i; a
    back-developed one has B[g, x] = w(g + x) and turns left.  A block that
    is both is constant and counts as developed.  Z_q is the one-level
    split (q,).

    Splits are built from the last level up, each level's order a divisor
    of what is left, largest first, so a block circulant over Z_q is tried
    as such first.  Rows 0 and e_i of every block must show one type for
    every level (``_turns``), which rejects most candidates from 2 * h
    rows.  A split that passes has its other rows read one level at a time
    (``_rows_turned``); a level is read at most once for one set of types,
    however many splits share it, and most wrong splits stop at their first
    rows.
    """
    tops = codes[::q]
    probes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    read: dict[tuple[int, int, bytes], bool] = {}

    def probe(level: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
        if (level, stride) not in probes:
            shape = (h, h, q // (level * stride), level, stride)
            top, row = tops.reshape(shape), codes[stride::q].reshape(shape)
            probes[level, stride] = _turns(row, top), _turns(top, row)
        return probes[level, stride]

    def turned(level: int, stride: int, back: np.ndarray) -> bool:
        key = (level, stride, back.tobytes())
        if key not in read:
            read[key] = _rows_turned(codes, h, q, level, stride, back)
        return read[key]

    everywhere = np.ones((h, h), dtype=bool)
    for steps, developed in _splits(probe, q, 1, everywhere, everywhere):
        if all(turned(level, stride, ~developed) for level, stride in steps):
            return tuple(level for level, _ in steps), ~developed
    return None


def _differences(levels: Sequence[int]) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Digit-wise differences in G = Z_q1 x ... x Z_qr without carries.

    Place t is spread to ``spread[t]``, whose digit i has room for 2 * q_i
    values, so for places x and y, v = spread[x] - spread[y] + offset (every
    digit of offset is q_i) lies in [0, 2**r * q); ``right[v]`` is the place
    of x - y and ``left[v]`` that of y - x."""
    spread = np.zeros(1, dtype=np.int64)
    right = np.zeros(1, dtype=np.int64)
    negated = np.zeros(1, dtype=np.int64)
    offset = 0
    for level in levels:
        digits = np.arange(level)
        spread = (spread[:, None] * (2 * level) + digits).ravel()
        right = (right[:, None] * level + np.arange(2 * level) % level).ravel()
        negated = (negated[:, None] * level + -digits % level).ravel()
        offset = offset * 2 * level + level
    return spread, offset, right, negated[right]


def _block_circulant_proof(codes: np.ndarray, weights: Sequence[int]) -> bool:
    """True when the members of ``codes`` are proven to form an
    orthogonal-design family of the given weights from the first rows of
    their blocks; False when that is not proven, and the kernels decide.

    With n = h * q, h the 2-part of n and q >= 3 odd, the proof applies when
    every q x q block of the h x h grid is developed over Z_q1 x ... x Z_qr
    or back-developed over it, one group G of order q for the whole grid
    (``_block_types``), as in the 2-, 4- and 8-block arrays of circulant
    weighing blocks and of their Kronecker products.  Then each member has
    s nonzeros in every row and column exactly when its row 0 of every
    block has s in each block row and each block column, and each block of
    a Gram matrix or pair sum is circ(u) + back(w) over G, summed from the
    first rows only.  A nonzero at place x of row 0 of block (i, j) of A_a
    and one at place y of row 0 of block (k, j) of A_b add the product of
    their signs to place x - y of block (i, k) of A_a A_b^T, in its
    developed part when both blocks have one type and its back-developed
    part when not; y - x instead when block (k, j) is back-developed.
    Because |G| is odd, (g, g') -> (g' - g, g' + g) is a bijection, so
    circ(u) + back(w) = circ(t) exactly when w is constant and
    u + w[0] = t; the target t is s * e_0 on the diagonal blocks of a Gram
    matrix and 0 everywhere else.

    Every product A_a A_b^T is counted at once: the nonzeros of all
    members, listed by block column (each block column holds
    S = s_1 + ... + s_l of them), meet every nonzero of their block column,
    h * S**2 terms in all, and one bincount per chunk of block rows, weighted
    by the terms' signs (float64, exact below 2**53), puts each term in its
    cell (part, a, b, block (i, k), place).  A pair
    sum is then cells (a, b) plus cells (b, a), and a Gram matrix is half
    of cells (a, a) doubled.  Terms are taken at most ``_BLOCK_TERMS`` at a
    time, and block rows so that a count holds about that many cells.
    """
    n = codes.shape[0]
    h = n & -n
    q = n // h
    if q < 3:
        return False
    found = _block_types(codes, h, q)
    if found is None:
        return False
    levels, back = found
    l = len(weights)
    first = codes[::q].reshape(h, h, q)  # row 0 of block (i, j)
    i, j, x = np.nonzero(first)
    code = first[i, j, x]
    member = np.abs(code.astype(np.int64)) - 1
    if member.size and member.max() >= l:
        return False
    want = np.repeat(np.asarray(weights, dtype=np.int64), h)
    for block in (i, j):  # a block's rows and columns all hold its row 0's nonzeros
        if (np.bincount(member * h + block, minlength=l * h) != want).any():
            return False
    s = int(want.sum()) // h
    if s == 0:  # no nonzeros: the zero matrix, W(n, 0)
        return True
    by_col = np.argsort(j, kind="stable").reshape(h, s)  # block rows ascending
    spread, offset, right, left = _differences(levels)
    # index of the place table: (type_a * 2 + type_b) * size + v
    typ = back[i, j] * right.size
    a_cell = (spread[x] + 2 * typ)[by_col]
    b_cell = (offset - spread[x] + typ)[by_col]
    sign = np.where(code < 0, -1.0, 1.0)[by_col]
    member, i = member[by_col], i[by_col]
    col_step = max(1, _BLOCK_TERMS // (s * s))
    a_step = max(1, min(s, _BLOCK_TERMS // s))
    rows = max(1, _BLOCK_TERMS // (l * l * 2 * n))
    target = 2 * np.asarray(weights)  # cells (a, a) hold the Gram matrix twice
    for i0 in range(0, h, rows):
        i1 = min(h, i0 + rows)
        # cell of a term: part * half + (((a * l + b) * (i1 - i0) + i - i0) * h + k) * q + place
        half = l * l * (i1 - i0) * n
        table = np.concatenate((right, left + half, right + half, left))
        a_key = (member * (l * (i1 - i0)) + i - i0) * n
        b_key = (member * (i1 - i0) * h + i) * q
        mine = (i >= i0) & (i < i1)

        def count(c0: int, a0: int) -> np.ndarray:
            cols, a = slice(c0, c0 + col_step), slice(a0, a0 + a_step)
            key = table.take(a_cell[cols, a, None] + b_cell[cols, None])
            key += a_key[cols, a, None] + b_key[cols, None]
            signs = sign[cols, a, None] * sign[cols, None]
            if i1 - i0 < h:  # terms of this chunk's block rows only
                keep = np.broadcast_to(mine[cols, a, None], key.shape)
                key, signs = key[keep], signs[keep]
            return np.bincount(key.ravel(), signs.ravel(), minlength=2 * half)

        pieces = (count(c0, a0) for c0 in range(0, h, col_step) for a0 in range(0, s, a_step))
        sums = reduce(np.add, pieces)
        sums = sums.reshape(2, l, l, half // (l * l))
        sums = sums + sums.transpose(0, 2, 1, 3)
        u, w = sums[0].ravel(), sums[1].ravel()
        changes = w[1:] != w[:-1]
        changes[q - 1 :: q] = False  # w may change from one block to the next
        if changes.any():
            return False
        u += w  # w is constant on each block: u + w[0]
        diagonal, r = np.arange(l)[:, None], np.arange(i1 - i0)
        u.reshape(l, l, i1 - i0, h, q)[diagonal, diagonal, r, r + i0, 0] -= target[:, None]
        if u.any():
            return False
    return True


# Families of at most this many support-kernel terms, n * (s_1 + ... + s_l)**2,
# go to the support kernel alone, without the block-circulant pass.  With
# every product in one count, the pass costs a fixed number of numpy calls per
# level and block row, about 0.1-0.3 ms on small orders, and on the block
# arrays it wins from a few hundred terms.  Timed against the kernels (2-core
# x86-64, numpy 2.4.6, OpenBLAS 0.3.31, best of 7 x 50 calls in a warm
# process): OD(84; 1, 1, 1, 4), 4,116 terms, 0.26 against 0.58 ms;
# OD(168; 1, 1, 1, 1, 4), 10,752 terms, 0.55-0.76 against 0.95-1.18 ms;
# OD(182; 4, 9), 30,758 terms, 0.22 against 0.79 ms.  But its structure check
# and its count grow with the number h of block rows, and the low-weight
# families below the bound are the ones with many: W(24, 1) = I_24 (h = 8)
# takes 0.23 against 0.07 ms, and I_768 (h = 256) 12.5-12.9 against
# 0.37-0.39 ms.  So the bound stays where the support kernel never loses by
# much.
_PASS_MIN_TERMS = 1 << 14


def _family_report(codes: np.ndarray, weights: Sequence[int], label: str) -> CheckReport:
    """Exact check that the members A_j of ``codes`` (code magnitude j) form
    an orthogonal-design family of the given weights, by the pass and the
    kernels of the module docstring.

    Conditions, in order of first violation: for each j in turn, row weights,
    column weights and A_j A_j^T = s_j I; then, for each pair i < j in turn,
    A_i A_j^T + A_j A_i^T = 0.  ``label.format(j)`` prefixes member j's
    conditions.
    """
    n = codes.shape[0]
    l = len(weights)
    small = n * sum(weights) ** 2 <= _PASS_MIN_TERMS
    if not small and _block_circulant_proof(codes, weights):
        return CheckReport(True)
    plan = {
        (i, j): small or _support_is_cheaper(n, (1 if i == j else 2) * weights[i] * weights[j])
        for i in range(l)
        for j in range(i, l)
    }
    row_w, col_w, pairs = _scan_codes(codes, l, keep=any(plan.values()))
    members: dict[int, _Member] = {}

    def member(j: int) -> _Member:
        if j not in members:
            members[j] = _member_supports(pairs, j, weights[j], n)
        return members[j]

    for j, s in enumerate(weights):
        prefix = label.format(j + 1)
        for name, counts in (("row", row_w[j]), ("column", col_w[j])):
            off = np.flatnonzero(counts != s)
            if off.size:
                return CheckReport(False, f"{prefix}{name} weight != {s}", (int(off[0]),))
        if plan[j, j]:
            spot = _support_mismatch([(member(j), member(j))], n, s)
        else:
            spot = _dense_mismatch(codes, (j + 1,), s)
        if spot is not None:
            return CheckReport(False, f"{prefix}rows not orthogonal with weight k", spot)
    for i in range(l):
        for j in range(i + 1, l):
            if plan[i, j]:
                a, b = member(i), member(j)
                spot = _support_mismatch([(a, b), (b, a)], n, 0)
            else:
                spot = _dense_mismatch(codes, (i + 1, j + 1), weights[i] + weights[j])
            if spot is not None:
                return CheckReport(
                    False, f"variables {i + 1},{j + 1} not anti-amicable", spot
                )
    return CheckReport(True)


def verify_weighing(w: IntMatrix, k: int) -> CheckReport:
    """Check that ``w`` is a weighing matrix of weight ``k``.

    Conditions, reported in order of first violation: square shape, entries in
    {0,+1,-1}, exactly k nonzeros in every row and every column, and
    W * W^T = k * I computed exactly, by the family check of the module
    docstring with one member.
    """
    if not isinstance(w, IntMatrix):
        raise MatrixError("verify_weighing needs an integer matrix")
    if not _is_int(k) or k < 0:
        raise MatrixError("weight must be a nonnegative integer")
    if not w.is_square:
        return CheckReport(False, "not square", (w.rows, w.cols))
    arr = w.entries
    if arr.size and (arr.min() < -1 or arr.max() > 1):
        # min and max need no n x n temporaries; the mask only finds the cell
        r, c = np.argwhere((arr < -1) | (arr > 1))[0]
        return CheckReport(False, "entry outside {0,+1,-1}", (int(r), int(c)))
    return _family_report(arr, (k,), "")


def decompose_family(x: SignedVarMatrix) -> list[IntMatrix]:
    """Coefficient matrices A_1..A_l with x = sum_j x_j * A_j (disjoint by encoding)."""
    if not isinstance(x, SignedVarMatrix):
        raise MatrixError("decompose_family needs a symbolic matrix")
    out = []
    codes = x.codes
    sign = np.sign(codes).astype(np.int8)
    mag = np.abs(codes)
    for j in range(1, x.num_vars + 1):
        out.append(IntMatrix(np.where(mag == j, sign, np.int8(0))))
    return out


def verify_od(x: SignedVarMatrix, t: ODType) -> CheckReport:
    """Check that ``x`` is an orthogonal design of the claimed order and type.

    Uses the family characterization: X = sum_j x_j A_j is an orthogonal
    design of type (s_1..s_l) iff the A_j are pairwise disjoint weighing
    matrices of weights s_j satisfying A_i A_j^T = -(A_j A_i^T) for i != j.
    Disjointness holds by the encoding.

    Conditions, in order of first violation: order, variable count, then for
    each variable j in turn its row weights, column weights and
    A_j A_j^T = s_j I, then each pair i < j in turn, checked as the module
    docstring describes.
    """
    if not isinstance(x, SignedVarMatrix):
        raise MatrixError("verify_od needs a symbolic matrix")
    if x.order != t.order:
        return CheckReport(False, f"order {x.order} != claimed {t.order}", None)
    if x.num_vars != t.num_vars:
        return CheckReport(
            False, f"{x.num_vars} variables != claimed {t.num_vars}", None
        )
    return _family_report(x.codes, t.type_tuple, _VARIABLE_LABEL)


def _substitute_variables(
    x: SignedVarMatrix, mapping: Mapping[int, Union[int, Var]]
) -> Matrix:
    """The substitution of ``specialize_variables`` without its re-check, for
    callers that verify the result themselves."""
    if not isinstance(x, SignedVarMatrix):
        raise MatrixError("specialize_variables needs a symbolic matrix")
    l = x.num_vars
    if set(mapping.keys()) != set(range(1, l + 1)):
        raise MatrixError("mapping must be total on variables 1..num_vars")
    var_targets: list[int] = []
    has_const_sign = False
    for i in range(1, l + 1):
        tgt = mapping[i]
        if isinstance(tgt, Var):
            if not _is_int(tgt.index) or tgt.index < 1:
                raise MatrixError(f"bad variable target {tgt!r}")
            var_targets.append(tgt.index)
        elif _is_int(tgt):
            if tgt not in (-1, 0, 1):
                raise MatrixError(f"constant target must be one of -1, 0, +1, got {tgt}")
            if tgt != 0:
                has_const_sign = True
        else:
            raise MatrixError(f"target must be Var or one of -1,0,+1, got {tgt!r}")
    if var_targets and has_const_sign:
        raise MatrixError("cannot mix variable targets with +1/-1 constants")

    # Code +-i maps to +-(image of variable i); a constant target is its own
    # image, and a kept variable's image is its new number.  Code c sits at
    # c mod (2l + 1), so the codes index the table as they are, in any dtype.
    kept = sorted(set(var_targets))
    renumber = {old: new for new, old in enumerate(kept, start=1)}
    table = np.zeros(2 * l + 1, dtype=_code_dtype(len(kept)))
    for i in range(1, l + 1):
        tgt = mapping[i]
        img = renumber[tgt.index] if isinstance(tgt, Var) else int(tgt)
        table[i] = img
        table[-i] = -img
    # ``take`` first turns the codes into an 8-byte index array, so it runs
    # on row blocks of ``_SCAN_CELLS`` cells to keep that copy small.
    codes = x.codes
    out = np.empty(codes.shape, dtype=table.dtype)
    step = max(1, _SCAN_CELLS // codes.shape[0])
    for r in range(0, codes.shape[0], step):
        table.take(codes[r : r + step], mode="wrap", out=out[r : r + step])
    if kept:
        return SignedVarMatrix._adopt(out, len(kept))
    return IntMatrix._adopt(out)


def specialize_variables(
    x: SignedVarMatrix, mapping: Mapping[int, Union[int, Var]]
) -> Matrix:
    """Substitute each variable by another variable, 0, +1, or -1.

    The mapping must be total on x's variables.  Merging x_i -> x_j adds the
    weights of the two slots; sending x_i -> 0 deletes its slot.  Constant
    targets +1/-1 cannot be mixed with variable targets (the entry types do
    not admit mixed symbolic/numeric cells); an all-constant mapping yields an
    IntMatrix.  Surviving variables are renumbered 1..l' preserving their
    original order.  The result is re-verified; failure raises
    VerificationInternalError because the merge rules preserve the design
    property by construction.
    """
    out = _substitute_variables(x, mapping)
    if isinstance(out, SignedVarMatrix):
        first_row = np.abs(out.codes[0])
        weights = [int(np.count_nonzero(first_row == j)) for j in range(1, out.num_vars + 1)]
        rep = _family_report(out.codes, weights, _VARIABLE_LABEL)
    else:
        weight = int(np.abs(out.entries.astype(np.int64))[0].sum())
        rep = verify_weighing(out, weight)
    if not rep.ok:
        raise VerificationInternalError(
            f"specialized matrix failed re-verification: {rep.message()}"
        )
    return out

