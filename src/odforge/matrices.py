"""Exact matrix algebra over the integers and over formal signed variables,
and the exact verifiers built on it.

Two matrix kinds live here:

* ``IntMatrix`` holds exact integer entries backed by a numpy array.  Products
  go through a proven-safe fast path: float64 BLAS when every intermediate
  value is bounded below 2**53, int64 accumulation when bounded below 2**63,
  and arbitrary-precision Python integers otherwise.  Every path is exact;
  there is no silent overflow and no rounding.

* ``SignedVarMatrix`` holds entries drawn from {0, +x_1, -x_1, ..., +x_l, -x_l}
  for formal commuting variables x_j, encoded as signed integer codes: 0 for
  zero and ``+j`` / ``-j`` for ``+x_j`` / ``-x_j``.  A cell mentions at most
  one variable, so the matrix decomposes uniquely as X = sum_j x_j * A_j with
  pairwise disjoint integer coefficient matrices A_j.

Verification.  ``verify_weighing`` and ``verify_od`` (and the re-check inside
``specialize_variables``) use the family characterization: X is an OD of type
(s_1..s_l) exactly when each A_j is a W(n, s_j) and A_i A_j^T + A_j A_i^T = 0
for i != j.  One pass over the codes gives every variable's row and column
weights.  Once those hold, row r of A_i A_j^T is a sum of s_i * s_j signed
partner terms, so each Gram matrix and each pair sum can be checked exactly
from the row and column supports in O(n * s_i * s_j), in row blocks that keep
the temporaries bounded.  Near-dense members go to the dense BLAS product
instead (one product per pair); a fixed cost rule on n, s_i and s_j picks the
kernel per product.  Both kernels report the same first violation.

Indexing convention: storage is 0-based throughout.  Classical 1-based matrix
descriptions are converted here, in one place, as follows: a circulant has
C[i][j] = a[(j - i) mod n] (row i is the first row cyclically right-shifted by
i), a back-circulant has B[i][j] = d[(i + j) mod n], and the back-diagonal
permutation R has ones exactly where i + j = n - 1 (0-based), which is the
1-based condition i + j == 1 (mod n).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "identity",
    "kronecker",
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


class MatrixError(ValueError):
    """Malformed matrix input: bad shape, bad entries, or kind mismatch."""


class VerificationInternalError(RuntimeError):
    """An operation's own output failed re-verification; indicates a bug."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_exact_array(data) -> np.ndarray:
    """Return a 2-D exact-integer array (signed int dtype, or object for big values)."""
    if isinstance(data, np.ndarray):
        if data.ndim != 2:
            raise MatrixError(f"expected a 2-D array, got ndim={data.ndim}")
        if data.dtype in _SIGNED_INT_DTYPES:
            return data.copy()
        if data.dtype == object:
            arr = data.copy()
            for v in arr.flat:
                if not _is_int(v):
                    raise MatrixError(f"non-integer entry {v!r}")
            return arr
        if np.issubdtype(data.dtype, np.integer):
            # unsigned dtypes: route through object to avoid wrap-around
            return _as_exact_array([[int(v) for v in row] for row in data])
        raise MatrixError(f"matrix entries must be integers, got dtype {data.dtype}")
    rows = [list(r) for r in data]
    if not rows:
        raise MatrixError("matrix needs at least one row")
    width = len(rows[0])
    if width == 0:
        raise MatrixError("matrix needs at least one column")
    big = False
    for r in rows:
        if len(r) != width:
            raise MatrixError("ragged rows")
        for v in r:
            if not _is_int(v):
                raise MatrixError(f"non-integer entry {v!r}")
            if not (-_INT64_SAFE <= int(v) <= _INT64_SAFE):
                big = True
    if big:
        arr = np.empty((len(rows), width), dtype=object)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                arr[i, j] = int(v)
        return arr
    return np.array(rows, dtype=np.int64)


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max(abs(int(v)) for v in arr.flat)
    return int(np.max(np.abs(arr.astype(np.int64, copy=False))))


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product of two 2-D integer arrays.

    Chooses the cheapest representation whose intermediates provably cannot
    lose exactness: float64 (BLAS) while every partial sum stays below 2**53,
    int64 while below 2**63, Python integers beyond that.
    """
    bound = a.shape[1] * _max_abs(a) * _max_abs(b)
    if bound < _FLOAT_SAFE:
        prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        return prod.astype(np.int64)
    if bound < _INT64_SAFE and a.dtype != object and b.dtype != object:
        return a.astype(np.int64) @ b.astype(np.int64)
    return np.dot(a.astype(object), b.astype(object))


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

    def tolist(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.entries]

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
    magnitude must lie in [0, l].
    """

    __slots__ = ("codes", "num_vars")

    def __init__(self, codes, num_vars: int | None = None):
        self._own(_as_exact_array(codes), num_vars)

    @classmethod
    def _adopt(cls, grid: np.ndarray, num_vars: int) -> "SignedVarMatrix":
        """Wrap a square int64 code array the caller allocated and hands over,
        without the copy ``__init__`` makes; the array becomes read-only."""
        out = cls.__new__(cls)
        out._own(grid, num_vars)
        return out

    def _own(self, arr: np.ndarray, num_vars: int | None) -> None:
        if arr.dtype == object:
            raise MatrixError("variable codes must fit machine integers")
        if arr.shape[0] != arr.shape[1]:
            raise MatrixError("symbolic matrices must be square")
        top = max(int(arr.max()), -int(arr.min())) if arr.size else 0
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

    def tolist(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.codes]

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
    back_circulant: bool
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


def identity(n: int) -> IntMatrix:
    if not _is_int(n) or n < 1:
        raise MatrixError("identity order must be >= 1")
    return IntMatrix(np.eye(n, dtype=np.int64))


def _payload(m: Matrix) -> np.ndarray:
    return m.entries if isinstance(m, IntMatrix) else m.codes


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product of two integer matrices."""
    ea, eb = a.entries, b.entries
    if ea.dtype == object or eb.dtype == object or _max_abs(ea) * _max_abs(eb) > _INT64_SAFE:
        return IntMatrix(np.kron(ea.astype(object), eb.astype(object)))
    return IntMatrix(np.kron(ea.astype(np.int64), eb.astype(np.int64)))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not isinstance(a, IntMatrix) or not isinstance(b, IntMatrix):
        raise MatrixError("mat_mul is defined for integer matrices only")
    if a.cols != b.rows:
        raise MatrixError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return IntMatrix(_exact_matmul(a.entries, b.entries))


def transpose(m: Matrix) -> Matrix:
    if isinstance(m, SignedVarMatrix):
        return SignedVarMatrix(m.codes.T, m.num_vars)
    return IntMatrix(m.entries.T)


def circulant(first_row: Sequence[int]) -> IntMatrix:
    """Circulant matrix: row i is ``first_row`` cyclically right-shifted by i."""
    arr = _as_exact_array([list(first_row)])[0]
    n = arr.shape[0]
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return IntMatrix(arr[idx])


def _equal_by_rows(a: np.ndarray, b: np.ndarray, negate: bool = False) -> bool:
    """``np.array_equal(a, -b if negate else b)`` for arrays of one shape,
    compared 64 rows at a time and stopped at the first block that differs."""
    for r in range(0, a.shape[0], 64):
        rows = b[r : r + 64]
        if not np.array_equal(a[r : r + 64], -rows if negate else rows):
            return False
    return True


def structure_check(m: Matrix) -> StructureReport:
    """Exact shape predicates; works for numeric and symbolic matrices alike."""
    arr = _payload(m)
    if arr.shape[0] != arr.shape[1]:
        raise MatrixError("structure_check needs a square matrix")
    symmetric = _equal_by_rows(arr, arr.T)
    skew = _equal_by_rows(arr, arr.T, negate=True)
    if arr.dtype == object:
        zero_diag = all(int(v) == 0 for v in np.diagonal(arr))
    else:
        zero_diag = not bool(np.any(np.diagonal(arr)))
    # Circulant: each row is the one above shifted right by one, the last
    # entry wrapping to the front.  Back-circulant: shifted left, the first
    # entry wrapping to the back.
    circ = np.array_equal(arr[1:, 0], arr[:-1, -1]) and _equal_by_rows(
        arr[1:, 1:], arr[:-1, :-1]
    )
    bcirc = np.array_equal(arr[1:, -1], arr[:-1, 0]) and _equal_by_rows(
        arr[1:, :-1], arr[:-1, 1:]
    )
    return StructureReport(
        symmetric=symmetric,
        skew_symmetric=skew,
        circulant=circ,
        back_circulant=bcirc,
        zero_diagonal=zero_diag,
    )


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> tuple[int, int] | None:
    diff = a != b
    if not np.any(diff):
        return None
    r, c = np.argwhere(diff)[0]
    return int(r), int(c)


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
# (numpy 2.4, OpenBLAS, two threads) with valid W(n, s) inputs: 20-25 ns per
# term against 50-75 ps per multiply-add at n >= 1024 (ratio 300-400) and
# about 150 ps at n = 512 (ratio about 150).  A Gram check then goes to the
# support kernel while s / n < 1/16.
_TERM_COST = 256


# Prefix of a design member's conditions, formatted with its 1-based index.
_VARIABLE_LABEL = "variable {}: "


def _support_is_cheaper(n: int, terms_per_row: int) -> bool:
    """Cost rule: the support kernel does n * terms_per_row partner terms,
    the dense path n**3 multiply-adds."""
    return terms_per_row * _TERM_COST < n * n


class _Member(NamedTuple):
    """Row and column supports of one {0,+1,-1} member with s nonzeros in
    every row and every column: row r has ``signs[r, a]`` at column
    ``cols[r, a]``; column t has ``col_signs[t, b]`` at row ``rows[t, b]``."""

    cols: np.ndarray
    signs: np.ndarray
    rows: np.ndarray
    col_signs: np.ndarray


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
    signs = np.sign(vals[mask]).reshape(n, s)
    by_col = np.argsort(mcols.ravel(), kind="stable")
    rows = (by_col // max(s, 1)).reshape(n, s)
    col_signs = signs.ravel()[by_col].reshape(n, s)
    return _Member(mcols, signs, rows, col_signs)


def _support_mismatch(
    products: Sequence[tuple[_Member, _Member]], n: int, diag: int
) -> tuple[int, int] | None:
    """First cell, in row-major order, where sum_(a,b) A_a A_b^T differs from
    diag * I.

    Row r of A_a A_b^T is the sum, over the s_a columns t of row r's
    support, of A_a[r, t] times column t of A_b, which has s_b nonzeros: so a
    row costs s_a * s_b partner terms, not n.  Terms are encoded as
    2 * (local row * n + column) + (sign > 0), sorted, and counted per cell.
    """
    per_row = sum(a.cols.shape[1] * b.rows.shape[1] for a, b in products)
    if per_row == 0:
        return None
    step = max(1, _BLOCK_TERMS // per_row)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        base = np.arange(r1 - r0, dtype=np.int64)[:, None, None] * n
        parts = []
        for a, b in products:
            t = a.cols[r0:r1]
            positive = a.signs[r0:r1, :, None] * b.col_signs[t] > 0
            parts.append((2 * (base + b.rows[t]) + positive).ravel())
        enc = np.concatenate(parts)
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


def _family_report(
    codes: np.ndarray,
    weights: Sequence[int],
    label: str,
    use_support=_support_is_cheaper,
) -> CheckReport:
    """Exact check that the members A_j of ``codes`` (code magnitude j) form
    an orthogonal-design family of the given weights.

    Conditions, in order of first violation: for each j in turn, row weights,
    column weights and A_j A_j^T = s_j I; then, for each pair i < j in turn,
    A_i A_j^T + A_j A_i^T = 0.  ``label.format(j)`` prefixes member j's
    conditions.

    Each product is computed by whichever kernel ``use_support(n,
    terms_per_row)`` picks: the support kernel, O(n * s_i * s_j), or the dense
    BLAS product through ``_exact_matmul``, O(n**3).  Both are exact and
    report the same first violation.
    """
    n = codes.shape[0]
    l = len(weights)
    plan = {
        (i, j): use_support(n, (1 if i == j else 2) * weights[i] * weights[j])
        for i in range(l)
        for j in range(i, l)
    }
    row_w, col_w, pairs = _scan_codes(codes, l, keep=any(plan.values()))
    members: dict[int, _Member] = {}
    dense: dict[int, np.ndarray] = {}

    def member(j: int) -> _Member:
        if j not in members:
            members[j] = _member_supports(pairs, j, weights[j], n)
        return members[j]

    def dense_member(j: int) -> np.ndarray:
        if l == 1:
            return codes
        if j not in dense:
            hit = np.abs(codes) == j + 1
            dense[j] = np.where(hit, np.sign(codes), 0).astype(np.int8)
        return dense[j]

    for j, s in enumerate(weights):
        prefix = label.format(j + 1)
        for name, counts in (("row", row_w[j]), ("column", col_w[j])):
            off = np.flatnonzero(counts != s)
            if off.size:
                return CheckReport(False, f"{prefix}{name} weight != {s}", (int(off[0]),))
        if plan[j, j]:
            spot = _support_mismatch([(member(j), member(j))], n, s)
        else:
            a = dense_member(j)
            spot = _first_mismatch(_exact_matmul(a, a.T), s * np.eye(n, dtype=np.int64))
        if spot is not None:
            return CheckReport(False, f"{prefix}rows not orthogonal with weight k", spot)
    for i in range(l):
        for j in range(i + 1, l):
            if plan[i, j]:
                a, b = member(i), member(j)
                spot = _support_mismatch([(a, b), (b, a)], n, 0)
            else:
                # A_j A_i^T = (A_i A_j^T)^T: one product per pair
                left = _exact_matmul(dense_member(i), dense_member(j).T)
                spot = _first_mismatch(left, -left.T)
            if spot is not None:
                return CheckReport(
                    False, f"variables {i + 1},{j + 1} not anti-amicable", spot
                )
    return CheckReport(True)


def verify_weighing(w: IntMatrix, k: int) -> CheckReport:
    """Check that ``w`` is a weighing matrix of weight ``k``.

    Conditions, reported in order of first violation: square shape, entries in
    {0,+1,-1}, exactly k nonzeros in every row and every column, and
    W * W^T = k * I computed exactly.

    The product is checked by the support kernel, from the k nonzeros of each
    row and column in O(n * k**2), when that costs less than the dense BLAS
    product's n**3 by the fixed rule ``_support_is_cheaper``; otherwise by the
    dense product through ``_exact_matmul``.
    """
    if not isinstance(w, IntMatrix):
        raise MatrixError("verify_weighing needs an integer matrix")
    if not _is_int(k) or k < 0:
        raise MatrixError("weight must be a nonnegative integer")
    if not w.is_square:
        return CheckReport(False, "not square", (w.rows, w.cols))
    arr = w.entries
    if arr.dtype == object:
        for (i, j), v in np.ndenumerate(arr):
            if not -1 <= int(v) <= 1:
                return CheckReport(False, "entry outside {0,+1,-1}", (int(i), int(j)))
        arr = arr.astype(np.int64)
    else:
        outside = (arr < -1) | (arr > 1)
        if outside.any():
            r, c = np.argwhere(outside)[0]
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
    A_j A_j^T = s_j I, then each pair i < j in turn.  Each Gram matrix and
    each pair sum A_i A_j^T + A_j A_i^T is computed by one of two exact
    kernels: the support kernel, from the s_i nonzeros of each row of A_i and
    the s_j of each column of A_j in O(n * s_i * s_j), or the dense BLAS
    product through ``_exact_matmul`` in O(n**3), one product per pair.  The
    fixed rule ``_support_is_cheaper`` picks, per product, whichever costs
    less for n, s_i and s_j.
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
    # image, and a kept variable's image is its new number.
    kept = sorted(set(var_targets))
    renumber = {old: new for new, old in enumerate(kept, start=1)}
    table = np.zeros(2 * l + 1, dtype=np.int64)
    for i in range(1, l + 1):
        tgt = mapping[i]
        img = renumber[tgt.index] if isinstance(tgt, Var) else int(tgt)
        table[l + i] = img
        table[l - i] = -img
    if kept:
        return SignedVarMatrix._adopt(table[x.codes + l], len(kept))
    return IntMatrix._adopt(table[x.codes + l])


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

