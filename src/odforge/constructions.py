"""Constructive generators for weighing matrices and orthogonal designs.

Every public constructor returns a :class:`Witness` and a replayable
:class:`Trace` recording how it was built.  A matrix built from scratch
leaves through one exit, ``_witness``, which runs the exact verifier of
:mod:`odforge.matrices` and the shape check once.  Its ingredients are not
witnesses: the circulant levels of the block arrays and of
``symmetric_w_square_odd`` are int8 arrays built from cached first rows, and
only the matrix assembled from them is verified.  The derived steps
(variables merged or set to 1, E^T S from a (1, k) design, a fresh identity
variable, a weighing matrix read as a design, a circulant spread) act
entrywise on a verified witness and keep its identity exactly, so they
derive their claim from their input's and run no verifier; they check what
they assume.  A composed witness (a direct sum: a coprime combination,
copies of a weight-1 block, finished seeds past a threshold) holds verified
blocks instead, and its matrix passes ``_witness`` when it is first read.
``small_od_provider`` tries several methods, each built and verified or
merged from a verified design, and records rejected attempts in the trace
notes instead of hiding them; when every method fails it raises
:class:`UnsupportedParameterError` listing the strategies tried.

Nothing searches at run time.  Circulant blocks come from a closed form, or
from six first rows pinned as data; power-of-two designs come from the
package's own catalog (package data, read from nowhere else) and from
constructions.  ``scripts/build_catalog.py`` holds the offline searches that
found the pinned rows and the catalog's order-16 entry.  So whether a matrix
is built, and which one, depends on its parameters alone.

Size conventions used throughout:

* ``P = [[0,1],[1,0]]`` (symmetric swap), ``Q = [[1,0],[0,-1]]`` (sign flip),
  ``K = P @ Q = [[0,-1],[1,0]]`` (skew rotation) are the 2x2 building blocks.
* A circulant block of weight q**2 has order q**2 + q + 1; multiplying it on
  the right by the back-diagonal reflection makes it back-circulant and hence
  symmetric without changing the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache, reduce
from importlib.resources import files
from typing import Iterable, Sequence, Union

import numpy as np

from .arith import (
    frobenius_representation,
    is_prime_power,
    lcm_set,
    prime_power_square_factorize,
)
from .gf import binary_quadric_sign, quadratic_character, singer_zero_set
from .matrices import (
    IntMatrix,
    ODType,
    SignedVarMatrix,
    StructureReport,
    Var,
    VerificationInternalError,
    WeighingType,
    _code_dtype,
    _equal_by_rows,
    _payload,
    _substitute_variables,
    circulant,
    mat_mul,
    structure_check,
    transpose,
    verify_od,
    verify_weighing,
)

__all__ = [
    "ConstructionError",
    "UnsupportedParameterError",
    "Trace",
    "Witness",
    "replay",
    "circulant_cw",
    "spread_circulant",
    "symmetric_od_pow2",
    "CatalogEntry",
    "load_catalog",
    "small_od_provider",
    "skew_four_exponents",
    "skew_od_pow2_four",
    "add_identity_variable",
    "combine_coprime",
    "combine_finished_seeds",
    "SeedRecipe",
    "symmetric_w_square_odd",
    "two_square_od",
    "goethals_seidel_od",
    "eight_block_od",
    "block_array_od",
    "rational_family_seed",
    "od_from_weighing",
    "collapse_od_to_weighing",
    "merge_od_variables",
    "skew_weighing_from_unit_slot",
    "identity_weighing",
    "skew_pairs_weighing",
    "minimal_pow2_exponent",
    "odd_block_orders",
]

_P = np.array([[0, 1], [1, 0]], dtype=np.int8)
_Q = np.array([[1, 0], [0, -1]], dtype=np.int8)
_K = _P @ _Q  # [[0, -1], [1, 0]]


class ConstructionError(ValueError):
    """A constructor was called with arguments outside its contract."""


class UnsupportedParameterError(ConstructionError):
    """Every strategy for the requested parameters failed.

    ``strategies`` lists, in order, each strategy tried and why it was
    rejected, so callers can report the full story.
    """

    def __init__(self, message: str, strategies: Sequence[str] = ()):
        super().__init__(message)
        self.strategies = tuple(strategies)


# ---------------------------------------------------------------------------
# Witness plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """Replayable construction recipe: operation, parameters, sub-recipes."""

    op: str
    params: tuple[tuple[str, object], ...] = ()
    notes: tuple[str, ...] = ()
    subs: tuple["Trace", ...] = ()

    def param(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        lines = [f"{pad}{self.op}({args})"]
        for note in self.notes:
            lines.append(f"{pad}  note: {note}")
        for sub in self.subs:
            lines.append(sub.render(indent + 1))
        return "\n".join(lines)


def _trace(op: str, notes: Iterable[str] = (), subs: Iterable[Trace] = (), **params) -> Trace:
    return Trace(
        op=op,
        params=tuple(params.items()),
        notes=tuple(notes),
        subs=tuple(subs),
    )


@dataclass(frozen=True, eq=False)
class Witness:
    """A verified or exactly derived matrix, its claim, shape report and recipe.

    A composed witness (see ``_composed``) is a direct sum of verified
    blocks.  It holds ``blocks``, its (multiplicity, block witness)
    pairs, in place of a matrix, and builds and verifies its matrix when
    ``matrix`` is first read.  Witnesses compare by identity, since that
    read fills in a field.
    """

    _matrix: Union[IntMatrix, SignedVarMatrix, None]
    claim: Union[WeighingType, ODType]
    structure: StructureReport
    trace: Trace
    blocks: tuple[tuple[int, "Witness"], ...] = ()

    @property
    def matrix(self) -> Union[IntMatrix, SignedVarMatrix]:
        if self._matrix is None:
            object.__setattr__(self, "_matrix", _materialize(self))
        return self._matrix

    @property
    def order(self) -> int:
        return self.claim.order

    @property
    def is_od(self) -> bool:
        return isinstance(self.claim, ODType)


def _witness(
    matrix: Union[IntMatrix, SignedVarMatrix],
    claim: Union[WeighingType, ODType],
    trace: Trace,
    shape: str | None = None,
) -> Witness:
    """The one exit of every matrix built from scratch: verify ``matrix``
    against ``claim``, its order included (``verify_weighing`` for a weighing
    claim, ``verify_od`` for a design), check its shape once, and require the
    ``StructureReport`` field named by ``shape`` when the builder promises one.
    What a builder assembles the matrix from (a block array's circulant
    levels) passes no check of its own: the matrix is the one verified."""
    if isinstance(claim, WeighingType):
        rep = verify_weighing(matrix, claim.weight)
        failed = "constructed matrix failed weighing verification"
    else:
        rep = verify_od(matrix, claim)
        failed = "constructed design failed verification"
    if not rep.ok:
        raise VerificationInternalError(f"{failed}: {rep.message()}")
    if matrix.rows != claim.order:
        raise VerificationInternalError(f"{trace.op} built order {matrix.rows}, not {claim.order}")
    structure = structure_check(matrix)
    if shape is not None and not getattr(structure, shape):
        raise VerificationInternalError(f"{trace.op} built a matrix that is not {shape}")
    return Witness(matrix, claim, structure, trace)


def _design(w: Witness, who: str) -> tuple[SignedVarMatrix, ODType]:
    """A design witness's matrix and claim; ``who`` names the caller in the
    error raised for a weighing-matrix witness."""
    if not w.is_od:
        raise ConstructionError(f"{who} expects a design witness")
    return w.matrix, w.claim


# ---------------------------------------------------------------------------
# Circulant weighing matrices of square weight
# ---------------------------------------------------------------------------


# First rows that the multiplier-orbit sign search of scripts/build_catalog.py
# found ("+" = 1, "-" = -1).  They differ from the closed form below (negated
# for q = 2, 3, 7, 8; unrelated for q = 5, 9), and every block array built on
# them is pinned byte for byte, so they stay as data.  Each keeps the trace
# notes it was recorded with: for odd q the verifier had first rejected the
# signs chi_q(Tr x) alone, at the row pair (0, column) given here.
_PINNED_ROWS = {
    2: ("+00-0--", None),
    3: ("00+0+++--0+-+", 3),
    5: ("+--00-+0-----0-0+++-0-++--+-+-+", 1),
    7: ("+-+++0--+-----+++0-0-++--+--++0+++-0-+00++-+-0+-+-++++-++", 1),
    8: ("+--+--+--0-+++-+--0+-++++-+--+++----0-+--0+++-+++--++----0+-+-+--0---0-00", None),
    9: (
        "0+++--+0++++----+-+0-0+-+--+--++-++-----------+++-+--++--00+-+-0+-+0+--++---+---0++0--+-+-+",
        2,
    ),
}
_SIGN_VALUES = {"+": 1, "-": -1, "0": 0}


def _pinned_row(q: int) -> tuple[list[int], tuple[str, ...]]:
    text, rejected_at = _PINNED_ROWS[q]
    notes = ("signs: multiplier-orbit search, lexicographically first",)
    if rejected_at is not None:
        notes = (
            "quadratic-character signs rejected by verifier: rows not orthogonal "
            f"with weight k at (0, {rejected_at})",
        ) + notes
    return [_SIGN_VALUES[c] for c in text], notes


def _closed_form_row(q: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Signs on the points x = g**i of GF(q**3)/GF(q)*, zeros where Tr x = 0.

    Odd q: chi_q(Tr x) * (-1)**i, where (-1)**i is the quadratic character
    of GF(q**3) at x.  Even q: (-1)**Tr_{GF(q)/GF(2)}(s2(x) / Tr(x)**2).
    """
    singer = singer_zero_set(q)
    if q % 2:
        row = quadratic_character(singer.field, singer.traces, q)
        row[1::2] *= -1  # (-1)**i
        return row, ("signs: closed form chi_q(Tr x) * (-1)**i at x = g**i",)
    row = np.zeros(singer.n, dtype=np.int8)
    points = np.flatnonzero(singer.traces)
    row[points] = binary_quadric_sign(singer.field, singer.field.exp[points], q)
    return row, ("signs: closed form (-1)**Tr_{GF(q)/GF(2)}(s2(x) / Tr(x)**2)",)


@lru_cache(maxsize=None)
def _cw_row(q: int) -> tuple[np.ndarray, Trace]:
    """First row, read-only int8, and recipe of the circulant weighing
    matrix of order q**2 + q + 1 and weight q**2 for a prime power q; q = 1
    is the order-3 convention (1, 0, 0), which keeps every block order odd.
    Cached: the closed form builds the exp and log tables of GF(q**3), a
    quarter of a second at q = 64."""
    if q == 1:
        row, trace = [1, 0, 0], _trace("circulant-weighing-trivial", n=3)
    else:
        row, notes = _pinned_row(q) if q in _PINNED_ROWS else _closed_form_row(q)
        trace = _trace("circulant-weighing", notes=notes, q=q)
    arr = np.array(row, dtype=np.int8)
    arr.setflags(write=False)
    return arr, trace


@lru_cache(maxsize=None)
def circulant_cw(q: int) -> Witness:
    """Circulant weighing matrix of order q**2 + q + 1 and weight q**2.

    The first row has its q + 1 zeros exactly on the trace-zero position set
    of GF(q**3) over GF(q).  Its signs are a pinned row for q in
    {2, 3, 5, 7, 8, 9} and the closed form for every other prime power; the
    matrix is verified once, on the first call for q.  Cached per q: the
    witness is a view of 2n entries, as ``_cw_row``'s row is.
    """
    if is_prime_power(q) is None:
        raise ConstructionError(f"q must be a prime power, got {q}")
    row, trace = _cw_row(q)
    return _witness(circulant(row), WeighingType(q * q + q + 1, q * q), trace, "circulant")


def _spread(first_row: np.ndarray, recipe: Trace, c: int) -> tuple[np.ndarray, Trace]:
    """The first row with entry i moved to position c*i of a row c times as
    long, in its dtype and zero elsewhere, and the ``spread`` recipe of the
    circulant it lays out."""
    row = np.zeros(c * first_row.size, dtype=first_row.dtype)
    row[::c] = first_row
    return row, _trace("spread", subs=(recipe,), c=c)


def spread_circulant(w: Witness, c: int) -> Witness:
    """Stretch a circulant weighing matrix to c times its order.

    The spread first row (``_spread``) is laid out by ``circulant`` in 2cn
    entries.  Order and weight become (c*n, k).  The result is the input
    tensored with I_c up to a permutation, so it derives its claim from the
    verified input and runs no verifier.  Its shape report is the input's:
    the spread circulant is symmetric, skew or zero-diagonal exactly when
    the input is.
    """
    if not isinstance(w.claim, WeighingType):
        raise ConstructionError("spread_circulant needs a weighing-matrix witness")
    if not w.structure.circulant:
        raise ConstructionError("spread_circulant needs a circulant input")
    if not isinstance(c, int) or c < 1:
        raise ConstructionError(f"spread factor must be a positive integer, got {c}")
    row, trace = _spread(w.matrix.entries[0], w.trace, c)
    return Witness(circulant(row), WeighingType(c * w.order, w.claim.weight), w.structure, trace)


# ---------------------------------------------------------------------------
# Symmetric all-ones designs on power-of-two orders
# ---------------------------------------------------------------------------


def symmetric_od_pow2(k: int) -> Witness:
    """Symmetric orthogonal design of order 2**k and type (1, ..., 1), k ones.

    Variable 1 rides the full swap word P x ... x P; variable n >= 2 rides
    I x ... x I x Q x P x ... x P with the Q in position n-1.
    """
    if not isinstance(k, int) or k < 1:
        raise ConstructionError(f"k must be a positive integer, got {k}")
    order = 1 << k
    dtype = _code_dtype(k)
    codes = np.zeros((order, order), dtype=dtype)
    eye = np.eye(2, dtype=dtype)
    for var in range(1, k + 1):
        blocks = [_P] * k if var == 1 else [eye] * (var - 2) + [_Q] + [_P] * (k - var + 1)
        codes += var * reduce(np.kron, blocks, np.eye(1, dtype=dtype))
    x = SignedVarMatrix._adopt(codes, k)
    return _witness(x, ODType(order, (1,) * k), _trace("symmetric-od-all-ones", k=k), "symmetric")


# ---------------------------------------------------------------------------
# Catalog of small designs on power-of-two orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One stored design: file name and verified witness."""

    name: str
    witness: Witness


@cache
def load_catalog() -> tuple[CatalogEntry, ...]:
    """Load and verify every design file of the catalog packaged in
    ``odforge/data/catalog``, ordered by file name.

    Each entry must pass verification or the load fails loudly.  The catalog
    is package data only: no environment variable or working directory
    changes which designs it holds."""
    from .matfile import parse_matrix_file

    root = files("odforge") / "data" / "catalog"
    entries = []
    for child in sorted(root.iterdir(), key=lambda c: c.name):
        if not child.name.endswith(".od"):
            continue
        matrix, claim, _flags = parse_matrix_file(child.read_text())
        if not isinstance(claim, ODType):
            raise ConstructionError(f"catalog file {child.name} is not a design")
        trace = _trace(
            "od-catalog", name=child.name, order=claim.order, type=claim.type_tuple
        )
        entries.append(CatalogEntry(child.name, _witness(matrix, claim, trace)))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Provider for small designs on power-of-two orders
# ---------------------------------------------------------------------------


def _merge_all_ones(base: Witness, t: ODType, trace: Trace) -> Witness:
    """Merge a verified all-ones design's leading variables into type t, zero
    the rest, and record the result under the provider's recipe."""
    groups, start = [], 1
    for weight in t.type_tuple:
        groups.append(range(start, start + weight))
        start += weight
    zeros = range(start, base.claim.num_vars + 1)
    return replace(merge_od_variables(base, groups, zeros), trace=trace)


def _skew_weighing_pow2(order: int, k: int) -> np.ndarray:
    """Skew W(order, k) for a power-of-two order and 1 <= k < order.

    Doubling lemmas (Geramita & Seberry, Orthogonal Designs, 1979): from
    W(2, 1) = [[0, 1], [-1, 0]] and a skew W(n, j) S, the order-2n matrices
    [[S, 0], [0, S]], [[S, S], [S, -S]] and [[S, S + I], [S - I, -S]] are skew
    of weights j, 2j and 2j + 1; S + I stays in {0, +-1} because S has a zero
    diagonal.  The caller verifies the result."""
    if order == 2:
        return -_K
    half = order // 2
    if k < half:
        s = _skew_weighing_pow2(half, k)
        zero = np.zeros_like(s)
        return np.block([[s, zero], [zero, s]])
    s = _skew_weighing_pow2(half, k // 2)
    eye = (k % 2) * np.eye(half, dtype=s.dtype)
    return np.block([[s, s + eye], [s - eye, -s]])


def small_od_provider(t: ODType) -> Witness:
    """Produce a design of exactly the requested order and type.

    The order must be a power of two.  Strategy chain: catalog lookup;
    merging variables of a wider all-ones design of the same order (catalog
    entry or the symmetric all-ones construction), exact with no verifier;
    and x*I + y*S for a type (1, k) or (k, 1) with k below the order,
    S a skew weighing matrix from the doubling lemmas.  Every step is a
    construction, none a search, so the answer depends on the type alone.
    When all of them fail the request is reported unsupported along with the
    strategy list.
    """
    if not isinstance(t, ODType):
        raise ConstructionError("small_od_provider expects an ODType")
    order = t.order
    if order & (order - 1):
        raise ConstructionError(f"provider only covers power-of-two orders, got {order}")
    strategies: list[str] = []

    catalog = load_catalog()
    for entry in catalog:
        if entry.witness.claim == t:
            return entry.witness
    strategies.append("catalog: no entry of this exact order and type")

    for entry in catalog:
        claim = entry.witness.claim
        if claim.order != order or set(claim.type_tuple) != {1}:
            continue
        if t.total_weight <= claim.num_vars:
            trace = _trace(
                "small-od-provider",
                notes=(f"merge of catalog entry {entry.name}",),
                order=order,
                type=t.type_tuple,
            )
            return _merge_all_ones(entry.witness, t, trace)
    strategies.append("merge: no all-ones catalog entry wide enough")

    exponent = order.bit_length() - 1
    if t.total_weight <= exponent:
        base_witness = symmetric_od_pow2(exponent)
        trace = _trace(
            "small-od-provider",
            notes=("merge of the symmetric all-ones construction",),
            subs=(base_witness.trace,),
            order=order,
            type=t.type_tuple,
        )
        return _merge_all_ones(base_witness, t, trace)
    strategies.append(
        "merge: symmetric all-ones construction carries too little weight"
    )

    if t.num_vars == 2 and 1 in t.type_tuple:
        unit_slot = t.type_tuple.index(1) + 1
        k = t.type_tuple[2 - unit_slot]
        if k < order:
            codes = (3 - unit_slot) * _skew_weighing_pow2(order, k)
            codes += unit_slot * np.eye(order, dtype=codes.dtype)
            trace = _trace(
                "small-od-provider",
                notes=("x*I + y*S with S a skew weighing matrix from the doubling lemmas",),
                order=order,
                type=t.type_tuple,
            )
            return _witness(SignedVarMatrix._adopt(codes, 2), t, trace)
    strategies.append(
        "skew doubling: needs a type (1, k) or (k, 1) with k below the order"
    )

    raise UnsupportedParameterError(
        f"no strategy produced OD(order={order}, type={t.type_tuple})", strategies
    )


# ---------------------------------------------------------------------------
# Skew designs on power-of-two orders
# ---------------------------------------------------------------------------


def minimal_pow2_exponent(total: int) -> int:
    """Smallest t with total <= 2**t."""
    if total < 1:
        raise ConstructionError("total weight must be positive")
    return max(1, (total - 1).bit_length())


def skew_four_exponents(ks: Sequence[int]) -> tuple[int, int]:
    """Exponents t1, t2 of the skew four-part design on weights ks: the
    smallest with 1 + k1 + k2 <= 2**t1 and 1 + k3 + k4 <= 2**t2.  The four
    weights must be positive integers."""
    if len(ks) != 4 or any(not isinstance(k, int) or k < 1 for k in ks):
        raise ConstructionError(f"all four weights must be positive integers, got {tuple(ks)}")
    return minimal_pow2_exponent(1 + ks[0] + ks[1]), minimal_pow2_exponent(1 + ks[2] + ks[3])


def _normalized_codes(w: Witness) -> np.ndarray:
    """E.T @ X for a verified design X of type (1, s2, ..., sl) with unit
    member E (code magnitude 1), as a fresh code grid with E.T @ E = I, the
    diagonal, dropped.  E must be a signed permutation, so E.T @ X is one
    signed row gather: row c is s * X[r] for the entry s of E at (r, c).
    Its non-unit members are skew, which is checked on the grid."""
    codes, n = w.matrix.codes, w.order
    rows, cols = np.divmod(np.flatnonzero(np.abs(codes) == 1), n)
    if not (np.array_equal(rows, np.arange(n)) and np.array_equal(np.sort(cols), np.arange(n))):
        raise VerificationInternalError("unit member is not a signed permutation")
    src = np.empty(n, dtype=np.intp)
    src[cols] = rows
    rest = codes[src]
    rest *= codes[src, np.arange(n)][:, None]
    np.fill_diagonal(rest, 0)
    if not _equal_by_rows(rest, rest.T, negate=True):
        raise VerificationInternalError("normalized non-unit members are not skew-symmetric")
    return rest


def skew_od_pow2_four(k1: int, k2: int, k3: int, k4: int) -> Witness:
    """Skew-symmetric design of order 2**(t1 + t2 + 1) and type (k1,k2,k3,k4).

    t1 and t2 are the exponents of ``skew_four_exponents``.  Two provider
    designs of types (1, k1, k2) and (1, k3, k4) are normalized so their unit
    member is the identity and dropped (``_normalized_codes``); codes 2, 3
    become variables 1, 2 in the first grid A and 3, 4 in the second B.  The
    design is I x A x P + B x I x Q: both terms are skew, and their supports
    are disjoint, since P is off the diagonal and Q on it.
    """
    ks = (k1, k2, k3, k4)
    t1, t2 = skew_four_exponents(ks)
    first = small_od_provider(ODType(1 << t1, (1, k1, k2)))
    second = small_od_provider(ODType(1 << t2, (1, k3, k4)))
    a = _normalized_codes(first)
    a -= np.sign(a)
    b = _normalized_codes(second)
    b += np.sign(b)
    codes = np.kron(np.eye(1 << t2, dtype=a.dtype), np.kron(a, _P))
    codes += np.kron(b, np.kron(np.eye(1 << t1, dtype=b.dtype), _Q))
    order = 1 << (t1 + t2 + 1)
    x = SignedVarMatrix._adopt(codes, 4)
    trace = _trace(
        "skew-od-pow2-four",
        subs=(first.trace, second.trace),
        k1=k1,
        k2=k2,
        k3=k3,
        k4=k4,
        t1=t1,
        t2=t2,
    )
    return _witness(x, ODType(order, ks), trace, "skew_symmetric")


def add_identity_variable(w: Witness) -> Witness:
    """Prepend a fresh weight-1 variable riding the identity to a design
    whose members are all skew: zero-diagonal and anti-amicable with I."""
    matrix, claim = _design(w, "add_identity_variable")
    # a design is skew exactly when every member is
    if not _equal_by_rows(matrix.codes, matrix.codes.T, negate=True):
        raise ConstructionError("the design is not skew-symmetric; identity slot unavailable")
    # shift every index up by one, in a dtype that holds the new top index
    codes = matrix.codes.astype(_code_dtype(matrix.num_vars + 1))
    codes += np.sign(codes)
    np.fill_diagonal(codes, 1)  # a skew diagonal is zero
    x = SignedVarMatrix._adopt(codes, matrix.num_vars + 1)
    t = ODType(claim.order, (1,) + claim.type_tuple)
    return Witness(x, t, structure_check(x), _trace("add-identity-variable", subs=(w.trace,)))


# ---------------------------------------------------------------------------
# Coprime combination
# ---------------------------------------------------------------------------


def _composed(blocks: Sequence[tuple[int, Witness]], trace: Trace) -> Witness:
    """The direct sum of ``count`` copies of each verified block, in order,
    as a witness that keeps the blocks instead of their sum.  The blocks are
    all weighing matrices or all designs of one type.

    The claim is the first block's at the summed order, and the shape report
    follows from the blocks.  The sum is symmetric, skew or zero-diagonal iff
    every block is, and a single copy is its block.  With two or more
    copies, a circulant sum is c*I, symmetric of total weight 1, so it is
    not circulant at total weight 2 or more or when the sum is not
    symmetric.  The sum of c copies of one 1x1 block [x] is x*I_c, which
    keeps its block's report.
    """
    blocks = tuple((count, block) for count, block in blocks if count)
    claim = blocks[0][1].claim
    reports = [block.structure for _, block in blocks]
    if len(blocks) == 1 and (blocks[0][0] == 1 or blocks[0][1].order == 1):
        structure = reports[0]
    else:
        symmetric = all(r.symmetric for r in reports)
        weight = claim.total_weight if isinstance(claim, ODType) else claim.weight
        if weight == 1 and symmetric:
            raise ConstructionError("no derived shape for a symmetric direct sum of weight 1")
        structure = StructureReport(
            symmetric=symmetric,
            skew_symmetric=all(r.skew_symmetric for r in reports),
            circulant=False,
            zero_diagonal=all(r.zero_diagonal for r in reports),
        )
    order = sum(count * block.order for count, block in blocks)
    return Witness(None, replace(claim, order=order), structure, trace, blocks)


def _materialize(w: Witness) -> Union[IntMatrix, SignedVarMatrix]:
    """A composed witness's matrix, I_a x A (+) I_b x B (+) ... written block
    by block into one grid of its blocks' dtype and verified once at its
    order; its shape must be the one derived from the blocks."""
    arrays = [(count, _payload(block.matrix)) for count, block in w.blocks]
    grid = np.zeros((w.order, w.order), dtype=np.result_type(*(a for _, a in arrays)))
    offset = 0
    for count, block in arrays:
        size = block.shape[0]
        for _ in range(count):
            grid[offset : offset + size, offset : offset + size] = block
            offset += size
    matrix = SignedVarMatrix._adopt(grid, w.claim.num_vars) if w.is_od else IntMatrix._adopt(grid)
    built = _witness(matrix, w.claim, w.trace)
    if built.structure != w.structure:
        raise VerificationInternalError(
            f"composed matrix has shape {built.structure}, derived {w.structure}"
        )
    return built.matrix


@dataclass(frozen=True)
class SeedRecipe:
    """A seed design's claim and recipe without its matrix: all that
    combining its finished form reads of the design."""

    claim: ODType
    trace: Trace


def _coprime_plan(
    w1: Union[Witness, SeedRecipe], w2: Union[Witness, SeedRecipe], t: int
) -> tuple[int, int, Trace]:
    """Check that two designs share a type and that t reaches the threshold;
    returns the multiplicities a, b of t = a*x + b*y and the recipe."""
    c1, c2 = w1.claim, w2.claim
    if not (isinstance(c1, ODType) and isinstance(c2, ODType)):
        raise ConstructionError("combine_coprime expects two design witnesses")
    if c1.type_tuple != c2.type_tuple:
        raise ConstructionError(
            f"type tuples differ: {c1.type_tuple} vs {c2.type_tuple}"
        )
    if not isinstance(t, int) or t < 1:
        raise ConstructionError(f"t must be a positive integer, got {t}")
    n1, n2 = c1.order, c2.order
    h = math.gcd(n1, n2)
    x, y = n1 // h, n2 // h
    threshold = x * y
    if t < threshold:
        raise ConstructionError(
            f"t={t} is below the combination threshold {threshold} = ({n1}/{h})*({n2}/{h})"
        )
    fw = frobenius_representation(x, y, t)
    trace = _trace(
        "combine-coprime",
        subs=(w1.trace, w2.trace),
        t=t,
        h=h,
        x=x,
        y=y,
        a=fw.a,
        b=fw.b,
    )
    return fw.a, fw.b, trace


def combine_coprime(w1: Witness, w2: Witness, t: int) -> Witness:
    """Combine two designs of the same type into one of order h*t.

    With h = gcd(n1, n2), x = n1/h, y = n2/h, any t >= x*y splits as
    t = a*x + b*y; each output member is (I_a x A_i) direct-sum (I_b x B_i).
    The result is composed of the two verified designs: its shape follows
    from theirs, and its matrix is built and verified at order h*t when it is
    first read.
    """
    a, b, trace = _coprime_plan(w1, w2, t)
    return _composed(((a, w1), (b, w2)), trace)


def _rebase(trace: Trace, seed: Trace, node: Trace) -> Trace:
    """``trace`` with its sub-recipe ``seed``, reached through first subs,
    replaced by ``node``."""
    if trace is seed:
        return node
    if not trace.subs:
        raise ConstructionError("the finished seed's recipe does not contain its seed")
    return replace(trace, subs=(_rebase(trace.subs[0], seed, node),) + trace.subs[1:])


def combine_finished_seeds(
    first: tuple[SeedRecipe, Witness], second: tuple[SeedRecipe, Witness], t: int
) -> Witness:
    """The weighing matrix that finishing ``combine_coprime(A, B, t)`` gives,
    built from the finished seeds instead of the order-h*t design.

    ``first`` is the recipe of the design A with the weighing matrix F1 it
    finishes to, ``second`` is B's with F2.  The finishing step, the same
    for both, is a chain of variable merges, collapse to weighing and
    unit-slot extraction.  Each acts entrywise, or block by block on a
    block-diagonal design, so finishing (I_a x A) (+) (I_b x B) gives
    (I_a x F1) (+) (I_b x F2).  That sum is returned composed, as its two
    verified blocks; its matrix is built and verified at order h*t when it
    is first read.  Its recipe is F1's with A's replaced by the
    combine-coprime node, so replay runs the finishing step on the combined
    design.
    """
    (w1, f1), (w2, f2) = first, second
    a, b, combined = _coprime_plan(w1, w2, t)
    c1, c2 = f1.claim, f2.claim
    if not (isinstance(c1, WeighingType) and isinstance(c2, WeighingType)):
        raise ConstructionError("finished seeds must be weighing-matrix witnesses")
    if c1.weight != c2.weight or (c1.order, c2.order) != (w1.claim.order, w2.claim.order):
        raise ConstructionError("finished seeds must share a weight and their seeds' orders")
    return _composed(((a, f1), (b, f2)), _rebase(f1.trace, w1.trace, combined))


# ---------------------------------------------------------------------------
# Odd-order constructions from circulant blocks
# ---------------------------------------------------------------------------


def _odd_block(
    qs: Sequence[int], orders: Sequence[int], reflect: bool
) -> tuple[np.ndarray, list[Trace]]:
    """The Kronecker product, in int8, of the circulant levels of weights
    q**2 for q in qs, each spread to its order in orders, with the recipe
    ``spread_circulant`` would record for each level.

    A level is ``circulant`` of its cached first row spread by ``_spread``,
    a view of 2 * order entries.  With ``reflect`` every level is multiplied
    on the right by the back-diagonal permutation, which reverses its
    columns and makes it back-circulant (symmetric).
    """
    levels = []
    recipes = []
    for q, order in zip(qs, orders):
        row, recipe = _cw_row(q)
        first, spread = _spread(row, recipe, order // row.size)
        level = circulant(first).entries
        levels.append(level[:, ::-1] if reflect else level)
        recipes.append(spread)
    return reduce(np.kron, levels, np.ones((1, 1), dtype=np.int8)), recipes


def symmetric_w_square_odd(k: int) -> Witness:
    """Symmetric weighing matrix of square weight k on an odd order.

    Each prime-power factor q of sqrt(k) gives a circulant level of weight
    q**2 made symmetric by the back-diagonal reflection.  The levels are
    ingredients; the matrix verified is their Kronecker product, of odd
    order prod(q**2 + q + 1).
    """
    qs = prime_power_square_factorize(k).factors
    block, recipes = _odd_block(qs, [q * q + q + 1 for q in qs], reflect=True)
    trace = _trace(
        "symmetric-weighing-square",
        subs=tuple(spread.subs[0] for spread in recipes),  # every level has c = 1
        k=k,
        q_list=qs,
    )
    return _witness(IntMatrix._adopt(block), WeighingType(block.shape[0], k), trace, "symmetric")


def _odd_block_arith(ks: Sequence[int]) -> tuple[dict[int, list[int]], list[int]]:
    """Factor lists (padded with trailing 1s) and level orders b_i for the
    nonzero weights; pure arithmetic, no matrices."""
    nonzero = [j for j, k in enumerate(ks) if k != 0]
    if not nonzero:
        raise ConstructionError("at least one weight must be nonzero")
    lists: dict[int, list[int]] = {}
    for j in nonzero:
        lists[j] = list(prime_power_square_factorize(ks[j] * ks[j]).factors)
    m = max(len(v) for v in lists.values())
    for v in lists.values():
        v.extend([1] * (m - len(v)))
    b_list = []
    for i in range(m):
        b_list.append(lcm_set(q * q + q + 1 for q in (lists[j][i] for j in nonzero)))
    return lists, b_list


def odd_block_orders(ks: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Level orders b_i and their product q for the block arrays on weights
    ks, without building any matrices."""
    _, b_list = _odd_block_arith(ks)
    return tuple(b_list), math.prod(b_list)


_Cell = tuple[int, int, Union[np.ndarray, None]]


def _block_array(layout: Sequence[Sequence[_Cell]], q: int, num_vars: int) -> SignedVarMatrix:
    """Assemble a block matrix of variable-coded cells.

    Each layout cell is (variable index, sign, block) where variable index 0
    or block None mean an all-zero block of order q.  Every cell is written
    into one preallocated grid of ``_code_dtype(num_vars)`` (one byte per cell
    for up to 127 variables), which the matrix adopts without a copy.
    """
    grid = np.zeros((len(layout) * q, len(layout[0]) * q), dtype=_code_dtype(num_vars))
    for i, row in enumerate(layout):
        for j, (var, sign, block) in enumerate(row):
            if var != 0 and block is not None:
                cell = grid[i * q : (i + 1) * q, j * q : (j + 1) * q]
                # a grid-dtype factor: an int8 block times a Python int past
                # 127 would overflow instead of widening
                np.multiply(block, grid.dtype.type(var * sign), out=cell)
    return SignedVarMatrix._adopt(grid, num_vars)


def _transposed(block: np.ndarray | None) -> np.ndarray | None:
    return None if block is None else block.T


def _two_block_layout(blocks: Sequence, variables: Sequence[int], q: int) -> list[list[_Cell]]:
    """[[A, B], [B, -A]]: the back-circulant product A on the diagonal, the
    circulant product B off it."""
    (a, b), (va, vb) = blocks, variables
    return [[(va, 1, a), (vb, 1, b)], [(vb, 1, b), (va, -1, a)]]


def _four_block_layout(blocks: Sequence, variables: Sequence[int], q: int = 0) -> list[list[_Cell]]:
    """The 4x4 sign/transpose pattern shared by the 4- and 8-block arrays."""
    a, b, c, d = blocks
    va, vb, vc, vd = variables
    bt, ct, dt = (_transposed(m) for m in (b, c, d))
    return [
        [(va, 1, a), (vb, 1, b), (vc, 1, c), (vd, 1, d)],
        [(vb, -1, b), (va, 1, a), (vd, 1, dt), (vc, -1, ct)],
        [(vc, -1, c), (vd, -1, dt), (va, 1, a), (vb, 1, bt)],
        [(vd, -1, d), (vc, 1, ct), (vb, -1, bt), (va, 1, a)],
    ]


def _eight_block_layout(blocks: Sequence, variables: Sequence[int], q: int) -> list[list[_Cell]]:
    """[[G, x*I], [x*I, G']] for the unit variable x = 1: G is the four-block
    array on (A, B, C, D), and G' the four-block array on (A, B^T, C^T, D^T)
    with its diagonal negated."""
    a, b, c, d = blocks
    upper = _four_block_layout(blocks, variables)
    lower = _four_block_layout((a, *(_transposed(m) for m in (b, c, d))), variables)
    for i, row in enumerate(lower):
        var, sign, block = row[i]
        row[i] = (var, -sign, block)
    eye = np.eye(q, dtype=np.int8)
    unit = [[(1, 1, eye) if i == j else (0, 1, None) for j in range(4)] for i in range(4)]
    return [g + u for g, u in zip(upper, unit)] + [u + g for u, g in zip(unit, lower)]


# Blocks h -> (trace op, layout, unit variables).  A layout maps the odd
# blocks, their variable indices and the block order q to the cells of
# ``_block_array``; unit variables come first in the type, weight 1 each.
_BLOCK_ARRAYS = {
    2: ("two-square-od", _two_block_layout, 0),
    4: ("goethals-seidel-od", _four_block_layout, 0),
    8: ("eight-block-od", _eight_block_layout, 1),
}


def _variable_assignment(ks: Sequence[int], start: int) -> tuple[list[int], tuple[int, ...]]:
    """Variable indices for the nonzero weights, numbered from start; zero
    weights get index 0 (zero block).  Returns (indices, squared type)."""
    variables = []
    type_tuple = []
    nxt = start
    for k in ks:
        if k == 0:
            variables.append(0)
        else:
            variables.append(nxt)
            type_tuple.append(k * k)
            nxt += 1
    return variables, tuple(type_tuple)


def _block_design(h: int, roots: Sequence[int], **trace_params) -> Witness:
    """The h-block array of ``_BLOCK_ARRAYS`` on the odd blocks of roots:
    order h*q, type (1,)*units + the nonzero roots squared.  Zero roots drop
    their variable; their zero blocks stay in the array.

    Every nonzero root k_j is factored into prime powers q_{1j}, ..., q_{mj}
    (padded with 1s at the end to a common length m); level i uses the
    common order b_i = lcm_j(q_{ij}**2 + q_{ij} + 1).  Only the block in the
    arrays' diagonal slot is reflected to back-circulant (symmetric) form;
    the off-diagonal slots need plain circulants for their transpose
    identities.
    """
    op, layout, units = _BLOCK_ARRAYS[h]
    lists, b_list = _odd_block_arith(roots)
    q = math.prod(b_list)
    blocks: list[np.ndarray | None] = [None] * len(roots)
    sub_traces: list[Trace] = []
    for j, qs in lists.items():
        blocks[j], recipes = _odd_block(qs, b_list, reflect=j == 0)
        sub_traces.extend(recipes)
    variables, squared = _variable_assignment(roots, start=1 + units)
    type_tuple = (1,) * units + squared
    x = _block_array(layout(blocks, variables, q), q, len(type_tuple))
    trace = _trace(
        op,
        subs=sub_traces,
        **trace_params,
        b_list=tuple(b_list),
        q_lists=tuple(tuple(qs) for qs in lists.values()),
        q=q,
    )
    return _witness(x, ODType(h * q, type_tuple), trace)


def two_square_od(k1: int, k2: int) -> Witness:
    """Design of order 2q and type (k1**2, k2**2) with q odd, in the sign
    pattern [[A, B], [B, -A]]."""
    if any(not isinstance(k, int) or k < 1 for k in (k1, k2)):
        raise ConstructionError(f"both weights must be positive integers, got {(k1, k2)}")
    return _block_design(2, (k1, k2), k1=k1, k2=k2)


def goethals_seidel_od(k1: int, k2: int, k3: int, k4: int) -> Witness:
    """Goethals-Seidel block array: order 4q, type (k1**2, ..., k4**2) with
    zero weights dropping their variable (zero blocks stay in the array)."""
    ks = (k1, k2, k3, k4)
    if any(not isinstance(k, int) or k < 0 for k in ks):
        raise ConstructionError(f"weights must be nonnegative integers, got {ks}")
    return _block_design(4, ks, ks=ks)


def eight_block_od(k1: int, k2: int, k3: int, k4: int) -> Witness:
    """Doubled block array: order 8q, type (1, k1**2, ..., k4**2), the
    Goethals-Seidel array doubled around a fresh weight-1 variable."""
    ks = (k1, k2, k3, k4)
    if any(not isinstance(k, int) or k < 0 for k in ks):
        raise ConstructionError(f"weights must be nonnegative integers, got {ks}")
    return _block_design(8, ks, ks=ks)


def block_array_od(h: int, roots: Sequence[int]) -> Witness:
    """The h-block array on roots with odd part q: ``two_square_od`` at 2q,
    ``goethals_seidel_od`` at 4q, or ``eight_block_od`` at 8q, which adds a
    unit variable of its own."""
    if h == 2:
        return two_square_od(*roots)
    if h == 4:
        return goethals_seidel_od(*roots)
    if h == 8:
        return eight_block_od(*roots)
    raise ConstructionError(f"block arrays have 2, 4 or 8 blocks, got {h}")


# ---------------------------------------------------------------------------
# Rational seed and witness adapters
# ---------------------------------------------------------------------------


def rational_family_seed(a: int, b: int, c: int) -> IntMatrix:
    """4x4 skew integer matrix D with D @ D.T = (a**2 + b**2 + c**2) * I."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not isinstance(v, int):
            raise ConstructionError(f"{name} must be an integer, got {v!r}")
    d = IntMatrix(
        [
            [0, a, b, c],
            [-a, 0, -c, b],
            [-b, c, 0, -a],
            [-c, -b, a, 0],
        ]
    )
    k = a * a + b * b + c * c
    product = mat_mul(d, transpose(d)).entries
    if not np.array_equal(product, k * np.eye(4, dtype=np.int64)):
        raise VerificationInternalError("rational seed failed its product identity")
    if not np.array_equal(d.entries.T, -d.entries):
        raise VerificationInternalError("rational seed is not skew")
    return d


def od_from_weighing(w: Witness) -> Witness:
    """A W(n, k) read as the design OD(n; k), sharing its read-only array
    and so its shape report."""
    if not isinstance(w.claim, WeighingType):
        raise ConstructionError("od_from_weighing expects a weighing-matrix witness")
    x = SignedVarMatrix._adopt(w.matrix.entries, 1)
    t = ODType(w.claim.order, (w.claim.weight,))
    return Witness(x, t, w.structure, _trace("od-from-weighing", subs=(w.trace,)))


def collapse_od_to_weighing(w: Witness) -> Witness:
    """Set every variable of a design to +1, yielding a weighing matrix of
    the summed weight: the design identity holds at x = 1."""
    matrix, claim = _design(w, "collapse_od_to_weighing")
    flat = _substitute_variables(matrix, {i: 1 for i in range(1, matrix.num_vars + 1)})
    claim = WeighingType(claim.order, claim.total_weight)
    return Witness(flat, claim, structure_check(flat), _trace("collapse-to-weighing", subs=(w.trace,)))


def merge_od_variables(
    w: Witness, groups: Sequence[Sequence[int]], zeros: Sequence[int] = ()
) -> Witness:
    """Merge design variables group-wise (weights add) and zero the rest.

    groups[i] lists the old 1-based variables that become new variable i+1;
    zeros lists old variables to drop.  Groups and zeros must partition the
    variable set; merged members' pair sums stay 0.
    """
    matrix, claim = _design(w, "merge_od_variables")
    mapping: dict[int, Union[int, Var]] = {}
    for slot, group in enumerate(groups, start=1):
        for old in group:
            if old in mapping:
                raise ConstructionError(f"variable {old} listed twice")
            mapping[old] = Var(slot)
    for old in zeros:
        if old in mapping:
            raise ConstructionError(f"variable {old} listed twice")
        mapping[old] = 0
    if set(mapping) != set(range(1, claim.num_vars + 1)):
        raise ConstructionError("groups and zeros must partition the variables")
    merged = _substitute_variables(matrix, mapping)
    new_type = tuple(
        sum(claim.type_tuple[old - 1] for old in group) for group in groups
    )
    trace = _trace(
        "merge-variables",
        subs=(w.trace,),
        groups=tuple(tuple(g) for g in groups),
        zeros=tuple(zeros),
    )
    return Witness(merged, ODType(claim.order, new_type), structure_check(merged), trace)


def skew_weighing_from_unit_slot(w: Witness) -> Witness:
    """From a design of type (1, k) with family (E, S), return the skew
    weighing matrix E.T @ S of weight k (E anti-amicable with S)."""
    _, claim = _design(w, "skew_weighing_from_unit_slot")
    if claim.num_vars != 2 or claim.type_tuple[0] != 1:
        raise ConstructionError(
            f"need a design of type (1, k), got {claim.type_tuple}"
        )
    rest = _normalized_codes(w)  # code 2, S turned by E.T, is all it holds
    skew = IntMatrix._adopt(np.sign(rest, out=rest))
    claim = WeighingType(claim.order, claim.type_tuple[1])
    trace = _trace("skew-from-unit-slot", subs=(w.trace,))
    structure = structure_check(skew)
    if not structure.skew_symmetric:
        raise VerificationInternalError(f"{trace.op} built a matrix that is not skew_symmetric")
    return Witness(skew, claim, structure, trace)


@cache
def _weight_one_block(order: int) -> Witness:
    """The W(1, 1) [1] at order 1, the skew W(2, 1) K at order 2: verified
    once, held as int8."""
    block = np.ones((1, 1), dtype=np.int8) if order == 1 else _K
    op = "weighing-identity" if order == 1 else "skew-weighing-pairs"
    return _witness(IntMatrix(block), WeighingType(order, 1), _trace(op, n=order))


def identity_weighing(n: int) -> Witness:
    """The identity matrix as a weighing matrix of weight 1 (symmetric and
    circulant at once), composed of n copies of the one verified [1]."""
    if not isinstance(n, int) or n < 1:
        raise ConstructionError(f"order must be a positive integer, got {n}")
    return _composed(((n, _weight_one_block(1)),), _trace("weighing-identity", n=n))


def skew_pairs_weighing(n: int) -> Witness:
    """Skew weighing matrix of weight 1 on any even order: I_{n/2} x K, a
    direct sum of 2x2 rotation blocks, composed of the one verified block."""
    if not isinstance(n, int) or n < 2 or n % 2:
        raise ConstructionError(f"order must be a positive even integer, got {n}")
    return _composed(((n // 2, _weight_one_block(2)),), _trace("skew-weighing-pairs", n=n))


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def _replay_sub(trace: Trace, i: int = 0) -> Witness:
    return replay(trace.subs[i])


def _replay_provider(trace: Trace) -> Witness:
    return small_od_provider(ODType(trace.param("order"), tuple(trace.param("type"))))


# Trace operation -> builder that re-runs it.  Builders are looked up by name
# when a recipe replays, not bound here.
_REPLAY = {
    "circulant-weighing": lambda t: circulant_cw(t.param("q")),
    "circulant-weighing-trivial": lambda t: _witness(circulant(_cw_row(1)[0]), WeighingType(3, 1), t),
    "spread": lambda t: spread_circulant(_replay_sub(t), t.param("c")),
    "symmetric-od-all-ones": lambda t: symmetric_od_pow2(t.param("k")),
    "od-catalog": _replay_provider,
    "small-od-provider": _replay_provider,
    "skew-od-pow2-four": lambda t: skew_od_pow2_four(*(t.param(k) for k in ("k1", "k2", "k3", "k4"))),
    "add-identity-variable": lambda t: add_identity_variable(_replay_sub(t)),
    "combine-coprime": lambda t: combine_coprime(_replay_sub(t), _replay_sub(t, 1), t.param("t")),
    "symmetric-weighing-square": lambda t: symmetric_w_square_odd(t.param("k")),
    "two-square-od": lambda t: two_square_od(t.param("k1"), t.param("k2")),
    "goethals-seidel-od": lambda t: goethals_seidel_od(*t.param("ks")),
    "eight-block-od": lambda t: eight_block_od(*t.param("ks")),
    "od-from-weighing": lambda t: od_from_weighing(_replay_sub(t)),
    "collapse-to-weighing": lambda t: collapse_od_to_weighing(_replay_sub(t)),
    "merge-variables": lambda t: merge_od_variables(_replay_sub(t), t.param("groups"), t.param("zeros")),
    "skew-from-unit-slot": lambda t: skew_weighing_from_unit_slot(_replay_sub(t)),
    "weighing-identity": lambda t: identity_weighing(t.param("n")),
    "skew-weighing-pairs": lambda t: skew_pairs_weighing(t.param("n")),
}


def replay(trace: Trace) -> Witness:
    """Re-run a construction recipe; the result must equal the original."""
    builder = _REPLAY.get(trace.op)
    if builder is None:
        raise ConstructionError(f"unknown trace operation {trace.op!r}")
    return builder(trace)
