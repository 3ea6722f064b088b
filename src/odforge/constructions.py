"""Constructive generators for weighing matrices and orthogonal designs.

Every public constructor returns a :class:`Witness` whose matrix has already
passed the exact verifiers in :mod:`odforge.matrices`, together with a
replayable :class:`Trace` recording how it was built.  Functions that try
several methods (``circulant_cw``, ``small_od_provider``) verify each
candidate and record rejected attempts in the trace notes instead of hiding
them; when every method fails they raise :class:`UnsupportedParameterError`
listing the strategies tried, never returning an unverified matrix.

The only search at run time is the circulant sign search, bounded by a
fixed cap on the candidates it scans, not by a clock.  Power-of-two designs
come from the packaged catalog (whose order-16 entry
``scripts/build_catalog.py`` found offline) and from constructions.  So
whether a matrix is built, and which one, depends on its parameters alone.

Size conventions used throughout:

* ``P = [[0,1],[1,0]]`` (symmetric swap), ``Q = [[1,0],[0,-1]]`` (sign flip),
  ``K = P @ Q = [[0,-1],[1,0]]`` (skew rotation) are the 2x2 building blocks.
* A circulant block of weight q**2 has order q**2 + q + 1; multiplying it on
  the right by the back-diagonal reflection makes it back-circulant and hence
  symmetric without changing the weight.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .arith import (
    frobenius_representation,
    is_prime_power,
    lcm_set,
    prime_power_square_factorize,
)
from .gf import SingerZeroSet, quadratic_character, singer_zero_set
from .matrices import (
    IntMatrix,
    MatrixError,
    ODType,
    SignedVarMatrix,
    StructureReport,
    Var,
    VerificationInternalError,
    WeighingType,
    _substitute_variables,
    decompose_family,
    circulant,
    identity,
    kronecker,
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
    "resolve_catalog_dir",
    "small_od_provider",
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

# Hard cap on the number of sign patterns the circulant search will scan;
# beyond this the parameter is reported as unsupported rather than letting
# the scan run for hours.  It admits q in {2, 3, 4, 5, 7, 8, 9}, the
# largest scan being q = 7's 2**17 candidates; every other prime power up
# to 49 has at least 24 support orbits and is refused without a scan.
_CW_CANDIDATE_CAP = 1 << 22

_P = np.array([[0, 1], [1, 0]], dtype=np.int64)
_Q = np.array([[1, 0], [0, -1]], dtype=np.int64)
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


@dataclass(frozen=True)
class Witness:
    """A verified matrix, its claim, its shape report, and its recipe."""

    matrix: Union[IntMatrix, SignedVarMatrix]
    claim: Union[WeighingType, ODType]
    structure: StructureReport
    trace: Trace

    @property
    def order(self) -> int:
        return self.claim.order

    @property
    def is_od(self) -> bool:
        return isinstance(self.claim, ODType)


def _weighing_witness(m: IntMatrix, n: int, k: int, trace: Trace) -> Witness:
    rep = verify_weighing(m, k)
    if not rep.ok:
        raise VerificationInternalError(
            f"constructed matrix failed weighing verification: {rep.message()}"
        )
    return Witness(m, WeighingType(n, k), structure_check(m), trace)


def _od_witness(x: SignedVarMatrix, t: ODType, trace: Trace) -> Witness:
    rep = verify_od(x, t)
    if not rep.ok:
        raise VerificationInternalError(
            f"constructed design failed verification: {rep.message()}"
        )
    return Witness(x, t, structure_check(x), trace)


# ---------------------------------------------------------------------------
# Circulant weighing matrices of square weight
# ---------------------------------------------------------------------------


def _multiplier_orbits(n: int, p: int) -> list[list[int]]:
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


def _character_sign_row(singer: SingerZeroSet) -> list[int]:
    """Candidate first row: zeros on the trace-zero set, quadratic-character
    signs elsewhere.  Only meaningful for odd q; the verifier decides."""
    q = singer.q
    row = []
    for value in singer.traces:
        if value == singer.field.zero:
            row.append(0)
        else:
            row.append(quadratic_character(singer.field, value, q))
    return row


def _paf_zero(row: np.ndarray) -> bool:
    n = row.shape[0]
    return all(int(np.dot(row, np.roll(row, shift))) == 0 for shift in range(1, n))


def _orbit_sign_search(singer: SingerZeroSet) -> list[int] | None:
    """Search sign patterns constant on multiplier orbits, zeros fixed on the
    trace-zero set.  Returns the lexicographically first row (+1 tried before
    -1 on each orbit, orbits ordered by smallest member) whose periodic
    autocorrelation vanishes at every nonzero shift, or None."""
    n, q = singer.n, singer.q
    p = singer.field.p
    zero_positions = set(singer.positions)
    orbits = _multiplier_orbits(n, p)
    # The trace-zero set is closed under the multiplier, so orbits never
    # straddle the support boundary.
    support_orbits = [orb for orb in orbits if orb[0] not in zero_positions]
    m = len(support_orbits)
    if (1 << m) > _CW_CANDIDATE_CAP:
        return None
    chunk = 4096
    total = 1 << m
    target = q * q
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
            if _paf_zero(row):
                return [int(v) for v in row]
    return None


def circulant_cw(q: int) -> Witness:
    """Circulant weighing matrix of order q**2 + q + 1 and weight q**2.

    The first row has its q + 1 zeros exactly on the trace-zero position set
    of GF(q**3) over GF(q).  Signs are found by a strategy chain; every
    candidate must pass full verification before it is returned.
    """
    if is_prime_power(q) is None:
        raise ConstructionError(f"q must be a prime power, got {q}")
    singer = singer_zero_set(q)
    n = singer.n
    k = q * q
    strategies: list[str] = []

    def finish(row: Sequence[int], note: str) -> Witness:
        candidate = circulant(row)
        trace = _trace("circulant-weighing", notes=tuple(strategies) + (note,), q=q)
        w = _weighing_witness(candidate, n, k, trace)
        if not w.structure.circulant:
            raise VerificationInternalError("circulant constructor lost circulant shape")
        return w

    if q % 2 == 1:
        row = _character_sign_row(singer)
        rep = verify_weighing(circulant(row), k)
        if rep.ok:
            return finish(row, "signs: quadratic character of relative trace")
        strategies.append(
            "quadratic-character signs rejected by verifier: " + rep.message()
        )

    row = _orbit_sign_search(singer)
    if row is not None:
        return finish(row, "signs: multiplier-orbit search, lexicographically first")
    strategies.append(
        f"multiplier-orbit sign search exhausted (cap {_CW_CANDIDATE_CAP} candidates)"
    )
    raise UnsupportedParameterError(
        f"no verified circulant weighing matrix found for q={q}", strategies
    )


def spread_circulant(w: Witness, c: int) -> Witness:
    """Stretch a circulant weighing matrix to c times its order.

    Entry i of the first row moves to position c*i; all new positions are
    zero.  Order and weight become (c*n, k).
    """
    if not isinstance(w.claim, WeighingType):
        raise ConstructionError("spread_circulant needs a weighing-matrix witness")
    if not w.structure.circulant:
        raise ConstructionError("spread_circulant needs a circulant input")
    if not isinstance(c, int) or c < 1:
        raise ConstructionError(f"spread factor must be a positive integer, got {c}")
    n, k = w.claim.order, w.claim.weight
    first = w.matrix.entries[0]
    row = [0] * (c * n)
    for i in range(n):
        row[c * i] = int(first[i])
    trace = _trace("spread", subs=(w.trace,), c=c)
    out = _weighing_witness(circulant(row), c * n, k, trace)
    if not out.structure.circulant:
        raise VerificationInternalError("spread lost circulant shape")
    return out


# ---------------------------------------------------------------------------
# Symmetric all-ones designs on power-of-two orders
# ---------------------------------------------------------------------------


def _kron_chain(blocks: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, blocks, np.eye(1, dtype=np.int64))


def symmetric_od_pow2(k: int) -> Witness:
    """Symmetric orthogonal design of order 2**k and type (1, ..., 1), k ones.

    Variable 1 rides the full swap word P x ... x P; variable n >= 2 rides
    I x ... x I x Q x P x ... x P with the Q in position n-1.
    """
    if not isinstance(k, int) or k < 1:
        raise ConstructionError(f"k must be a positive integer, got {k}")
    order = 1 << k
    codes = np.zeros((order, order), dtype=np.int64)
    for var in range(1, k + 1):
        if var == 1:
            word = _kron_chain([_P] * k)
        else:
            blocks = [np.eye(2, dtype=np.int64)] * (var - 2) + [_Q] + [_P] * (k - var + 1)
            word = _kron_chain(blocks)
        codes += var * word
    x = SignedVarMatrix(codes, k)
    t = ODType(order, (1,) * k)
    w = _od_witness(x, t, _trace("symmetric-od-all-ones", k=k))
    if not w.structure.symmetric:
        raise VerificationInternalError("all-ones design lost symmetry")
    return w


# ---------------------------------------------------------------------------
# Catalog of small designs on power-of-two orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One stored design: file name, verified witness, provenance note."""

    name: str
    witness: Witness
    provenance: str


def resolve_catalog_dir(explicit: str | os.PathLike | None = None):
    """Catalog location: explicit argument, then ODFORGE_CATALOG_DIR, then
    ./catalog if present, then the data directory shipped with the package."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("ODFORGE_CATALOG_DIR")
    if env:
        return Path(env)
    local = Path("catalog")
    if local.is_dir():
        return local
    from importlib.resources import files

    return files("odforge") / "data" / "catalog"


@lru_cache(maxsize=8)
def _load_catalog_cached(root) -> tuple[CatalogEntry, ...]:
    from .matfile import parse_matrix_file

    notes: dict[str, str] = {}
    try:
        manifest = (root / "MANIFEST.txt").read_text()
    except (FileNotFoundError, OSError):
        manifest = ""
    for line in manifest.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, note = line.partition(":")
        notes[name.strip()] = note.strip()
    entries = []
    try:
        children = sorted(root.iterdir(), key=lambda c: c.name)
    except (FileNotFoundError, OSError):
        children = []
    for child in children:
        if not child.name.endswith(".od"):
            continue
        matrix, claim, _flags = parse_matrix_file(child.read_text())
        if not isinstance(claim, ODType):
            raise ConstructionError(f"catalog file {child.name} is not a design")
        trace = _trace(
            "od-catalog", name=child.name, order=claim.order, type=claim.type_tuple
        )
        entries.append(
            CatalogEntry(
                name=child.name,
                witness=_od_witness(matrix, claim, trace),
                provenance=notes.get(child.name, "unlisted"),
            )
        )
    return tuple(entries)


def load_catalog(dir_path: str | os.PathLike | None = None) -> tuple[CatalogEntry, ...]:
    """Load and verify every design file in the catalog directory.

    Entries are ordered by file name; each one must pass verification or the
    load fails loudly.  The directory is resolved on every call, so a later
    change of ODFORGE_CATALOG_DIR or of the working directory takes effect;
    results are cached per absolute directory."""
    root = resolve_catalog_dir(dir_path)
    if isinstance(root, Path):
        root = root.absolute()
    return _load_catalog_cached(root)


# ---------------------------------------------------------------------------
# Provider for small designs on power-of-two orders
# ---------------------------------------------------------------------------


def _merge_plan(source_vars: int, t: ODType) -> dict[int, Union[int, Var]]:
    """Mapping that merges an all-ones design's variables into type t and
    zeroes the leftovers."""
    mapping: dict[int, Union[int, Var]] = {}
    nxt = 1
    for slot, weight in enumerate(t.type_tuple, start=1):
        for _ in range(weight):
            mapping[nxt] = Var(slot)
            nxt += 1
    for leftover in range(nxt, source_vars + 1):
        mapping[leftover] = 0
    return mapping


def _provider_merge_all_ones(
    base: SignedVarMatrix, base_vars: int, t: ODType, trace: Trace
) -> Witness:
    mapping = _merge_plan(base_vars, t)
    merged = _substitute_variables(base, mapping)
    assert isinstance(merged, SignedVarMatrix)
    return _od_witness(merged, t, trace)


def _double_with_unit_slot(sub: Witness, t: ODType, unit_slot: int) -> Witness:
    """From a symmetric design X of type s on order n, build the order-2n
    design {A_i x P} + {I x Q} of type s + (1,), then permute the new unit
    variable into position unit_slot so the type equals t exactly."""
    sub_matrix = sub.matrix
    assert isinstance(sub_matrix, SignedVarMatrix)
    ell = sub_matrix.num_vars
    codes = np.kron(sub_matrix.codes, _P)
    codes += (ell + 1) * np.kron(np.eye(sub.order, dtype=np.int64), _Q)
    doubled = SignedVarMatrix._adopt(codes, ell + 1)
    if unit_slot == ell + 1:
        permuted = doubled
    else:
        mapping: dict[int, Union[int, Var]] = {}
        for old in range(1, ell + 1):
            mapping[old] = Var(old if old < unit_slot else old + 1)
        mapping[ell + 1] = Var(unit_slot)
        out = _substitute_variables(doubled, mapping)
        assert isinstance(out, SignedVarMatrix)
        permuted = out
    trace = _trace(
        "double-symmetric-design", subs=(sub.trace,), unit_slot=unit_slot
    )
    return _od_witness(permuted, t, trace)


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
    eye = (k % 2) * np.eye(half, dtype=np.int64)
    return np.block([[s, s + eye], [s - eye, -s]])


def small_od_provider(
    t: ODType, *, catalog_dir: str | os.PathLike | None = None
) -> Witness:
    """Produce a verified design of exactly the requested order and type.

    The order must be a power of two.  Strategy chain, all verified:
    catalog lookup; merging variables of a wider all-ones design of the same
    order (catalog entry or the symmetric all-ones construction); doubling a
    symmetric design of half the order when the type has a unit slot; and
    x*I + y*S for a type (1, k) or (k, 1) with k below the order, S a skew
    weighing matrix from the doubling lemmas.  Every step is a construction,
    none a search, so the answer depends on the type alone.  When all of them
    fail the request is reported unsupported along with the strategy list.
    """
    if not isinstance(t, ODType):
        raise ConstructionError("small_od_provider expects an ODType")
    order = t.order
    if order & (order - 1):
        raise ConstructionError(f"provider only covers power-of-two orders, got {order}")
    strategies: list[str] = []

    catalog = load_catalog(catalog_dir)
    for entry in catalog:
        if entry.witness.claim == t:
            return entry.witness
    strategies.append("catalog: no entry of this exact order and type")

    for entry in catalog:
        claim = entry.witness.claim
        assert isinstance(claim, ODType)
        if claim.order != order or set(claim.type_tuple) != {1}:
            continue
        if t.total_weight <= claim.num_vars:
            base = entry.witness.matrix
            assert isinstance(base, SignedVarMatrix)
            trace = _trace(
                "small-od-provider",
                notes=(f"merge of catalog entry {entry.name}",),
                order=order,
                type=t.type_tuple,
            )
            return _provider_merge_all_ones(base, claim.num_vars, t, trace)
    strategies.append("merge: no all-ones catalog entry wide enough")

    exponent = order.bit_length() - 1
    if t.total_weight <= exponent:
        base_witness = symmetric_od_pow2(exponent)
        base = base_witness.matrix
        assert isinstance(base, SignedVarMatrix)
        trace = _trace(
            "small-od-provider",
            notes=("merge of the symmetric all-ones construction",),
            subs=(base_witness.trace,),
            order=order,
            type=t.type_tuple,
        )
        return _provider_merge_all_ones(base, exponent, t, trace)
    strategies.append(
        "merge: symmetric all-ones construction carries too little weight"
    )

    if 1 in t.type_tuple and order >= 4:
        unit_slot = (
            len(t.type_tuple) - tuple(reversed(t.type_tuple)).index(1)
        )  # last unit slot, 1-based
        sub_type_tuple = (
            t.type_tuple[: unit_slot - 1] + t.type_tuple[unit_slot:]
        )
        if sub_type_tuple and sum(sub_type_tuple) <= order // 2:
            try:
                sub = small_od_provider(
                    ODType(order // 2, sub_type_tuple), catalog_dir=catalog_dir
                )
            except UnsupportedParameterError as err:
                strategies.append(f"doubling: half-order design unavailable ({err})")
            else:
                if sub.structure.symmetric:
                    return _double_with_unit_slot(sub, t, unit_slot)
                strategies.append("doubling: half-order design is not symmetric")
        else:
            strategies.append("doubling: no room for the remaining type")
    else:
        strategies.append("doubling: no unit slot in the type, or order below 4")

    if t.num_vars == 2 and 1 in t.type_tuple:
        unit_slot = t.type_tuple.index(1) + 1
        k = t.type_tuple[2 - unit_slot]
        if k < order:
            codes = (3 - unit_slot) * _skew_weighing_pow2(order, k)
            codes += unit_slot * np.eye(order, dtype=np.int64)
            trace = _trace(
                "small-od-provider",
                notes=("x*I + y*S with S a skew weighing matrix from the doubling lemmas",),
                order=order,
                type=t.type_tuple,
            )
            return _od_witness(SignedVarMatrix(codes, 2), t, trace)
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


def _unit_transpose_rows(unit: IntMatrix) -> tuple[np.ndarray, np.ndarray]:
    """For a signed permutation E, the rows and signs with
    (E.T @ Y)[c] = signs[c] * Y[rows[c]]: E.T @ Y is a signed row gather."""
    n = unit.rows
    rows, cols = np.divmod(np.flatnonzero(unit.entries != 0), n)
    if rows.size != n or not np.array_equal(np.sort(cols), np.arange(n)):
        raise VerificationInternalError("unit member is not a signed permutation")
    src = np.empty(n, dtype=np.intp)
    src[cols] = rows
    signs = np.empty(n, dtype=np.int64)
    signs[cols] = unit.entries[rows, cols]
    return src, signs


def _normalized_unit_family(w: Witness) -> list[IntMatrix]:
    """Turn a verified design family of type (1, s2, ..., sl) into a family
    whose unit member is the identity, by multiplying every member on the
    left by the transpose of the unit member.  The non-unit members of the
    result are skew-symmetric."""
    matrix = w.matrix
    assert isinstance(matrix, SignedVarMatrix)
    family = decompose_family(matrix)
    src, signs = _unit_transpose_rows(family[0])
    normalized = [IntMatrix(signs[:, None] * member.entries[src]) for member in family]
    for i, member in enumerate(normalized[1:], start=2):
        arr = member.entries
        if not np.array_equal(arr.T, -arr):
            raise VerificationInternalError(
                f"normalized member {i} is not skew-symmetric"
            )
    return normalized


def skew_od_pow2_four(k1: int, k2: int, k3: int, k4: int) -> Witness:
    """Skew-symmetric design of order 2**(t1 + t2 + 1) and type (k1,k2,k3,k4).

    t1 and t2 are the smallest exponents with 1 + k1 + k2 <= 2**t1 and
    1 + k3 + k4 <= 2**t2.  Two provider designs of types (1, k1, k2) and
    (1, k3, k4) are normalized so their unit member is the identity; the
    four output matrices are then I x A_i x P and B_i x I x Q, all of them
    skew-symmetric.
    """
    ks = (k1, k2, k3, k4)
    if any(not isinstance(k, int) or k < 1 for k in ks):
        raise ConstructionError(f"all four weights must be positive integers, got {ks}")
    t1 = minimal_pow2_exponent(1 + k1 + k2)
    t2 = minimal_pow2_exponent(1 + k3 + k4)
    first = small_od_provider(ODType(1 << t1, (1, k1, k2)))
    second = small_od_provider(ODType(1 << t2, (1, k3, k4)))
    a_family = _normalized_unit_family(first)
    b_family = _normalized_unit_family(second)
    eye1 = np.eye(1 << t1, dtype=np.int64)
    eye2 = np.eye(1 << t2, dtype=np.int64)
    summands = (
        np.kron(eye2, np.kron(a_family[1].entries, _P)),
        np.kron(eye2, np.kron(a_family[2].entries, _P)),
        np.kron(b_family[1].entries, np.kron(eye1, _Q)),
        np.kron(b_family[2].entries, np.kron(eye1, _Q)),
    )
    codes = np.zeros_like(summands[0])
    for var, summand in enumerate(summands, start=1):
        codes += var * summand
    order = 1 << (t1 + t2 + 1)
    x = SignedVarMatrix(codes, 4)
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
    w = _od_witness(x, ODType(order, ks), trace)
    if not w.structure.skew_symmetric:
        raise VerificationInternalError("four-block skew design lost skewness")
    return w


def add_identity_variable(w: Witness) -> Witness:
    """Prepend a fresh weight-1 variable riding the identity to a design
    whose members are all skew-symmetric."""
    if not w.is_od:
        raise ConstructionError("add_identity_variable expects a design witness")
    matrix = w.matrix
    assert isinstance(matrix, SignedVarMatrix)
    for i, member in enumerate(decompose_family(matrix), start=1):
        arr = member.entries
        if not np.array_equal(arr.T, -arr):
            raise ConstructionError(
                f"variable {i} is not skew-symmetric; identity slot unavailable"
            )
    codes = matrix.codes + np.sign(matrix.codes)  # shift every index up by one
    codes = codes + np.eye(w.order, dtype=codes.dtype)
    x = SignedVarMatrix(codes, matrix.num_vars + 1)
    claim = w.claim
    assert isinstance(claim, ODType)
    t = ODType(claim.order, (1,) + claim.type_tuple)
    return _od_witness(x, t, _trace("add-identity-variable", subs=(w.trace,)))


# ---------------------------------------------------------------------------
# Coprime combination
# ---------------------------------------------------------------------------


def _block_diagonal(blocks: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """I_a x A (+) I_b x B (+) ... for (a, A), (b, B), ..., written block by
    block into one preallocated int64 grid."""
    order = sum(count * block.shape[0] for count, block in blocks)
    grid = np.zeros((order, order), dtype=np.int64)
    offset = 0
    for count, block in blocks:
        size = block.shape[0]
        for _ in range(count):
            grid[offset : offset + size, offset : offset + size] = block
            offset += size
    return grid


@dataclass(frozen=True)
class SeedRecipe:
    """A seed design's claim and recipe without its matrix: all that
    combining its finished form reads of the design."""

    claim: ODType
    trace: Trace

    @staticmethod
    def of(w: Witness) -> "SeedRecipe":
        return SeedRecipe(w.claim, w.trace)


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
    Symmetry of both inputs carries over to the output.
    """
    a, b, trace = _coprime_plan(w1, w2, t)
    m1, m2 = w1.matrix, w2.matrix
    assert isinstance(m1, SignedVarMatrix) and isinstance(m2, SignedVarMatrix)
    codes = _block_diagonal(((a, m1.codes), (b, m2.codes)))
    xm = SignedVarMatrix._adopt(codes, m1.num_vars)
    claim = w1.claim
    assert isinstance(claim, ODType)
    out = _od_witness(xm, ODType(xm.order, claim.type_tuple), trace)
    if w1.structure.symmetric and w2.structure.symmetric:
        if not out.structure.symmetric:
            raise VerificationInternalError("combination of symmetric inputs lost symmetry")
    return out


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
    (I_a x F1) (+) (I_b x F2).  That matrix is written into one grid and
    verified once, at order h*t.  Its recipe is F1's with A's replaced by
    the combine-coprime node, so replay runs the finishing step on the
    combined design.
    """
    (w1, f1), (w2, f2) = first, second
    a, b, combined = _coprime_plan(w1, w2, t)
    c1, c2 = f1.claim, f2.claim
    if not (isinstance(c1, WeighingType) and isinstance(c2, WeighingType)):
        raise ConstructionError("finished seeds must be weighing-matrix witnesses")
    if c1.weight != c2.weight or (c1.order, c2.order) != (w1.claim.order, w2.claim.order):
        raise ConstructionError("finished seeds must share a weight and their seeds' orders")
    grid = _block_diagonal(((a, f1.matrix.entries), (b, f2.matrix.entries)))
    trace = _rebase(f1.trace, w1.trace, combined)
    out = _weighing_witness(IntMatrix._adopt(grid), grid.shape[0], c1.weight, trace)
    for shape in ("symmetric", "skew_symmetric"):
        kept = getattr(f1.structure, shape) and getattr(f2.structure, shape)
        if kept and not getattr(out.structure, shape):
            raise VerificationInternalError(f"combination of finished seeds lost {shape}")
    return out


# ---------------------------------------------------------------------------
# Odd-order constructions from circulant blocks
# ---------------------------------------------------------------------------


def _cw_block(q: int) -> Witness:
    """Circulant weighing block of weight q**2; q = 1 uses the order-3
    convention circulant((1, 0, 0)) so the block order is always odd."""
    if q == 1:
        trace = _trace("circulant-weighing-trivial", n=3)
        return _weighing_witness(circulant((1, 0, 0)), 3, 1, trace)
    return circulant_cw(q)


def symmetric_w_square_odd(k: int) -> Witness:
    """Symmetric weighing matrix of square weight k on an odd order.

    Each prime-power factor q of sqrt(k) contributes a circulant block of
    weight q**2 made symmetric by the back-diagonal reflection; the result
    is the Kronecker product of the blocks, of odd order prod(q**2 + q + 1).
    """
    fact = prime_power_square_factorize(k)
    blocks = []
    sub_traces = []
    for q in fact.factors:
        cw = _cw_block(q)
        sub_traces.append(cw.trace)
        # the reflection C @ back_diagonal reverses C's columns
        blocks.append(IntMatrix(cw.matrix.entries[:, ::-1]))
    product = reduce(kronecker, blocks)
    order = int(np.prod([b.rows for b in blocks]))
    assert order % 2 == 1
    trace = _trace(
        "symmetric-weighing-square",
        subs=tuple(sub_traces),
        k=k,
        q_list=fact.factors,
    )
    out = _weighing_witness(product, order, k, trace)
    if not out.structure.symmetric:
        raise VerificationInternalError("square-weight construction lost symmetry")
    return out


@dataclass(frozen=True)
class _OddBlockPlan:
    """Shared scaffolding for the 2-, 4-, and 8-block arrays: per-variable
    coefficient blocks of common odd order q, plus the trace data."""

    blocks: tuple[IntMatrix | None, ...]
    q: int
    b_list: tuple[int, ...]
    q_lists: tuple[tuple[int, ...], ...]
    sub_traces: tuple[Trace, ...]


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
    return tuple(b_list), int(np.prod(b_list))


def _odd_block_plan(ks: Sequence[int]) -> _OddBlockPlan:
    """Build the circulant Kronecker blocks for weights ks (zeros allowed).

    Every nonzero k_j is factored into prime powers q_{1j}, ..., q_{mj}
    (padded with 1s at the end to a common length m); level i uses the
    common order b_i = lcm_j(q_{ij}**2 + q_{ij} + 1), each block spread to
    that order.  Block 1 is reflected level-wise to back-circulant form.
    """
    nonzero = [j for j, k in enumerate(ks) if k != 0]
    lists, b_list = _odd_block_arith(ks)
    m = len(b_list)
    sub_traces: list[Trace] = []
    blocks: list[IntMatrix | None] = []
    for j, k in enumerate(ks):
        if k == 0:
            blocks.append(None)
            continue
        levels = []
        for i in range(m):
            q_ij = lists[j][i]
            base = _cw_block(q_ij)
            spread = spread_circulant(base, b_list[i] // base.order)
            sub_traces.append(spread.trace)
            level = spread.matrix
            # Only the block in the arrays' diagonal slot is reflected to
            # back-circulant (symmetric) form; the off-diagonal slots need
            # plain circulants for their transpose identities.  Multiplying
            # by the back-diagonal permutation on the right reverses columns.
            if j == 0:
                level = IntMatrix(level.entries[:, ::-1])
            levels.append(level)
        blocks.append(reduce(kronecker, levels))
    q = int(np.prod(b_list))
    return _OddBlockPlan(
        blocks=tuple(blocks),
        q=q,
        b_list=tuple(b_list),
        q_lists=tuple(tuple(lists[j]) for j in nonzero),
        sub_traces=tuple(sub_traces),
    )


def _block_array(
    layout: Sequence[Sequence[tuple[int, int, IntMatrix | None]]],
    q: int,
    num_vars: int,
) -> SignedVarMatrix:
    """Assemble a block matrix of variable-coded cells.

    Each layout cell is (variable index, sign, block) where variable index 0
    or block None mean an all-zero block of order q.
    """
    rows = []
    for row in layout:
        cells = []
        for var, sign, block in row:
            if var == 0 or block is None:
                cells.append(np.zeros((q, q), dtype=np.int64))
            else:
                cells.append(var * sign * block.entries.astype(np.int64))
        rows.append(cells)
    return SignedVarMatrix(np.block(rows), num_vars)


def two_square_od(k1: int, k2: int) -> Witness:
    """Design of order 2q and type (k1**2, k2**2) with q odd.

    The two diagonal blocks carry the back-circulant product A, the two
    off-diagonal blocks the circulant product B, in the sign pattern
    [[A, B], [B, -A]].
    """
    if any(not isinstance(k, int) or k < 1 for k in (k1, k2)):
        raise ConstructionError(f"both weights must be positive integers, got {(k1, k2)}")
    plan = _odd_block_plan((k1, k2))
    a, b = plan.blocks
    assert a is not None and b is not None
    layout = [
        [(1, 1, a), (2, 1, b)],
        [(2, 1, b), (1, -1, a)],
    ]
    x = _block_array(layout, plan.q, 2)
    trace = _trace(
        "two-square-od",
        subs=plan.sub_traces,
        k1=k1,
        k2=k2,
        b_list=plan.b_list,
        q_lists=plan.q_lists,
        q=plan.q,
    )
    return _od_witness(x, ODType(2 * plan.q, (k1 * k1, k2 * k2)), trace)


def _transposed(block: IntMatrix | None) -> IntMatrix | None:
    return None if block is None else transpose(block)


def _four_block_layout(
    blocks: Sequence[IntMatrix | None], variables: Sequence[int]
) -> list[list[tuple[int, int, IntMatrix | None]]]:
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


def goethals_seidel_od(k1: int, k2: int, k3: int, k4: int) -> Witness:
    """Goethals-Seidel block array: order 4q, type (k1**2, ..., k4**2) with
    zero weights dropping their variable (zero blocks stay in the array)."""
    ks = (k1, k2, k3, k4)
    if any(not isinstance(k, int) or k < 0 for k in ks):
        raise ConstructionError(f"weights must be nonnegative integers, got {ks}")
    plan = _odd_block_plan(ks)
    variables, type_tuple = _variable_assignment(ks, start=1)
    layout = _four_block_layout(plan.blocks, variables)
    x = _block_array(layout, plan.q, len(type_tuple))
    trace = _trace(
        "goethals-seidel-od",
        subs=plan.sub_traces,
        ks=ks,
        b_list=plan.b_list,
        q_lists=plan.q_lists,
        q=plan.q,
    )
    return _od_witness(x, ODType(4 * plan.q, type_tuple), trace)


def eight_block_od(k1: int, k2: int, k3: int, k4: int) -> Witness:
    """Doubled block array: order 8q, type (1, k1**2, ..., k4**2).

    The array is [[G, x*I], [x*I, G']] for the fresh weight-1 variable x:
    G is the four-block array on (A, B, C, D), and G' is the four-block
    array on (A, B^T, C^T, D^T) with its diagonal negated.
    """
    ks = (k1, k2, k3, k4)
    if any(not isinstance(k, int) or k < 0 for k in ks):
        raise ConstructionError(f"weights must be nonnegative integers, got {ks}")
    plan = _odd_block_plan(ks)
    variables, squared = _variable_assignment(ks, start=2)
    a, b, c, d = plan.blocks
    upper = _four_block_layout(plan.blocks, variables)
    lower = _four_block_layout((a, *(_transposed(m) for m in (b, c, d))), variables)
    for i, row in enumerate(lower):
        var, sign, block = row[i]
        row[i] = (var, -sign, block)
    eye = identity(plan.q)
    unit = [[(1, 1, eye) if i == j else (0, 1, None) for j in range(4)] for i in range(4)]
    layout = [g + u for g, u in zip(upper, unit)] + [u + g for u, g in zip(unit, lower)]
    x = _block_array(layout, plan.q, 1 + len(squared))
    trace = _trace(
        "eight-block-od",
        subs=plan.sub_traces,
        ks=ks,
        b_list=plan.b_list,
        q_lists=plan.q_lists,
        q=plan.q,
    )
    return _od_witness(x, ODType(8 * plan.q, (1,) + squared), trace)


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
    expected = k * np.eye(4, dtype=np.int64)
    if not np.array_equal(np.asarray(product, dtype=object), np.asarray(expected, dtype=object)):
        raise VerificationInternalError("rational seed failed its product identity")
    if not np.array_equal(d.entries.T, -d.entries):
        raise VerificationInternalError("rational seed is not skew")
    return d


def od_from_weighing(w: Witness) -> Witness:
    """Wrap a weighing matrix as a single-variable design (type (k,))."""
    if not isinstance(w.claim, WeighingType):
        raise ConstructionError("od_from_weighing expects a weighing-matrix witness")
    matrix = w.matrix
    assert isinstance(matrix, IntMatrix)
    codes = matrix.entries.astype(np.int64)
    x = SignedVarMatrix(codes, 1)
    t = ODType(w.claim.order, (w.claim.weight,))
    return _od_witness(x, t, _trace("od-from-weighing", subs=(w.trace,)))


def collapse_od_to_weighing(w: Witness) -> Witness:
    """Set every variable of a design to +1, yielding a weighing matrix of
    the summed weight."""
    if not w.is_od:
        raise ConstructionError("collapse_od_to_weighing expects a design witness")
    matrix = w.matrix
    assert isinstance(matrix, SignedVarMatrix)
    flat = _substitute_variables(matrix, {i: 1 for i in range(1, matrix.num_vars + 1)})
    claim = w.claim
    assert isinstance(claim, ODType)
    k = claim.total_weight
    return _weighing_witness(
        flat, claim.order, k, _trace("collapse-to-weighing", subs=(w.trace,))
    )


def merge_od_variables(
    w: Witness, groups: Sequence[Sequence[int]], zeros: Sequence[int] = ()
) -> Witness:
    """Merge design variables group-wise (weights add) and zero the rest.

    groups[i] lists the old 1-based variables that become new variable i+1;
    zeros lists old variables to drop.  Groups and zeros must partition the
    variable set.
    """
    if not w.is_od:
        raise ConstructionError("merge_od_variables expects a design witness")
    matrix = w.matrix
    claim = w.claim
    assert isinstance(matrix, SignedVarMatrix) and isinstance(claim, ODType)
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
    assert isinstance(merged, SignedVarMatrix)
    new_type = tuple(
        sum(claim.type_tuple[old - 1] for old in group) for group in groups
    )
    trace = _trace(
        "merge-variables",
        subs=(w.trace,),
        groups=tuple(tuple(g) for g in groups),
        zeros=tuple(zeros),
    )
    return _od_witness(merged, ODType(claim.order, new_type), trace)


def skew_weighing_from_unit_slot(w: Witness) -> Witness:
    """From a design of type (1, k) with family (E, S), return the skew
    weighing matrix E.T @ S of weight k."""
    if not w.is_od:
        raise ConstructionError("skew_weighing_from_unit_slot expects a design witness")
    claim = w.claim
    assert isinstance(claim, ODType)
    if claim.num_vars != 2 or claim.type_tuple[0] != 1:
        raise ConstructionError(
            f"need a design of type (1, k), got {claim.type_tuple}"
        )
    matrix = w.matrix
    assert isinstance(matrix, SignedVarMatrix)
    unit, heavy = decompose_family(matrix)
    src, signs = _unit_transpose_rows(unit)
    skew = IntMatrix(signs[:, None] * heavy.entries[src])
    k = claim.type_tuple[1]
    out = _weighing_witness(
        skew, claim.order, k, _trace("skew-from-unit-slot", subs=(w.trace,))
    )
    if not out.structure.skew_symmetric:
        raise VerificationInternalError("unit-slot extraction did not produce a skew matrix")
    return out


def identity_weighing(n: int) -> Witness:
    """The identity matrix as a weighing matrix of weight 1 (symmetric and
    circulant at once)."""
    if not isinstance(n, int) or n < 1:
        raise ConstructionError(f"order must be a positive integer, got {n}")
    return _weighing_witness(identity(n), n, 1, _trace("weighing-identity", n=n))


def skew_pairs_weighing(n: int) -> Witness:
    """Skew weighing matrix of weight 1 on any even order: a direct sum of
    2x2 rotation blocks."""
    if not isinstance(n, int) or n < 2 or n % 2:
        raise ConstructionError(f"order must be a positive even integer, got {n}")
    m = IntMatrix(np.kron(np.eye(n // 2, dtype=np.int64), _K))
    out = _weighing_witness(m, n, 1, _trace("skew-weighing-pairs", n=n))
    if not out.structure.skew_symmetric:
        raise VerificationInternalError("pair construction is not skew")
    return out


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def _replay_sub(trace: Trace, i: int = 0) -> Witness:
    return replay(trace.subs[i])


def _replay_provider(trace: Trace) -> Witness:
    return small_od_provider(ODType(trace.param("order"), tuple(trace.param("type"))))


def _replay_doubled(trace: Trace) -> Witness:
    """A provider doubling step: twice the sub-design's order, with a unit
    weight inserted at the recorded slot."""
    claim = _replay_sub(trace).claim
    assert isinstance(claim, ODType)
    type_tuple = list(claim.type_tuple)
    type_tuple.insert(trace.param("unit_slot") - 1, 1)
    return small_od_provider(ODType(2 * claim.order, tuple(type_tuple)))


# Trace operation -> builder that re-runs it.  Builders are looked up by name
# when a recipe replays, not bound here.
_REPLAY = {
    "circulant-weighing": lambda t: circulant_cw(t.param("q")),
    "circulant-weighing-trivial": lambda t: _cw_block(1),
    "spread": lambda t: spread_circulant(_replay_sub(t), t.param("c")),
    "symmetric-od-all-ones": lambda t: symmetric_od_pow2(t.param("k")),
    "od-catalog": _replay_provider,
    "small-od-provider": _replay_provider,
    "double-symmetric-design": _replay_doubled,
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
