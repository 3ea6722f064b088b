"""Existence decisions for weighing matrices with structure constraints.

The engine answers (order, weight, structure) queries with one of three
verdicts: ``Exists`` carrying a fully verified witness, ``NotExists``
carrying a re-checkable arithmetic certificate, or ``Unknown`` — never a
guess.  It also computes explicit order thresholds N such that the matching
combination construction succeeds for every target at or beyond N, with the
whole derivation recorded.

Threshold semantics: a bound for family "<structure>-Hn" means the engine can
materialize the structured matrix of weight k in every order H*t with
t >= N; the derivation records the two seed orders whose greatest common
divisor is H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .arith import (
    decompose_four_nonzero_squares,
    decompose_four_squares,
    decompose_three_squares,
    decompose_two_nonzero_squares,
    is_prime_power,
    is_sum_of_three_squares,
)
from .constructions import (
    DEFAULT_SEARCH_MS,
    UnsupportedParameterError,
    Witness,
    add_identity_variable,
    circulant_cw,
    collapse_od_to_weighing,
    combine_coprime,
    eight_block_od,
    goethals_seidel_od,
    identity_weighing,
    merge_od_variables,
    minimal_pow2_exponent,
    od_from_weighing,
    odd_block_orders,
    skew_od_pow2_four,
    skew_pairs_weighing,
    skew_weighing_from_unit_slot,
    small_od_provider,
    spread_circulant,
    symmetric_od_pow2,
    symmetric_w_square_odd,
    two_square_od,
)
from .matrices import ODType

__all__ = [
    "ExistenceError",
    "Query",
    "NotExistsCertificate",
    "BoundDerivation",
    "Verdict",
    "nonexistence_check",
    "bound_N",
    "exists_query",
    "BOUND_FAMILIES",
    "SUPPORTED_CIRCULANT_Q",
    "DEFAULT_CELL_BUDGET",
]

STRUCTURES = ("plain", "symmetric", "skew", "circulant")
BOUND_FAMILIES = (
    "sym-square",
    "two-square-2n",
    "four-square-4n",
    "skew-2n",
    "skew-4n",
    "skew-8n",
)
# Prime powers whose circulant construction is known to finish quickly; the
# constructor itself remains open-ended.
SUPPORTED_CIRCULANT_Q = (2, 3, 4, 5, 7, 8, 9)
DEFAULT_CELL_BUDGET = 10**8


class ExistenceError(ValueError):
    """A query or bound request was malformed or inadmissible."""


@dataclass(frozen=True)
class Query:
    """One existence question: order, weight, structure, extras."""

    n: int
    k: int
    structure: str = "plain"
    zero_diagonal: bool = False

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ExistenceError(f"order must be a positive integer, got {self.n}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ExistenceError(f"weight must be a positive integer, got {self.k}")
        if self.k > self.n:
            raise ExistenceError(f"weight {self.k} exceeds order {self.n}")
        if self.structure not in STRUCTURES:
            raise ExistenceError(
                f"structure must be one of {STRUCTURES}, got {self.structure!r}"
            )


@dataclass(frozen=True)
class NotExistsCertificate:
    """Re-checkable reason a query has no solution.

    ``rule`` names the obstruction; ``params`` stores the raw numbers the
    predicate needs, so :meth:`recheck` re-evaluates it from scratch.
    """

    rule: str
    params: tuple[tuple[str, int], ...]
    explanation: str

    def param(self, key: str) -> int:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def recheck(self) -> bool:
        n = self.param("n")
        if self.rule == "symmetric-zero-diagonal-odd-order":
            return n % 2 == 1
        if self.rule == "skew-odd-order":
            return n % 2 == 1
        if self.rule == "skew-weight-not-three-squares":
            k = self.param("k")
            return n % 8 == 4 and not is_sum_of_three_squares(k)
        raise ExistenceError(f"unknown certificate rule {self.rule!r}")


@dataclass(frozen=True)
class BoundDerivation:
    """An explicit threshold N with the arithmetic that produced it.

    The combination construction pairs an odd-order seed with a power-of-two
    seed sharing the factor h; every target order h*t with t >= N = x*y is
    then reachable.  ``materializable`` records whether the engine can build
    the power-of-two seed at desk scale (the threshold is valid either way).
    """

    family: str
    k: int
    ks: tuple[int, ...]
    b_list: tuple[int, ...]
    q: int
    odd_order: int
    pow2_order: int
    h: int
    x: int
    y: int
    N: int
    exponents: tuple[tuple[str, int], ...]
    materializable: bool
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [
            f"family {self.family}: weight {self.k}, N = {self.N}",
            f"  decomposition ks = {self.ks}",
            f"  level orders b = {list(self.b_list)}, odd part q = {self.q}",
            f"  seeds: odd order {self.odd_order}, power-of-two order {self.pow2_order}",
            f"  shared factor h = {self.h}; N = x*y = {self.x} * {self.y}",
            "  exponents: " + ", ".join(f"{k}={v}" for k, v in self.exponents),
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an existence query."""

    kind: str  # "exists" | "not-exists" | "unknown"
    witness: Optional[Witness] = None
    certificate: Optional[NotExistsCertificate] = None
    bound: Optional[BoundDerivation] = None
    note: str = ""

    @staticmethod
    def exists(witness: Witness) -> "Verdict":
        return Verdict(kind="exists", witness=witness)

    @staticmethod
    def not_exists(cert: NotExistsCertificate) -> "Verdict":
        return Verdict(kind="not-exists", certificate=cert)

    @staticmethod
    def unknown(note: str, bound: Optional[BoundDerivation] = None) -> "Verdict":
        return Verdict(kind="unknown", bound=bound, note=note)


# ---------------------------------------------------------------------------
# Nonexistence rules
# ---------------------------------------------------------------------------


def nonexistence_check(query: Query) -> Optional[NotExistsCertificate]:
    """First applicable arithmetic obstruction, or None (no objection)."""
    n, k = query.n, query.k
    if query.structure == "symmetric" and query.zero_diagonal and n % 2 == 1:
        return NotExistsCertificate(
            rule="symmetric-zero-diagonal-odd-order",
            params=(("n", n), ("k", k)),
            explanation=(
                f"a symmetric weighing matrix with zero diagonal needs an even "
                f"order; {n} is odd"
            ),
        )
    if query.structure == "skew" and n % 2 == 1:
        return NotExistsCertificate(
            rule="skew-odd-order",
            params=(("n", n), ("k", k)),
            explanation=f"a skew-symmetric weighing matrix needs an even order; {n} is odd",
        )
    if query.structure == "skew" and n % 8 == 4 and not is_sum_of_three_squares(k):
        quotient = k
        while quotient % 4 == 0:
            quotient //= 4
        return NotExistsCertificate(
            rule="skew-weight-not-three-squares",
            params=(("n", n), ("k", k), ("n_mod_8", n % 8), ("k_core_mod_8", quotient % 8)),
            explanation=(
                f"order {n} = 4 * {n // 4} with {n // 4} odd forces the weight to be "
                f"a sum of three squares, but {k} reduces to {quotient} = 8m + 7"
            ),
        )
    return None


# ---------------------------------------------------------------------------
# Default weight decompositions
# ---------------------------------------------------------------------------


def _default_two_square(k: int) -> tuple[int, int]:
    pair = decompose_two_nonzero_squares(k)
    if pair is None:
        raise ExistenceError(f"{k} is not a sum of two nonzero squares")
    return pair


def _default_three_square(k: int) -> tuple[int, int, int]:
    triple = decompose_three_squares(k)
    if triple is None:
        raise ExistenceError(f"{k} is not a sum of three squares")
    return triple


def _default_four_square(k: int) -> tuple[int, int, int, int]:
    """Square-part extraction: pull the largest square s**2 out of k, write
    the core as four squares (all nonzero when possible, lexicographically
    smallest), and scale by s."""
    s = 1
    for d in range(2, math.isqrt(k) + 1):
        if k % (d * d) == 0:
            s = d
    core = k // (s * s)
    quad = decompose_four_nonzero_squares(core)
    if quad is None:
        quad = decompose_four_squares(core)
    return tuple(s * v for v in quad)  # type: ignore[return-value]


def _two_square_candidates(k: int) -> list[tuple[int, int]]:
    """All (a, b) with 1 <= a <= b and a**2 + b**2 = k."""
    out = []
    for a in range(1, math.isqrt(k) + 1):
        rem = k - a * a
        if rem < a * a:
            break
        b = math.isqrt(rem)
        if b * b == rem:
            out.append((a, b))
    return out


_ENUMERATION_CAP = 10**4


def _four_square_candidates(k: int) -> list[tuple[int, int, int, int]]:
    """Quadruples (zeros allowed) whose squares sum to k, the default
    square-extraction one first; the full ascending enumeration is added for
    weights up to the enumeration cap."""
    default = _default_four_square(k)
    out = [default]
    seen = {tuple(sorted(default))}
    if k > _ENUMERATION_CAP:
        return out
    for a in range(math.isqrt(k // 4) + 1):
        rem_a = k - a * a
        for b in range(a, math.isqrt(rem_a // 3) + 1):
            rem_b = rem_a - b * b
            for c in range(b, math.isqrt(rem_b // 2) + 1):
                rem_c = rem_b - c * c
                d = math.isqrt(rem_c)
                if d * d == rem_c and d >= c:
                    quad = (a, b, c, d)
                    if quad not in seen:
                        seen.add(quad)
                        out.append(quad)
    return out


def _validate_ks(k: int, ks: tuple[int, ...], count: int, family: str) -> tuple[int, ...]:
    if len(ks) != count:
        raise ExistenceError(f"family {family} needs {count} components, got {ks}")
    if any(not isinstance(v, int) or v < 0 for v in ks):
        raise ExistenceError(f"components must be nonnegative integers, got {ks}")
    if sum(v * v for v in ks) != k:
        raise ExistenceError(
            f"component squares sum to {sum(v * v for v in ks)}, not {k}"
        )
    return ks


# ---------------------------------------------------------------------------
# Threshold computation
# ---------------------------------------------------------------------------


def _provider_minimal_exponent(
    type_tuple: tuple[int, ...], search_ms: int
) -> tuple[int, bool, str]:
    """Smallest exponent t whose order-2**t design of this type the provider
    can actually build (tried up to 2**4); when none works, fall back to the
    smallest t >= 3 with total weight <= 2**t - 2.  Returns (t, built, note)."""
    total = sum(type_tuple)
    for t in range(minimal_pow2_exponent(total), 5):
        try:
            small_od_provider(ODType(1 << t, type_tuple), search_ms=search_ms)
        except UnsupportedParameterError:
            continue
        return t, True, f"power-of-two seed materialized at order {1 << t}"
    t = 3
    while (1 << t) - 2 < total:
        t += 1
    return t, False, (
        f"power-of-two seed not materialized; exponent {t} from the "
        f"weight-capacity rule (total {total} <= 2**t - 2)"
    )


def bound_N(
    k: int,
    family: str,
    ks: Optional[tuple[int, ...]] = None,
    *,
    search_ms: int = DEFAULT_SEARCH_MS,
) -> BoundDerivation:
    """Explicit threshold N for one combination family at weight k.

    ``ks`` overrides the default weight decomposition (its squares must sum
    to k).  The derivation records the odd-side plan (factor lists collapse
    to the level orders b_i and their product q), the power-of-two side
    exponents, the shared factor h, and N = x*y.
    """
    if not isinstance(k, int) or k < 1:
        raise ExistenceError(f"weight must be a positive integer, got {k}")
    if family not in BOUND_FAMILIES:
        raise ExistenceError(f"family must be one of {BOUND_FAMILIES}, got {family!r}")
    notes: list[str] = []

    if family == "sym-square":
        if ks is not None:
            raise ExistenceError("sym-square takes no decomposition override")
        root = math.isqrt(k)
        if root * root != k:
            raise ExistenceError(f"sym-square needs a perfect square weight, got {k}")
        b_list, q = odd_block_orders((root,))
        odd_order = q
        pow2_order = 1 << k
        h = 1
        x, y = odd_order, pow2_order
        materializable = pow2_order * pow2_order <= DEFAULT_CELL_BUDGET
        if not materializable:
            notes.append(
                "power-of-two seed order 2**k is beyond desk scale; threshold is still exact"
            )
        return BoundDerivation(
            family=family,
            k=k,
            ks=(root,),
            b_list=b_list,
            q=q,
            odd_order=odd_order,
            pow2_order=pow2_order,
            h=h,
            x=x,
            y=y,
            N=x * y,
            exponents=(("pow2_exponent", k),),
            materializable=materializable,
            notes=tuple(notes),
        )

    if family in ("two-square-2n", "skew-2n"):
        if family == "two-square-2n":
            pair = _validate_ks(k, ks, 2, family) if ks is not None else _default_two_square(k)
            if 0 in pair:
                raise ExistenceError("two-square components must be nonzero")
            type_tuple = (pair[0] ** 2, pair[1] ** 2)
            odd_ks = pair
        else:
            if ks is not None:
                raise ExistenceError("skew-2n takes no decomposition override")
            root = math.isqrt(k)
            if root * root != k:
                raise ExistenceError(f"skew-2n needs a perfect square weight, got {k}")
            type_tuple = (1, k)
            odd_ks = (1, root)
            pair = (1, root)
        b_list, q = odd_block_orders(odd_ks)
        t, materializable, note = _provider_minimal_exponent(type_tuple, search_ms)
        notes.append(note)
        odd_order = 2 * q
        pow2_order = 1 << t
        h = 2
        x, y = q, pow2_order // 2
        return BoundDerivation(
            family=family,
            k=k,
            ks=pair,
            b_list=b_list,
            q=q,
            odd_order=odd_order,
            pow2_order=pow2_order,
            h=h,
            x=x,
            y=y,
            N=x * y,
            exponents=(("t", t),),
            materializable=materializable,
            notes=tuple(notes),
        )

    if family in ("four-square-4n", "skew-4n"):
        if family == "four-square-4n":
            quad = _validate_ks(k, ks, 4, family) if ks is not None else _default_four_square(k)
            odd_ks = quad
            squares = tuple(v * v for v in quad)
            padded = tuple(max(s, 1) for s in squares)
            t1 = minimal_pow2_exponent(1 + padded[0] + padded[1])
            t2 = minimal_pow2_exponent(1 + padded[2] + padded[3])
        else:
            if not is_sum_of_three_squares(k):
                raise ExistenceError(
                    f"skew-4n needs a weight that is a sum of three squares, got {k}"
                )
            triple = _validate_ks(k, ks, 3, family) if ks is not None else _default_three_square(k)
            odd_ks = (1,) + triple
            squares = tuple(v * v for v in triple)
            padded = tuple(max(s, 1) for s in squares)
            t1 = minimal_pow2_exponent(1 + 1 + padded[0])
            t2 = minimal_pow2_exponent(1 + padded[1] + padded[2])
            quad = triple
        if any(s != p for s, p in zip(squares, padded)):
            notes.append(
                "zero components padded to weight 1 on the power-of-two side, then zeroed"
            )
        b_list, q = odd_block_orders(odd_ks)
        d = t1 + t2 + 1
        odd_order = 4 * q
        pow2_order = 1 << d
        h = 4
        x, y = q, pow2_order // 4
        materializable = pow2_order * pow2_order <= DEFAULT_CELL_BUDGET
        if not materializable:
            notes.append(
                f"power-of-two seed order 2**{d} is beyond desk scale; threshold is still exact"
            )
        return BoundDerivation(
            family=family,
            k=k,
            ks=quad,
            b_list=b_list,
            q=q,
            odd_order=odd_order,
            pow2_order=pow2_order,
            h=h,
            x=x,
            y=y,
            N=x * y,
            exponents=(("t1", t1), ("t2", t2), ("d", d)),
            materializable=materializable,
            notes=tuple(notes),
        )

    # skew-8n
    quad = _validate_ks(k, ks, 4, family) if ks is not None else _default_four_square(k)
    squares = tuple(v * v for v in quad)
    padded = tuple(max(s, 1) for s in squares)
    if any(s != p for s, p in zip(squares, padded)):
        notes.append(
            "zero components padded to weight 1 on the power-of-two side, then zeroed"
        )
    t1 = minimal_pow2_exponent(1 + padded[0] + padded[1])
    t2 = minimal_pow2_exponent(1 + padded[2] + padded[3])
    d = t1 + t2 + 1
    b_list, q = odd_block_orders((1,) + quad)
    odd_order = 8 * q
    pow2_order = 1 << d
    h = 8
    x, y = q, pow2_order // 8
    materializable = pow2_order * pow2_order <= DEFAULT_CELL_BUDGET
    if not materializable:
        notes.append(
            f"power-of-two seed order 2**{d} is beyond desk scale; threshold is still exact"
        )
    return BoundDerivation(
        family=family,
        k=k,
        ks=quad,
        b_list=b_list,
        q=q,
        odd_order=odd_order,
        pow2_order=pow2_order,
        h=h,
        x=x,
        y=y,
        N=x * y,
        exponents=(("t1", t1), ("t2", t2), ("d", d)),
        materializable=materializable,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Seed pairs for the combination routes (cached; verified on construction)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _sym_square_seeds(k: int, search_ms: int) -> tuple[Witness, Witness]:
    odd = od_from_weighing(symmetric_w_square_odd(k, search_ms=search_ms))
    pow2 = od_from_weighing(collapse_od_to_weighing(symmetric_od_pow2(k)))
    return odd, pow2


def _drop_padded_zeros(
    witness: Witness, squares: tuple[int, ...], first_slot: int
) -> Witness:
    """Keep the unit variable (slot 1), keep each nonzero-square slot as its
    own variable, and zero the slots that were padded up from 0; the result
    has type (1, nonzero squares...)."""
    groups = [(1,)]
    zeros = []
    for i, s in enumerate(squares):
        slot = i + first_slot
        if s == 0:
            zeros.append(slot)
        else:
            groups.append((slot,))
    return merge_od_variables(witness, groups, tuple(zeros))


@lru_cache(maxsize=128)
def _skew_odd_seed(family: str, k: int, search_ms: int) -> Witness:
    """Odd-order design of type (1, ...) summing to 1 + k for the family."""
    if family == "skew-2n":
        return two_square_od(1, math.isqrt(k), search_ms=search_ms)
    if family == "skew-4n":
        triple = _default_three_square(k)
        return goethals_seidel_od(1, *triple, search_ms=search_ms)
    return eight_block_od(*_default_four_square(k), search_ms=search_ms)


@lru_cache(maxsize=128)
def _skew_pow2_seed(family: str, k: int, t: int, search_ms: int) -> Witness:
    """Power-of-two-order design matching the odd seed's type (t is the
    exponent for the half-order family, ignored otherwise)."""
    if family == "skew-2n":
        return small_od_provider(ODType(1 << t, (1, k)), search_ms=search_ms)
    if family == "skew-4n":
        squares = tuple(v * v for v in _default_three_square(k))
        padded = tuple(max(s, 1) for s in squares)
        base = skew_od_pow2_four(1, *padded, search_ms=search_ms)
        return _drop_padded_zeros(base, squares, first_slot=2)
    squares = tuple(v * v for v in _default_four_square(k))
    padded = tuple(max(s, 1) for s in squares)
    base = add_identity_variable(skew_od_pow2_four(*padded, search_ms=search_ms))
    return _drop_padded_zeros(base, squares, first_slot=2)


# ---------------------------------------------------------------------------
# Query dispatch
# ---------------------------------------------------------------------------


def _cells_ok(n: int, budget: int) -> bool:
    return n * n <= budget


def _circulant_route(
    query: Query, search_ms: int, budget: int
) -> Verdict:
    n, k = query.n, query.k
    if k == 1:
        return Verdict.exists(identity_weighing(n))
    root = math.isqrt(k)
    if root * root == k and is_prime_power(root) is not None:
        base_order = root * root + root + 1
        if n % base_order == 0:
            if not _cells_ok(n, budget):
                return Verdict.unknown(
                    f"a circulant witness of order {n} exceeds the cell budget"
                )
            try:
                base = circulant_cw(root, search_ms=search_ms)
            except UnsupportedParameterError as err:
                return Verdict.unknown(f"circulant block unavailable: {err}")
            c = n // base_order
            return Verdict.exists(base if c == 1 else spread_circulant(base, c))
        return Verdict.unknown(
            f"order {n} is not a multiple of {base_order} = q**2 + q + 1"
        )
    return Verdict.unknown(
        "circulant constructions here need weight 1 or a prime-power square weight"
    )


def _symmetric_route(query: Query, search_ms: int, budget: int) -> Verdict:
    n, k = query.n, query.k
    if query.zero_diagonal:
        return Verdict.unknown(
            "no symmetric zero-diagonal construction is implemented for even orders"
        )
    if k == 1:
        return Verdict.exists(identity_weighing(n))
    root = math.isqrt(k)
    if root * root != k:
        return Verdict.unknown(
            "symmetric constructions here need a perfect square weight"
        )
    bound = bound_N(k, "sym-square", search_ms=search_ms)
    if n == bound.odd_order:
        return Verdict.exists(symmetric_w_square_odd(k, search_ms=search_ms))
    if bound.materializable and n == bound.pow2_order:
        _, pow2 = _sym_square_seeds(k, search_ms)
        return Verdict.exists(collapse_od_to_weighing(pow2))
    if n >= bound.N:
        if not _cells_ok(n, budget):
            return Verdict.unknown(
                f"a witness of order {n} exceeds the cell budget", bound
            )
        if not bound.materializable:
            return Verdict.unknown(
                "the power-of-two seed is beyond desk scale", bound
            )
        odd, pow2 = _sym_square_seeds(k, search_ms)
        combined = combine_coprime(odd, pow2, n)
        return Verdict.exists(collapse_od_to_weighing(combined))
    return Verdict.unknown(
        f"order {n} is below the combination threshold {bound.N}", bound
    )


def _skew_verdict_from_unit_type(witness: Witness) -> Verdict:
    """Collapse a (1, k2, ..., kl) design to (1, k) and extract the skew
    weighing matrix."""
    claim = witness.claim
    assert isinstance(claim, ODType)
    if claim.num_vars > 2:
        witness = merge_od_variables(
            witness, [(1,), tuple(range(2, claim.num_vars + 1))]
        )
    return Verdict.exists(skew_weighing_from_unit_slot(witness))


def _skew_route(query: Query, search_ms: int, budget: int) -> Verdict:
    n, k = query.n, query.k
    if k == 1:
        return Verdict.exists(skew_pairs_weighing(n))
    root = math.isqrt(k)
    families = []
    if root * root == k:
        families.append("skew-2n")
    if is_sum_of_three_squares(k):
        families.append("skew-4n")
    families.append("skew-8n")

    attempts: list[str] = []
    last_bound: Optional[BoundDerivation] = None
    for family in families:
        bound = bound_N(k, family, search_ms=search_ms)
        last_bound = bound
        h = bound.h
        t = bound.exponents[0][1]
        if n == bound.odd_order:
            if not _cells_ok(n, budget):
                return Verdict.unknown(
                    f"a witness of order {n} exceeds the cell budget", bound
                )
            return _skew_verdict_from_unit_type(_skew_odd_seed(family, k, search_ms))
        if n == bound.pow2_order and bound.materializable:
            return _skew_verdict_from_unit_type(
                _skew_pow2_seed(family, k, t, search_ms)
            )
        if n % h == 0 and n // h >= bound.N:
            if not _cells_ok(n, budget):
                return Verdict.unknown(
                    f"a witness of order {n} exceeds the cell budget", bound
                )
            if not bound.materializable:
                return Verdict.unknown(
                    "the power-of-two seed is beyond desk scale", bound
                )
            combined = combine_coprime(
                _skew_odd_seed(family, k, search_ms),
                _skew_pow2_seed(family, k, t, search_ms),
                n // h,
            )
            return _skew_verdict_from_unit_type(combined)
        if n == bound.pow2_order:
            attempts.append(
                f"{family}: the power-of-two seed of order {n} was not built "
                f"({'; '.join(bound.notes)})"
            )
        else:
            attempts.append(
                f"{family}: order must be {bound.odd_order}, {bound.pow2_order}, "
                f"or a multiple of {h} at least {h * bound.N}"
            )
    return Verdict.unknown("; ".join(attempts), last_bound)


def _plain_route(query: Query, search_ms: int, budget: int) -> Verdict:
    n, k = query.n, query.k
    if k == 1:
        return Verdict.exists(identity_weighing(n))

    if _cells_ok(n, budget):
        # Exact block-array orders, over every matching small decomposition:
        # two blocks at 2q, four blocks at 4q, doubled four blocks at 8q
        # (their unit row means quads of weight k - 1 land on weight k).
        for pair in _two_square_candidates(k):
            _, q = odd_block_orders(pair)
            if n == 2 * q:
                od = two_square_od(*pair, search_ms=search_ms)
                return Verdict.exists(collapse_od_to_weighing(od))
        for quad in _four_square_candidates(k):
            _, q = odd_block_orders(quad)
            if n == 4 * q:
                od = goethals_seidel_od(*quad, search_ms=search_ms)
                return Verdict.exists(collapse_od_to_weighing(od))
        for quad in _four_square_candidates(k - 1) if k >= 2 else []:
            _, q = odd_block_orders(quad)
            if n == 8 * q:
                od = eight_block_od(*quad, search_ms=search_ms)
                return Verdict.exists(collapse_od_to_weighing(od))

    # Any symmetric witness answers a plain query.
    sym = _symmetric_route(
        Query(n, k, "symmetric", query.zero_diagonal), search_ms, budget
    )
    if sym.kind == "exists":
        return sym
    return Verdict.unknown(
        "no direct block-array order matched and the symmetric route reports: "
        + sym.note,
        sym.bound,
    )


def exists_query(
    query: Query,
    *,
    search_ms: int = DEFAULT_SEARCH_MS,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> Verdict:
    """Decide a structured existence query.

    Pipeline: arithmetic nonexistence rules first, then the construction
    dispatch for the requested structure.  ``Exists`` always carries a
    verified witness whose structure report matches the request; ``Unknown``
    may carry the relevant threshold derivation.
    """
    cert = nonexistence_check(query)
    if cert is not None:
        return Verdict.not_exists(cert)
    if not _cells_ok(query.n, cell_budget):
        return Verdict.unknown(
            f"any witness would hold {query.n}**2 cells, past the budget "
            f"of {cell_budget}; raise the budget to force construction"
        )
    if query.structure == "circulant":
        verdict = _circulant_route(query, search_ms, cell_budget)
    elif query.structure == "symmetric":
        verdict = _symmetric_route(query, search_ms, cell_budget)
    elif query.structure == "skew":
        verdict = _skew_route(query, search_ms, cell_budget)
    else:
        verdict = _plain_route(query, search_ms, cell_budget)
    if verdict.kind == "exists":
        witness = verdict.witness
        assert witness is not None
        shape = witness.structure
        if query.structure == "circulant" and not shape.circulant:
            raise ExistenceError("route produced a non-circulant witness")
        if query.structure == "symmetric" and not shape.symmetric:
            raise ExistenceError("route produced a non-symmetric witness")
        if query.structure == "skew" and not shape.skew_symmetric:
            raise ExistenceError("route produced a non-skew witness")
        if query.zero_diagonal and not shape.zero_diagonal:
            return Verdict.unknown(
                "a witness exists but its diagonal is not zero; no "
                "zero-diagonal construction is implemented for this query"
            )
        if witness.claim.order != query.n:
            raise ExistenceError("route produced a witness of the wrong order")
    return verdict
