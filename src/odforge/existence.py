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
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .arith import (
    decompose_four_nonzero_squares,
    decompose_four_squares,
    decompose_three_squares,
    decompose_two_nonzero_squares,
    is_prime_power,
    is_sum_of_three_squares,
)
from .constructions import (
    SeedRecipe,
    UnsupportedParameterError,
    Witness,
    add_identity_variable,
    block_array_od,
    circulant_cw,
    collapse_od_to_weighing,
    combine_finished_seeds,
    identity_weighing,
    merge_od_variables,
    minimal_pow2_exponent,
    od_from_weighing,
    odd_block_orders,
    skew_four_exponents,
    skew_od_pow2_four,
    skew_pairs_weighing,
    skew_weighing_from_unit_slot,
    small_od_provider,
    spread_circulant,
    symmetric_od_pow2,
    symmetric_w_square_odd,
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
    "FAMILIES",
    "FamilySpec",
    "DEFAULT_CELL_BUDGET",
]

STRUCTURES = ("plain", "symmetric", "skew", "circulant")
DEFAULT_CELL_BUDGET = 10**8


class ExistenceError(ValueError):
    """A query or bound request was malformed or inadmissible."""


def _is_int(value) -> bool:
    """An int that is not a bool, as ``arith`` takes its arguments."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Query:
    """One existence question: order, weight, structure, extras."""

    n: int
    k: int
    structure: str = "plain"
    zero_diagonal: bool = False

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ExistenceError(f"order must be a positive integer, got {self.n}")
        if not _is_int(self.k) or self.k < 1:
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
        if self.rule in ("symmetric-zero-diagonal-odd-order", "skew-odd-order"):
            return self.param("n") % 2 == 1
        if self.rule == "skew-weight-not-three-squares":
            return self.param("n") % 8 == 4 and not is_sum_of_three_squares(self.param("k"))
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
# Weight decompositions
# ---------------------------------------------------------------------------


def _default_two_square(k: int) -> tuple[int, int]:
    pair = decompose_two_nonzero_squares(k)
    if pair is None:
        raise ExistenceError(f"{k} is not a sum of two nonzero squares")
    return pair


def _skew_three_square(k: int) -> tuple[int, int, int]:
    triple = decompose_three_squares(k)
    if triple is None:
        raise ExistenceError(
            f"skew-4n needs a weight that is a sum of three squares, got {k}"
        )
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


def _square_root(k: int, family: str) -> int:
    root = math.isqrt(k)
    if root * root != k:
        raise ExistenceError(f"{family} needs a perfect square weight, got {k}")
    return root


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
    if any(not _is_int(v) or v < 0 for v in ks):
        raise ExistenceError(f"components must be nonnegative integers, got {ks}")
    if sum(v * v for v in ks) != k:
        raise ExistenceError(
            f"component squares sum to {sum(v * v for v in ks)}, not {k}"
        )
    return ks


# ---------------------------------------------------------------------------
# Combination families
# ---------------------------------------------------------------------------


def _nonzero_pair(pair: tuple[int, ...]) -> tuple[int, ...]:
    if 0 in pair:
        raise ExistenceError("two-square components must be nonzero")
    return pair


def _squares(ks: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v * v for v in ks)


def _with_unit(ks: tuple[int, ...]) -> tuple[int, ...]:
    return (1,) + tuple(ks)


@dataclass(frozen=True)
class FamilySpec:
    """One combination family: an odd-order block array and a power-of-two
    design sharing the factor h, both built over the parts ks of the weight.

    The odd seed is the h-block array (``block_array_od``) on
    ``odd_roots(ks)``; N counts the level orders of ``odd_plan(ks)``, which
    may be a larger plan.  ``pow2_weights(ks)`` is the power-of-two seed's
    type before zero parts are padded to weight 1.  The table holds no
    builders: seeds call them by their module-level names, so tracers that
    rebind those names see them.
    """

    h: int
    ks_count: int  # entries a --ks override takes; 0 = no override
    split: Callable[[int], tuple[int, ...]]  # default ks; raises ExistenceError
    odd_plan: Callable[[tuple[int, ...]], tuple[int, ...]]
    odd_roots: Callable[[tuple[int, ...]], tuple[int, ...]]
    pow2_weights: Callable[[tuple[int, ...]], tuple[int, ...]]
    # The split also vets k before an override is checked, so a weight the
    # family cannot take is reported as such whatever the override.
    vet_override: bool = False


# The paper plans the skew-8n odd side from (1,) + quad; eight_block_od(*quad)
# adds the unit variable itself, so its order is 8 * q(quad), which divides
# the planned order: N stays a valid, conservative threshold.
FAMILIES = {
    # family: FamilySpec(h, ks_count, split, odd_plan, odd_roots, pow2_weights)
    "sym-square": FamilySpec(1, 0, lambda k: (_square_root(k, "sym-square"),), tuple, tuple, _squares),
    "two-square-2n": FamilySpec(2, 2, _default_two_square, _nonzero_pair, tuple, _squares),
    "four-square-4n": FamilySpec(4, 4, _default_four_square, tuple, tuple, _squares),
    "skew-2n": FamilySpec(2, 0, lambda k: (1, _square_root(k, "skew-2n")), tuple, tuple, _squares),
    "skew-4n": FamilySpec(
        4, 3, _skew_three_square, _with_unit, _with_unit, lambda ks: _with_unit(_squares(ks)),
        vet_override=True,
    ),
    "skew-8n": FamilySpec(8, 4, _default_four_square, _with_unit, tuple, _squares),
}
BOUND_FAMILIES = tuple(FAMILIES)


# ---------------------------------------------------------------------------
# Threshold computation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _built_pow2_design(type_tuple: tuple[int, ...]) -> Witness:
    """The provider's design of this type at the smallest power-of-two order
    it builds, tried up to 2**4; the h = 2 power-of-two seed is this design.
    Raises UnsupportedParameterError when none is built; the cache keeps no
    exception, so a failed lookup is tried again."""
    for t in range(minimal_pow2_exponent(sum(type_tuple)), 5):
        try:
            return small_od_provider(ODType(1 << t, type_tuple))
        except UnsupportedParameterError:
            continue
    raise UnsupportedParameterError(f"no power-of-two design of type {type_tuple} built")


def bound_N(k: int, family: str, ks: Optional[tuple[int, ...]] = None) -> BoundDerivation:
    """Explicit threshold N for one combination family at weight k.

    ``ks`` overrides the default weight decomposition (its squares must sum
    to k).  The derivation records the odd-side plan (factor lists collapse
    to the level orders b_i and their product q), the power-of-two side
    exponents, the shared factor h, and N = x*y.  The power-of-two exponent
    is k for h = 1 (the order-2**k symmetric design), the smallest order the
    provider builds for h = 2, and d = t1 + t2 + 1 for the skew four-part
    design of h = 4 and 8.  A threshold of more than ``_MAX_N_DIGITS``
    digits is refused.  Derivations of the default decomposition are cached
    per (k, family).
    """
    if not _is_int(k) or k < 1:
        raise ExistenceError(f"weight must be a positive integer, got {k}")
    if family not in FAMILIES:
        raise ExistenceError(f"family must be one of {BOUND_FAMILIES}, got {family!r}")
    if ks is None:
        return _default_bound(k, family)
    spec = FAMILIES[family]
    if not spec.ks_count:
        raise ExistenceError(f"{family} takes no decomposition override")
    if spec.vet_override:
        spec.split(k)
    return _derive_bound(k, family, _validate_ks(k, ks, spec.ks_count, family))


# Python prints an int of at most 4,300 digits (the default
# sys.int_max_str_digits), so no threshold past that is returned.
_MAX_N_DIGITS = 4300

# Entries of each per-weight cache.  One derivation takes under 7 KB even
# with N at the digit cap (k = 119**2), so a full cache stays under 4 MB.
_WEIGHT_CACHE_SIZE = 512


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE, typed=True)
def _default_bound(k: int, family: str) -> BoundDerivation:
    """``bound_N`` on the family's default decomposition of k."""
    return _derive_bound(k, family, FAMILIES[family].split(k))


def _derive_bound(k: int, family: str, ks: tuple[int, ...]) -> BoundDerivation:
    spec = FAMILIES[family]
    b_list, q = odd_block_orders(spec.odd_plan(ks))
    weights = spec.pow2_weights(ks)
    notes: list[str] = []
    if spec.h == 2:
        try:
            t, materializable = _built_pow2_design(weights).order.bit_length() - 1, True
            notes.append(f"power-of-two seed materialized at order {1 << t}")
        except UnsupportedParameterError:
            # the smallest t >= 3 with total weight <= 2**t - 2
            total = sum(weights)
            t, materializable = max(3, minimal_pow2_exponent(total + 2)), False
            notes.append(
                f"power-of-two seed not materialized; exponent {t} from the "
                f"weight-capacity rule (total {total} <= 2**t - 2)"
            )
        exponents: tuple[tuple[str, int], ...] = (("t", t),)
    else:
        if spec.h == 1:
            # symmetric_od_pow2(k): k unit weights, collapsed to weight k
            exponents = (("pow2_exponent", sum(weights)),)
        else:
            padded = tuple(max(w, 1) for w in weights)
            if padded != weights:
                notes.append(
                    "zero components padded to weight 1 on the power-of-two side, then zeroed"
                )
            t1, t2 = skew_four_exponents(padded)
            exponents = (("t1", t1), ("t2", t2), ("d", t1 + t2 + 1))
        # (2**e)**2 <= budget, decided from the exponent e alone
        materializable = 2 * exponents[-1][1] < DEFAULT_CELL_BUDGET.bit_length()
        if not materializable:
            shown = "k" if spec.h == 1 else exponents[-1][1]
            notes.append(
                f"power-of-two seed order 2**{shown} is beyond desk scale; threshold is still exact"
            )
    e = exponents[-1][1]
    y_exp = e - spec.h.bit_length() + 1  # y = 2**e / h
    # More than 4L + 3 bits in q * 2**e puts N past 16**L > 10**L without
    # building 2**e; below that, N is built and compared exactly.
    if q.bit_length() + e > 4 * _MAX_N_DIGITS + 3 or q << y_exp >= 10**_MAX_N_DIGITS:
        raise ExistenceError(
            f"threshold N = {q} * 2**{y_exp} of {family} at weight {k} has more "
            f"than {_MAX_N_DIGITS} digits"
        )
    pow2_order = 1 << e
    x, y = q, pow2_order // spec.h
    return BoundDerivation(
        family=family,
        k=k,
        ks=ks,
        b_list=b_list,
        q=q,
        odd_order=spec.h * q,
        pow2_order=pow2_order,
        h=spec.h,
        x=x,
        y=y,
        N=x * y,
        exponents=exponents,
        materializable=materializable,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Seed pairs for the combination routes (cached; verified on construction)
# ---------------------------------------------------------------------------
#
# Each seed is cached as a pair: the design's claim and recipe, and the
# weighing matrix a route finishes it into.  Past the threshold
# combine_finished_seeds assembles the answer from the two finished seeds, not
# from their order-h*t combination, so the design matrices are not kept.  The
# finishing steps build the weighing matrices in int8, exact for 0 and +-1.


def _drop_padded_zeros(witness: Witness, weights: tuple[int, ...]) -> Witness:
    """Keep each slot whose weight before padding is nonzero as its own
    variable and zero the slots that were padded up from 0."""
    slots = list(enumerate(weights, start=1))
    groups = [(slot,) for slot, w in slots if w]
    return merge_od_variables(witness, groups, tuple(slot for slot, w in slots if not w))


def _skew_finish(witness: Witness) -> Witness:
    """Merge a (1, k2, ..., kl) design to (1, k) and extract the skew
    weighing matrix."""
    claim = witness.claim
    assert isinstance(claim, ODType)
    if claim.num_vars > 2:
        witness = merge_od_variables(
            witness, [(1,), tuple(range(2, claim.num_vars + 1))]
        )
    return skew_weighing_from_unit_slot(witness)


@lru_cache(maxsize=256)
def _seed(bound: BoundDerivation, pow2: bool) -> tuple[SeedRecipe, Witness]:
    """The recipe of the odd-order seed of a family's derivation, or with
    ``pow2`` of its power-of-two seed, with the weighing matrix the seed
    finishes to: a sym-square seed of type (k,) collapses, a skew family's
    seed of type (1, ...) summing to 1 + k gives up its skew part."""
    spec = FAMILIES[bound.family]
    weights = spec.pow2_weights(bound.ks)
    finish = _skew_finish
    if bound.h == 1:
        if pow2:
            design = od_from_weighing(collapse_od_to_weighing(symmetric_od_pow2(bound.k)))
        else:
            design = od_from_weighing(symmetric_w_square_odd(bound.k))
        finish = collapse_od_to_weighing
    elif not pow2:
        design = block_array_od(bound.h, spec.odd_roots(bound.ks))
    elif bound.h == 2:
        design = _built_pow2_design(weights)  # of order bound.pow2_order
    else:
        padded = tuple(max(w, 1) for w in weights)
        base = skew_od_pow2_four(*padded)
        if bound.h == 8:
            base = add_identity_variable(base)
            weights = _with_unit(weights)
        design = _drop_padded_zeros(base, weights)
    return SeedRecipe(design.claim, design.trace), finish(design)


def _seed_answer(bound: BoundDerivation, seed_order: int, n: int) -> Optional[Verdict]:
    """The answer the family's seeds give at order n: a finished seed at its
    own order (``seed_order`` for the odd seed), the two combined at every
    multiple h*t with t >= N; None at any other order."""
    if n == seed_order:
        return Verdict.exists(_seed(bound, False)[1])
    if n == bound.pow2_order and bound.materializable:
        return Verdict.exists(_seed(bound, True)[1])
    if n % bound.h == 0 and n // bound.h >= bound.N:
        if not bound.materializable:
            return Verdict.unknown("the power-of-two seed is beyond desk scale", bound)
        return Verdict.exists(
            combine_finished_seeds(_seed(bound, False), _seed(bound, True), n // bound.h)
        )
    return None


# ---------------------------------------------------------------------------
# Query dispatch
# ---------------------------------------------------------------------------


def _circulant_route(query: Query) -> Verdict:
    n, k = query.n, query.k
    if k == 1:
        return Verdict.exists(identity_weighing(n))
    root = math.isqrt(k)
    if root * root == k and is_prime_power(root) is not None:
        base_order = root * root + root + 1
        if n % base_order == 0:
            base = circulant_cw(root)
            c = n // base_order
            return Verdict.exists(base if c == 1 else spread_circulant(base, c))
        return Verdict.unknown(
            f"order {n} is not a multiple of {base_order} = q**2 + q + 1"
        )
    return Verdict.unknown(
        "circulant constructions here need weight 1 or a prime-power square weight"
    )


def _symmetric_route(query: Query) -> Verdict:
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
    try:
        bound = bound_N(k, "sym-square")
    except ExistenceError:
        # N is too long to state, but the odd seed still answers its order
        if n != odd_block_orders((root,))[1]:
            raise
        return Verdict.exists(symmetric_w_square_odd(k))
    if n == bound.odd_order:
        return Verdict.exists(symmetric_w_square_odd(k))
    answer = _seed_answer(bound, bound.odd_order, n)
    if answer is not None:
        return answer
    return Verdict.unknown(
        f"order {n} is below the combination threshold {bound.N}", bound
    )


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE, typed=True)
def _skew_bounds(k: int) -> tuple[tuple[BoundDerivation, int], ...]:
    """The derivation of each skew family that takes weight k, in table
    order, with the order of the odd seed its builder makes (not the planned
    odd order where the builder takes other roots, as skew-8n's does)."""
    bounds = []
    for family, spec in FAMILIES.items():
        if not family.startswith("skew-"):
            continue
        try:
            spec.split(k)
        except ExistenceError:
            continue  # the family does not take this weight
        bound = bound_N(k, family)
        bounds.append((bound, bound.h * odd_block_orders(spec.odd_roots(bound.ks))[1]))
    return tuple(bounds)


def _skew_route(query: Query) -> Verdict:
    n, k = query.n, query.k
    if k == 1:
        return Verdict.exists(skew_pairs_weighing(n))
    attempts: list[str] = []
    bound: Optional[BoundDerivation] = None
    for bound, seed_order in _skew_bounds(k):
        answer = _seed_answer(bound, seed_order, n)
        if answer is not None:
            return answer
        h = bound.h
        if n == bound.pow2_order:
            attempts.append(
                f"{bound.family}: the power-of-two seed of order {n} was not built "
                f"({'; '.join(bound.notes)})"
            )
        else:
            attempts.append(
                f"{bound.family}: order must be {seed_order}, {bound.pow2_order}, "
                f"or a multiple of {h} at least {h * bound.N}"
            )
    return Verdict.unknown("; ".join(attempts), bound)


# Entries of the block-array order cache.  A weight up to _ENUMERATION_CAP
# maps one order per decomposition it enumerates: at most 856 orders, about
# 85 KB (k = 9451), so a full cache stays under 6 MB.
_BLOCK_ORDER_CACHE_SIZE = 64


@lru_cache(maxsize=_BLOCK_ORDER_CACHE_SIZE, typed=True)
def _block_array_orders(k: int) -> Mapping[int, tuple[int, tuple[int, ...]]]:
    """Each exact block-array order of weight k mapped to the first
    (h, roots) over the matching small decompositions that reaches it: two
    blocks at 2q, four blocks at 4q, doubled four blocks at 8q (their unit
    row means quads of weight k - 1 land on weight k)."""
    orders: dict[int, tuple[int, tuple[int, ...]]] = {}
    for h, candidates, weight in (
        (2, _two_square_candidates, k),
        (4, _four_square_candidates, k),
        (8, _four_square_candidates, k - 1),
    ):
        for roots in candidates(weight):
            orders.setdefault(h * odd_block_orders(roots)[1], (h, roots))
    return MappingProxyType(orders)


def _plain_route(query: Query) -> Verdict:
    n, k = query.n, query.k
    if k == 1:
        return Verdict.exists(identity_weighing(n))
    block_array = _block_array_orders(k).get(n)
    if block_array is not None:
        return Verdict.exists(collapse_od_to_weighing(block_array_od(*block_array)))

    # Any symmetric witness answers a plain query.
    sym = _symmetric_route(Query(n, k, "symmetric", query.zero_diagonal))
    if sym.kind == "exists":
        return sym
    return Verdict.unknown(
        "no direct block-array order matched and the symmetric route reports: "
        + sym.note,
        sym.bound,
    )


# Structure -> its route and the ``StructureReport`` field that every
# witness it answers with must have.
_ROUTES = {
    "plain": (_plain_route, None),
    "symmetric": (_symmetric_route, "symmetric"),
    "skew": (_skew_route, "skew_symmetric"),
    "circulant": (_circulant_route, "circulant"),
}

# The per-weight caches; tests empty them between cases.
_WEIGHT_CACHES = (_default_bound, _skew_bounds, _block_array_orders)


def exists_query(query: Query, *, cell_budget: int = DEFAULT_CELL_BUDGET) -> Verdict:
    """Decide a structured existence query.

    Pipeline: arithmetic nonexistence rules first, then the construction
    dispatch for the requested structure.  ``Exists`` always carries a
    verified witness whose structure report matches the request; ``Unknown``
    may carry the relevant threshold derivation, and is also the answer when
    a design the route needs cannot be built.
    """
    cert = nonexistence_check(query)
    if cert is not None:
        return Verdict.not_exists(cert)
    # Every route may build a witness of order n; none checks the budget again.
    if query.n * query.n > cell_budget:
        return Verdict.unknown(
            f"any witness would hold {query.n}**2 cells, past the budget "
            f"of {cell_budget}; raise the budget to force construction"
        )
    route, field = _ROUTES[query.structure]
    try:
        verdict = route(query)
    except UnsupportedParameterError as err:
        return Verdict.unknown(f"a design the route needs could not be built: {err}")
    if verdict.kind == "exists":
        witness = verdict.witness
        assert witness is not None
        shape = witness.structure
        if field is not None and not getattr(shape, field):
            raise ExistenceError(f"route produced a non-{query.structure} witness")
        if query.zero_diagonal and not shape.zero_diagonal:
            return Verdict.unknown(
                "a witness exists but its diagonal is not zero; no "
                "zero-diagonal construction is implemented for this query"
            )
        if witness.claim.order != query.n:
            raise ExistenceError("route produced a witness of the wrong order")
    return verdict
