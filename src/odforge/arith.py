"""Square-decomposition and representation arithmetic.

Everything here is exact integer arithmetic on desk-scale inputs: three- and
four-square decompositions with deterministic (lexicographically smallest)
outputs, the classical residue test for sums of three squares, normalized
nonnegative representations N = a*x + b*y for coprime x, y, and factorization
of perfect squares into maximal prime-power components.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

__all__ = [
    "ArithmeticError_",
    "is_sum_of_three_squares",
    "decompose_three_squares",
    "decompose_four_squares",
    "decompose_two_nonzero_squares",
    "decompose_four_nonzero_squares",
    "FrobeniusWitness",
    "frobenius_representation",
    "PrimePowerSquareFactorization",
    "prime_power_square_factorize",
    "is_prime_power",
    "prime_factorization",
    "lcm_set",
]


class ArithmeticError_(ValueError):
    """Domain error for the representation arithmetic in this module."""


def _check_nonneg(k, name: str = "k") -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ArithmeticError_(f"{name} must be a nonnegative integer, got {k!r}")
    return k


def is_sum_of_three_squares(k: int) -> bool:
    """True iff k = a^2 + b^2 + c^2 for integers a, b, c.

    Classical criterion: k is a sum of three squares iff it is not of the
    form 4^l * (8*m + 7).
    """
    k = _check_nonneg(k)
    while k % 4 == 0 and k > 0:
        k //= 4
    return k % 8 != 7


def _lex_three(k: int, lo: int) -> tuple[int, int, int] | None:
    """Lexicographically smallest sorted (a, b, c) with lo <= a and
    a^2+b^2+c^2 = k, else None.  A k that is no sum of three squares is
    answered by the residue test, not by exhausting the search; an a whose
    remainder k - a^2 has odd part 3 mod 4 is skipped, since that remainder
    holds a prime 3 mod 4 to an odd power and is no sum of two squares."""
    if not is_sum_of_three_squares(k):
        return None
    for a in range(lo, isqrt(k // 3) + 1):
        rest_a = k - a * a
        if rest_a and rest_a // (rest_a & -rest_a) % 4 == 3:
            continue
        b = a
        while 2 * b * b <= rest_a:
            c2 = rest_a - b * b
            c = isqrt(c2)
            if c * c == c2 and c >= b:
                return (a, b, c)
            b += 1
    return None


def decompose_three_squares(k: int) -> tuple[int, int, int] | None:
    """Lexicographically smallest sorted (a, b, c) with a^2+b^2+c^2 = k, else None."""
    return _lex_three(_check_nonneg(k), 0)


def _lex_four(k: int, lo: int) -> tuple[int, int, int, int] | None:
    """Lexicographically smallest sorted (a, b, c, d) with lo <= a and
    squares summing to k, else None: the smallest a whose remainder has a
    three-square decomposition with parts at least a."""
    for a in range(lo, isqrt(k // 4) + 1):
        rest = _lex_three(k - a * a, a)
        if rest is not None:
            return (a,) + rest
    return None


def decompose_four_squares(k: int) -> tuple[int, int, int, int]:
    """Lexicographically smallest sorted (a, b, c, d) with squares summing to k."""
    quad = _lex_four(_check_nonneg(k), 0)
    if quad is None:
        raise ArithmeticError_(f"no four-square decomposition found for {k} (impossible)")
    return quad


def decompose_two_nonzero_squares(k: int) -> tuple[int, int] | None:
    """Lexicographically smallest (a, b), 1 <= a <= b, with a^2 + b^2 = k."""
    k = _check_nonneg(k)
    for a in range(1, isqrt(k // 2) + 1):
        b2 = k - a * a
        b = isqrt(b2)
        if b >= a and b * b == b2 and b >= 1:
            return (a, b)
    return None


def decompose_four_nonzero_squares(k: int) -> tuple[int, int, int, int] | None:
    """Like decompose_four_squares but with all four parts positive, else None."""
    return _lex_four(_check_nonneg(k), 1)


@dataclass(frozen=True)
class FrobeniusWitness:
    """Normalized representation n = a*x + b*y with 0 <= a <= y - 1."""

    x: int
    y: int
    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.a * self.x + self.b * self.y != self.n:
            raise ArithmeticError_("witness does not satisfy a*x + b*y = n")
        if not (0 <= self.a <= self.y - 1) or self.b < 0:
            raise ArithmeticError_("witness not in normal form")


def frobenius_representation(x: int, y: int, n: int) -> FrobeniusWitness:
    """Nonnegative (a, b) with a*x + b*y = n, normalized to 0 <= a <= y - 1.

    Requires gcd(x, y) = 1 and n >= x*y; under those hypotheses the normal
    form exists and is unique.
    """
    for name, v in (("x", x), ("y", y)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ArithmeticError_(f"{name} must be a positive integer")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ArithmeticError_("n must be an integer")
    if gcd(x, y) != 1:
        raise ArithmeticError_(f"x={x} and y={y} are not coprime")
    if n < x * y:
        raise ArithmeticError_(f"n={n} below the guaranteed range n >= x*y = {x * y}")
    a = (n % y) * pow(x, -1, y) % y
    b = (n - a * x) // y
    return FrobeniusWitness(x=x, y=y, n=n, a=a, b=b)


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Sorted prime factorization [(p, e), ...] of n >= 1 by trial division."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ArithmeticError_("factorization needs a positive integer")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e and p prime, else None.  q = 1 is not a prime power."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        return None
    fac = prime_factorization(q)
    if len(fac) == 1:
        return fac[0]
    return None


@dataclass(frozen=True)
class PrimePowerSquareFactorization:
    """k = prod(q_i^2) with the q_i the maximal prime-power components of sqrt(k)."""

    k: int
    factors: tuple[int, ...]

    def __post_init__(self):
        prod = 1
        for q in self.factors:
            prod *= q * q
        if prod != self.k:
            raise ArithmeticError_("factors do not square-multiply to k")


def prime_power_square_factorize(k: int) -> PrimePowerSquareFactorization:
    """Factor a perfect square k as prod q_i^2 over maximal prime-power q_i.

    The q_i are the prime-power components p^e of sqrt(k), sorted ascending;
    k = 1 yields the single conventional factor 1.  Non-squares are rejected.
    Trial division: intended for desk-scale k (roughly up to 10^9).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ArithmeticError_("k must be a positive integer")
    r = isqrt(k)
    if r * r != k:
        raise ArithmeticError_(f"k={k} is not a perfect square")
    if r == 1:
        return PrimePowerSquareFactorization(k=1, factors=(1,))
    factors = tuple(sorted(p**e for p, e in prime_factorization(r)))
    return PrimePowerSquareFactorization(k=k, factors=factors)


def lcm_set(values: Iterable[int]) -> int:
    """Least common multiple of a nonempty collection of positive integers."""
    vals = list(values)
    if not vals:
        raise ArithmeticError_("lcm of an empty collection is undefined")
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ArithmeticError_(f"lcm needs positive integers, got {v!r}")
    return lcm(*vals)
