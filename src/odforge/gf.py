"""Finite-field arithmetic for the circulant constructions.

Fields GF(p^m) are represented as polynomials over GF(p) modulo a canonical
irreducible: the lexicographically smallest monic irreducible of degree m,
where polynomials are ordered by the integer encoding sum(c_i * p^i) of their
ascending coefficient vectors.  Elements are coefficient tuples of length m
(ascending powers).  The same encoding orders elements, which pins down a
deterministic primitive element: the smallest one of full multiplicative
order.

On top of the arithmetic sit the relative trace to the index-3 subfield, the
quadratic character of an odd-order subfield, and the trace-zero position
sets in Z_(q^2+q+1) that underlie circulant weighing matrices: the positions
i with Tr(g^i) = 0 form a planar difference set of size q + 1, which is
verified explicitly before a result is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .arith import ArithmeticError_, is_prime_power, prime_factorization

__all__ = [
    "FieldError",
    "FiniteField",
    "field_make",
    "primitive_element",
    "trace_to_subfield",
    "quadratic_character",
    "SingerZeroSet",
    "singer_zero_set",
]

Element = tuple[int, ...]


class FieldError(ValueError):
    """Bad field parameters or elements outside the field."""


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(a) - 1 >= db and _trim(a):
        da = len(a) - 1
        if da < db:
            break
        coef = a[-1] * inv_lead % p
        shift = da - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        _trim(a)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    deg = len(f) - 1
    if deg < 1:
        return False
    if f[0] == 0 and deg > 1:
        return False  # divisible by x
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            g = _decode_poly(enc, p, d) + [1]
            if not _poly_mod(f, g, p):
                return False
    return True


def _decode_poly(enc: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(enc % p)
        enc //= p
    return out


@dataclass(frozen=True)
class FiniteField:
    """GF(p^m) with elements as coefficient tuples of length m (ascending)."""

    p: int
    m: int
    modulus: Element  # length m + 1, monic, ascending coefficients

    @property
    def order(self) -> int:
        return self.p**self.m

    @cached_property
    def zero(self) -> Element:
        return (0,) * self.m

    @cached_property
    def one(self) -> Element:
        if self.m == 0:
            raise FieldError("degenerate field")
        return (1,) + (0,) * (self.m - 1)

    def from_int(self, enc: int) -> Element:
        if not 0 <= enc < self.order:
            raise FieldError(f"encoding {enc} out of range")
        return tuple(_decode_poly(enc, self.p, self.m))

    def to_int(self, x: Element) -> int:
        out = 0
        for c in reversed(x):
            out = out * self.p + c
        return out

    def elements(self):
        """All elements in ascending integer-encoding order."""
        for enc in range(self.order):
            yield self.from_int(enc)

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % self.p for a in x)

    def mul(self, x: Element, y: Element) -> Element:
        prod = _poly_mul(list(x), list(y), self.p)
        red = _poly_mod(prod, list(self.modulus), self.p)
        return tuple(red) + (0,) * (self.m - len(red))

    def pow(self, x: Element, e: int) -> Element:
        if e < 0:
            raise FieldError("negative exponents not supported here")
        out = self.one
        base = x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def multiplicative_order(self, x: Element) -> int:
        if x == self.zero:
            raise FieldError("zero has no multiplicative order")
        n = self.order - 1
        order = n
        for prime, _ in prime_factorization(n) if n > 1 else []:
            while order % prime == 0 and self.pow(x, order // prime) == self.one:
                order //= prime
        return order


@cache
def field_make(p: int, m: int) -> FiniteField:
    """GF(p^m) with the canonical (lexicographically smallest) irreducible modulus."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise FieldError("p must be a prime")
    fac = prime_factorization(p)
    if len(fac) != 1 or fac[0][1] != 1:
        raise FieldError(f"p={p} is not prime")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise FieldError("m must be a positive integer")
    for enc in range(p**m):
        f = _decode_poly(enc, p, m) + [1]
        if _is_irreducible(f, p):
            return FiniteField(p=p, m=m, modulus=tuple(f))
    raise FieldError(f"no irreducible of degree {m} over GF({p}) found (impossible)")


@cache
def primitive_element(field: FiniteField) -> Element:
    """Smallest element (by integer encoding) of full multiplicative order."""
    target = field.order - 1
    for enc in range(1, field.order):
        x = field.from_int(enc)
        if field.multiplicative_order(x) == target:
            return x
    raise FieldError("no primitive element found (impossible)")


def trace_to_subfield(field: FiniteField, x: Element, subfield_order: int) -> Element:
    """Relative trace x + x^q + x^(q^2) from GF(q^3) down to GF(q).

    The field must be a cubic extension of GF(q): order == q^3.
    """
    q = subfield_order
    if field.order != q**3:
        raise FieldError(
            f"field of order {field.order} is not a cubic extension of GF({q})"
        )
    xq = field.pow(x, q)
    xq2 = field.pow(xq, q)
    tr = field.add(field.add(x, xq), xq2)
    if field.pow(tr, q) != tr:
        raise FieldError("trace landed outside the subfield (impossible)")
    return tr


def quadratic_character(
    field: FiniteField, x: Element, subfield_order: int | None = None
) -> int:
    """Quadratic character of an odd-order (sub)field: 0 at zero, +1 on squares, -1 else.

    With ``subfield_order`` q given, x must lie in the embedded GF(q) and the
    character is that of GF(q); otherwise the character of the field itself.
    """
    q = field.order if subfield_order is None else subfield_order
    if q % 2 == 0:
        raise FieldError("quadratic character needs an odd field order")
    if x == field.zero:
        return 0
    if field.pow(x, q) != x:
        raise FieldError("element does not lie in the requested subfield")
    t = field.pow(x, (q - 1) // 2)
    if t == field.one:
        return 1
    if t == field.neg(field.one):
        return -1
    raise FieldError("character value outside {+1,-1} (impossible)")


@dataclass(frozen=True)
class SingerZeroSet:
    """Trace-zero positions in Z_n, n = q^2+q+1: a planar difference set.

    ``traces`` caches Tr(g^i) for i in [0, n) so sign rules can reuse the
    field walk; ``generator`` is the canonical primitive element g.
    """

    q: int
    n: int
    positions: tuple[int, ...]
    field: FiniteField
    generator: Element
    traces: tuple[Element, ...]


def _check_planar_difference_set(positions: tuple[int, ...], n: int) -> None:
    counts = [0] * n
    for a in positions:
        for b in positions:
            if a != b:
                counts[(a - b) % n] += 1
    if any(c != 1 for c in counts[1:]):
        raise FieldError("trace-zero positions are not a planar difference set")


@cache
def singer_zero_set(q: int) -> SingerZeroSet:
    """Positions i in [0, q^2+q+1) with Tr(g^i) = 0 in GF(q^3) over GF(q).

    Verified before returning: exactly q + 1 positions, and every nonzero
    difference mod n occurs exactly once (planar difference set property).
    """
    pp = is_prime_power(q)
    if pp is None:
        raise ArithmeticError_(f"q={q} is not a prime power")
    p, e = pp
    field = field_make(p, 3 * e)
    g = primitive_element(field)
    n = q * q + q + 1
    traces = []
    x = field.one
    for _ in range(n):
        traces.append(trace_to_subfield(field, x, q))
        x = field.mul(x, g)
    positions = tuple(i for i, t in enumerate(traces) if t == field.zero)
    if len(positions) != q + 1:
        raise FieldError(
            f"expected {q + 1} trace-zero positions, found {len(positions)}"
        )
    _check_planar_difference_set(positions, n)
    return SingerZeroSet(
        q=q, n=n, positions=positions, field=field, generator=g, traces=tuple(traces)
    )
