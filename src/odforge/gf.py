"""Finite fields as exp/log tables, for the circulant constructions.

An element of GF(p^m) is an integer: the encoding sum(c_i * p^i) of its
ascending coefficient vector as a polynomial over GF(p) modulo a canonical
irreducible, the monic one of degree m with the smallest encoding.  The same
order pins down the canonical primitive element g: the smallest encoding of
full multiplicative order.

A field builds two tables on first use and keeps them: ``exp[i]`` is g**i
and ``log`` inverts it, both int32.  A product is a sum of logs, and a sum is
digit-wise mod p.  Every function below takes an encoding or an array of
encodings and is one array expression over it.

On top sit the relative trace to the index-3 subfield, the quadratic
character of an odd-order subfield, the even-q quadric sign, and the
trace-zero position sets in Z_(q^2+q+1) that underlie circulant weighing
matrices: the positions i with Tr(g^i) = 0 form a planar difference set of
size q + 1, which is verified explicitly before a result is returned.  The
character (odd q) and the quadric sign (even q) give the closed-form signs on
the other positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .arith import ArithmeticError_, is_prime_power, prime_factorization

__all__ = [
    "FieldError",
    "FiniteField",
    "field_make",
    "primitive_element",
    "trace_to_subfield",
    "binary_quadric_sign",
    "quadratic_character",
    "SingerZeroSet",
    "singer_zero_set",
]

# Powers computed per block while the exp table doubles; bounds the digit
# arrays to _BLOCK * m int64 cells.
_BLOCK = 1 << 14


class FieldError(ValueError):
    """Bad field parameters or elements outside the field."""


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


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
    """GF(p^m); its elements are the integer encodings in [0, p**m)."""

    p: int
    m: int
    modulus: tuple[int, ...]  # length m + 1, monic, ascending coefficients

    @property
    def order(self) -> int:
        return self.p**self.m

    @cached_property
    def _place(self) -> np.ndarray:
        return self.p ** np.arange(self.m, dtype=np.int64)

    def _digits(self, x) -> np.ndarray:
        return np.asarray(x)[..., None] // self._place % self.p

    def add(self, *xs) -> np.ndarray:
        """Sum of encodings, or of broadcast arrays of them."""
        return sum(self._digits(x) for x in xs) % self.p @ self._place

    def _times(self, x, c: int) -> np.ndarray:
        """x * c for an encoding, or an array of encodings, x.

        Multiplication by c is GF(p)-linear: row j of its matrix holds the
        digits of x**j * c, each row the one before times x, reduced by the
        monic modulus.
        """
        rows = [_decode_poly(c, self.p, self.m)]
        for _ in range(1, self.m):
            top, shifted = rows[-1][-1], [0] + rows[-1][:-1]
            rows.append([(a - top * b) % self.p for a, b in zip(shifted, self.modulus)])
        return self._digits(x) @ np.array(rows) % self.p @ self._place

    def _power(self, c: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = int(self._times(out, c))
            c = int(self._times(c, c))
            e >>= 1
        return out

    @cached_property
    def exp(self) -> np.ndarray:
        """g**i for i in [0, order - 1), read-only int32.

        The table doubles: the powers g**s .. g**(2s - 1) are the first s
        powers times g**s, taken _BLOCK at a time.
        """
        g = primitive_element(self)
        n = self.order - 1
        out = np.empty(n, dtype=np.int32)
        out[0] = 1
        size = 1
        while size < n:
            take = min(size, n - size, _BLOCK)
            out[size : size + take] = self._times(out[:take], int(self._times(out[size - 1], g)))
            size += take
        out.setflags(write=False)
        return out

    @cached_property
    def log(self) -> np.ndarray:
        """log[x] = i with g**i = x for x != 0, and -1 at zero; read-only int32."""
        out = np.full(self.order, -1, dtype=np.int32)
        out[self.exp] = np.arange(self.order - 1, dtype=np.int32)
        out.setflags(write=False)
        return out


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
def primitive_element(field: FiniteField) -> int:
    """Smallest encoding of full multiplicative order.

    A candidate c has full order n = p**m - 1 when c**(n/r) != 1 for every
    prime r dividing n.  For m > 1 the constants (encodings below p) have
    order dividing p - 1 < n, so the candidates start at x.
    """
    n = field.order - 1
    primes = [r for r, _ in prime_factorization(n)]
    for c in range(field.p if field.m > 1 else 1, field.order):
        if all(field._power(c, n // r) != 1 for r in primes):
            return c
    raise FieldError("no primitive element found (impossible)")


def _logs(field: FiniteField, x) -> np.ndarray:
    return field.log[np.asarray(x)].astype(np.int64)


def trace_to_subfield(field: FiniteField, x, subfield_order: int) -> np.ndarray:
    """Relative trace x + x^q + x^(q^2) from GF(q^3) down to GF(q).

    The field must be a cubic extension of GF(q): order == q^3.
    """
    q = subfield_order
    if field.order != q**3:
        raise FieldError(
            f"field of order {field.order} is not a cubic extension of GF({q})"
        )
    n, i = field.order - 1, _logs(field, x)
    tr = np.where(np.asarray(x) == 0, 0, field.add(*(field.exp[i * e % n] for e in (1, q, q * q))))
    if np.any(field.log[tr[tr != 0]] % (q * q + q + 1)):
        raise FieldError("trace landed outside the subfield (impossible)")
    return tr


def binary_quadric_sign(field: FiniteField, x, subfield_order: int) -> np.ndarray:
    """(-1) ** Tr_{GF(q)/GF(2)}(s2(x) / Tr(x)**2) for x in GF(q^3), q even,
    where s2(x) = x^(1+q) + x^(1+q^2) + x^(q+q^2) and Tr(x) != 0.

    The ratio is homogeneous of degree 0, so the sign is constant on the
    cosets x * GF(q)*; it is the even-q sign rule of circulant weighing
    matrices.
    """
    q = subfield_order
    if q % 2 or field.order != q**3:
        raise FieldError(f"no quadric sign on GF({field.order}) over GF({q})")
    tr = trace_to_subfield(field, x, q)
    if np.any(tr == 0):
        raise FieldError("the quadric sign is undefined where the trace is zero")
    n, i = field.order - 1, _logs(field, x)
    s2 = field.add(*(field.exp[i * e % n] for e in (1 + q, 1 + q * q, q + q * q)))
    # y = s2 / Tr(x)**2 lies in GF(q); its absolute trace is y + y^2 + ... + y^(q/2).
    y = (_logs(field, s2) - 2 * _logs(field, tr)) % n
    absolute = field.add(*(field.exp[(y << j) % n] for j in range(q.bit_length() - 1)))
    return np.where((s2 == 0) | (absolute == 0), 1, -1)


def quadratic_character(field: FiniteField, x, subfield_order: int | None = None) -> np.ndarray:
    """Quadratic character of an odd-order (sub)field: 0 at zero, +1 on squares, -1 else.

    With ``subfield_order`` q given, x must lie in the embedded GF(q) and the
    character is that of GF(q); otherwise the character of the field itself.
    GF(q)* is generated by g**step, step = (order - 1) / (q - 1), so the
    character of g**i is (-1)**(i / step).
    """
    q = field.order if subfield_order is None else subfield_order
    if q % 2 == 0 or q < 3:
        raise FieldError("quadratic character needs an odd field order")
    x = np.asarray(x)
    step, i = (field.order - 1) // (q - 1), _logs(field, x)
    if (field.order - 1) % (q - 1) or np.any(i[x != 0] % step):
        raise FieldError("element does not lie in the requested subfield")
    return np.where(x == 0, 0, 1 - 2 * (i // step % 2))


@dataclass(frozen=True, eq=False)
class SingerZeroSet:
    """Trace-zero positions in Z_n, n = q^2+q+1: a planar difference set.

    ``traces`` holds Tr(g^i) for i in [0, n), read-only, so sign rules can
    reuse it; g**i is ``field.exp[i]``.
    """

    q: int
    n: int
    positions: tuple[int, ...]
    field: FiniteField
    traces: np.ndarray


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
    n = q * q + q + 1
    traces = trace_to_subfield(field, field.exp[:n], q)
    traces.setflags(write=False)
    positions = np.flatnonzero(traces == 0)
    if positions.size != q + 1:
        raise FieldError(
            f"expected {q + 1} trace-zero positions, found {positions.size}"
        )
    differences = np.bincount(((positions[:, None] - positions) % n).ravel(), minlength=n)
    if np.any(differences[1:] != 1):
        raise FieldError("trace-zero positions are not a planar difference set")
    return SingerZeroSet(q=q, n=n, positions=tuple(positions.tolist()), field=field, traces=traces)
