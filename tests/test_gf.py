"""Finite-field arithmetic: axioms, tables, trace, character, trace-zero sets.

Elements are integer encodings.  The independent oracle is a schoolbook
polynomial multiplication kept here, so the exp/log tables are checked
against arithmetic that does not use them.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from odforge.arith import ArithmeticError_, is_prime_power
from odforge.gf import (
    FieldError,
    binary_quadric_sign,
    field_make,
    primitive_element,
    quadratic_character,
    singer_zero_set,
    trace_to_subfield,
)

SMALL_FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (2, 6), (3, 3), (5, 3)]


def _school_mul(f, x, y):
    """x * y as polynomials over GF(p), reduced by the field's monic modulus."""
    p, m = f.p, f.m
    a = [x // p**i % p for i in range(m)]
    b = [y // p**i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top] % p
        for k, mk in enumerate(f.modulus):
            prod[top - m + k] -= c * mk
    return sum(c % p * p**i for i, c in enumerate(prod[:m]))


def _school_pow(f, x, e):
    out = 1
    for _ in range(e):
        out = _school_mul(f, out, x)
    return out


def _school_order(f, x):
    y, order = x, 1
    while y != 1:
        y, order = _school_mul(f, y, x), order + 1
    return order


def _mul(f, x, y):
    """Table product: a sum of logs, zero where a factor is zero."""
    x, y = np.asarray(x), np.asarray(y)
    product = f.exp[(f.log[x].astype(np.int64) + f.log[y]) % (f.order - 1)]
    return np.where((x == 0) | (y == 0), 0, product)


def _cubic_field(q):
    p, e = is_prime_power(q)
    return field_make(p, 3 * e)


class TestFieldAxioms:
    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_additive_group(self, p, m):
        f = field_make(p, m)
        xs = np.arange(f.order)
        table = f.add(xs[:, None], xs[None, :])
        assert np.array_equal(table[0], xs)  # zero is the identity
        assert np.array_equal(table, table.T)
        # every row and column is a permutation: inverses exist and cancel
        assert all(np.array_equal(np.sort(row), xs) for row in table)
        assert all(np.array_equal(np.sort(col), xs) for col in table.T)
        for x, y, z in [(1, 2 % f.order, f.order - 1), (f.order - 1, f.order // 2, 1)]:
            assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z)) == f.add(x, y, z)

    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_multiplicative_group_cyclic(self, p, m):
        f = field_make(p, m)
        assert f.exp[0] == 1
        assert np.array_equal(np.sort(f.exp), np.arange(1, f.order))
        g = primitive_element(f)
        assert _school_mul(f, int(f.exp[-1]), g) == 1  # full cycle

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
    def test_distributivity_exhaustive(self, p, m):
        f = field_make(p, m)
        xs = np.arange(f.order)
        x, y, z = xs[:, None, None], xs[None, :, None], xs[None, None, :]
        assert np.array_equal(_mul(f, x, f.add(y, z)), f.add(_mul(f, x, y), _mul(f, x, z)))

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    def test_mul_commutes_gf8(self, i, j):
        f = field_make(2, 3)
        assert _mul(f, i, j) == _mul(f, j, i)

    def test_rejects_composite_p(self):
        with pytest.raises(FieldError):
            field_make(4, 1)  # p must be prime; GF(4) is field_make(2, 2)


class TestTables:
    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_tables_match_schoolbook_multiplication(self, p, m):
        f = field_make(p, m)
        g = primitive_element(f)
        for i in range(f.order - 2):
            assert f.exp[i + 1] == _school_mul(f, int(f.exp[i]), g)
        assert f.log[0] == -1
        assert np.array_equal(f.log[f.exp], np.arange(f.order - 1))
        xs = range(f.order)
        table = _mul(f, np.arange(f.order)[:, None], np.arange(f.order)[None, :])
        assert table.tolist() == [[_school_mul(f, x, y) for y in xs] for x in xs]

    @pytest.mark.parametrize("p,m", SMALL_FIELDS + [(2, 4), (3, 4)])
    def test_primitive_element_is_smallest_of_full_order(self, p, m):
        f = field_make(p, m)
        g = primitive_element(f)
        assert g == f.exp[1 % (f.order - 1)]
        assert _school_order(f, g) == f.order - 1
        assert all(_school_order(f, c) < f.order - 1 for c in range(1, g))

    def test_tables_are_read_only(self):
        f = field_make(3, 2)
        for table in (f.exp, f.log):
            with pytest.raises(ValueError):
                table[0] = 0


class TestTrace:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_trace_additive_and_subfield_valued(self, q):
        f = _cubic_field(q)
        xs = np.arange(min(10, f.order))
        lhs = trace_to_subfield(f, f.add(xs[:, None], xs[None, :]), q)
        rhs = f.add(trace_to_subfield(f, xs[:, None], q), trace_to_subfield(f, xs[None, :], q))
        assert np.array_equal(lhs, rhs)
        # trace is onto the subfield: all q values occur, each fixed by x -> x^q
        values = np.unique(trace_to_subfield(f, np.arange(f.order), q))
        assert values.size == q
        assert all(_school_pow(f, int(t), q) == t for t in values)

    def test_trace_matches_its_definition(self):
        q = 3
        f = field_make(3, 3)
        for x in range(f.order):
            xq = _school_pow(f, x, q)
            assert trace_to_subfield(f, x, q) == f.add(x, xq, _school_pow(f, xq, q))

    def test_trace_frobenius_invariant(self):
        # Tr(x^p) = Tr(x)^p: the trace-zero set is closed under i -> p*i
        q = 3
        f = field_make(3, 3)
        xs = np.arange(f.order)
        cubes = [_school_pow(f, x, 3) for x in xs]
        assert [_school_pow(f, int(t), 3) for t in trace_to_subfield(f, xs, q)] == list(
            trace_to_subfield(f, cubes, q)
        )

    def test_trace_rejects_non_cubic(self):
        f = field_make(2, 4)
        with pytest.raises(FieldError):
            trace_to_subfield(f, 1, 2)


class TestQuadraticCharacter:
    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_counts_and_multiplicativity(self, p, m):
        f = field_make(p, m)
        xs = np.arange(f.order)
        chars = quadratic_character(f, xs)
        assert chars[0] == 0
        nonzero = chars[1:].tolist()
        assert nonzero.count(1) == nonzero.count(-1) == (f.order - 1) // 2
        # squares get +1
        assert np.all(chars[_mul(f, xs[1:], xs[1:])] == 1)
        # multiplicative on every pair
        products = chars[_mul(f, xs[:, None], xs[None, :])]
        assert np.array_equal(products, chars[:, None] * chars[None, :])
        # Euler's criterion: chi(x) = x^((q-1)/2)
        euler = [_school_pow(f, x, (f.order - 1) // 2) for x in range(1, f.order)]
        assert [1 if e == 1 else -1 for e in euler] == nonzero

    def test_subfield_character(self):
        f = field_make(3, 3)
        subfield = f.exp[:: (f.order - 1) // 2]  # GF(3)* inside GF(27)
        assert quadratic_character(f, subfield, 3).tolist() == [1, -1]
        assert quadratic_character(f, 0, 3) == 0
        with pytest.raises(FieldError):
            quadratic_character(f, f.exp[1], 3)

    def test_rejects_even_order(self):
        f = field_make(2, 2)
        with pytest.raises(FieldError):
            quadratic_character(f, 1)


class TestBinaryQuadricSign:
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_constant_on_subfield_cosets(self, q):
        s = singer_zero_set(q)
        f = s.field
        points = np.flatnonzero(s.traces)
        signs = binary_quadric_sign(f, f.exp[points], q)
        assert set(signs.tolist()) <= {1, -1}
        for j in range(1, q - 1):  # g**(n*j) runs over GF(q)*
            assert np.array_equal(binary_quadric_sign(f, f.exp[points + s.n * j], q), signs)

    def test_matches_its_definition(self):
        q = 4
        s = singer_zero_set(q)
        f = s.field
        for i in np.flatnonzero(s.traces):
            x = int(f.exp[i])
            xq = _school_pow(f, x, q)
            xq2 = _school_pow(f, xq, q)
            tr = f.add(x, xq, xq2)
            s2 = f.add(_school_mul(f, x, xq), _school_mul(f, x, xq2), _school_mul(f, xq, xq2))
            y = _school_mul(f, int(s2), _school_pow(f, int(tr), (q - 3) % (q - 1)))
            absolute = f.add(y, _school_mul(f, y, y))
            assert binary_quadric_sign(f, x, q) == (1 if absolute == 0 else -1)

    def test_rejects_odd_q_and_trace_zero(self):
        with pytest.raises(FieldError):
            binary_quadric_sign(field_make(3, 3), 1, 3)
        s = singer_zero_set(4)
        with pytest.raises(FieldError):
            binary_quadric_sign(s.field, s.field.exp[s.positions[0]], 4)


class TestSingerZeroSet:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_size_and_difference_property(self, q):
        s = singer_zero_set(q)
        n = q * q + q + 1
        assert s.n == n
        assert len(s.positions) == q + 1
        # planar difference set: every nonzero residue is a difference once
        counts = [0] * n
        for a in s.positions:
            for b in s.positions:
                if a != b:
                    counts[(a - b) % n] += 1
        assert counts[0] == 0
        assert all(c == 1 for c in counts[1:])

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_closed_under_multiplier_p(self, q):
        p, _ = is_prime_power(q)
        s = singer_zero_set(q)
        pos = set(s.positions)
        assert {(p * i) % s.n for i in pos} == pos

    def test_traces_consistent(self):
        s = singer_zero_set(3)
        f = s.field
        g = primitive_element(f)
        x = 1
        for i in range(s.n):
            assert s.traces[i] == trace_to_subfield(f, x, 3)
            x = _school_mul(f, x, g)

    def test_rejects_non_prime_power(self):
        with pytest.raises(ArithmeticError_):
            singer_zero_set(6)
