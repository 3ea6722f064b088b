"""Finite-field arithmetic: axioms, trace, character, trace-zero sets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _field_and_elements(p, m):
    f = field_make(p, m)
    return f, list(f.elements())


class TestFieldAxioms:
    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_additive_group(self, p, m):
        f, elems = _field_and_elements(p, m)
        assert len(elems) == p**m
        for x in elems[: min(8, len(elems))]:
            assert f.add(x, f.zero) == x
            assert f.add(x, f.neg(x)) == f.zero

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1)])
    def test_multiplicative_group_cyclic(self, p, m):
        f, elems = _field_and_elements(p, m)
        g = primitive_element(f)
        seen = set()
        x = f.one
        for _ in range(f.order - 1):
            seen.add(x)
            x = f.mul(x, g)
        assert len(seen) == f.order - 1
        assert x == f.one  # full cycle

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
    def test_distributivity_exhaustive(self, p, m):
        f, elems = _field_and_elements(p, m)
        for x in elems:
            for y in elems:
                for z in elems[:3]:
                    lhs = f.mul(x, f.add(y, z))
                    rhs = f.add(f.mul(x, y), f.mul(x, z))
                    assert lhs == rhs

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    def test_mul_commutes_gf8(self, i, j):
        f = field_make(2, 3)
        x, y = f.from_int(i), f.from_int(j)
        assert f.mul(x, y) == f.mul(y, x)

    def test_from_to_int_roundtrip(self):
        f = field_make(3, 2)
        for enc in range(9):
            assert f.to_int(f.from_int(enc)) == enc

    def test_rejects_composite_p(self):
        with pytest.raises(FieldError):
            field_make(4, 1)  # p must be prime; GF(4) is field_make(2, 2)


class TestTrace:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_trace_additive_and_subfield_valued(self, q):
        from odforge.arith import is_prime_power

        p, e = is_prime_power(q)
        f = field_make(p, 3 * e)
        elems = list(f.elements())
        for x in elems[:10]:
            for y in elems[:10]:
                lhs = trace_to_subfield(f, f.add(x, y), q)
                rhs = f.add(trace_to_subfield(f, x, q), trace_to_subfield(f, y, q))
                assert lhs == rhs
        # trace is onto the subfield: all q values occur
        values = {trace_to_subfield(f, x, q) for x in elems}
        assert len(values) == q

    def test_trace_frobenius_invariant(self):
        # Tr(x^p) = Tr(x)^p: the trace-zero set is closed under i -> p*i
        q = 3
        f = field_make(3, 3)
        for x in f.elements():
            tx = trace_to_subfield(f, x, q)
            txp = trace_to_subfield(f, f.pow(x, 3), q)
            assert txp == f.pow(tx, 3)

    def test_trace_rejects_non_cubic(self):
        f = field_make(2, 4)
        with pytest.raises(FieldError):
            trace_to_subfield(f, f.one, 2)


class TestQuadraticCharacter:
    @pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_counts_and_multiplicativity(self, p, m):
        f, elems = _field_and_elements(p, m)
        chars = {x: quadratic_character(f, x) for x in elems}
        assert chars[f.zero] == 0
        nonzero = [chars[x] for x in elems if x != f.zero]
        assert nonzero.count(1) == nonzero.count(-1) == (f.order - 1) // 2
        # squares get +1
        for x in elems:
            if x != f.zero:
                assert chars[f.mul(x, x)] == 1
        # multiplicative on a sample
        for x in elems[1:4]:
            for y in elems[1:4]:
                if x != f.zero and y != f.zero:
                    assert chars[f.mul(x, y)] == chars[x] * chars[y]

    def test_rejects_even_order(self):
        f = field_make(2, 2)
        with pytest.raises(FieldError):
            quadratic_character(f, f.one)


class TestBinaryQuadricSign:
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_constant_on_subfield_cosets(self, q):
        s = singer_zero_set(q)
        f = s.field
        scalar = f.pow(s.generator, s.n)  # generates GF(q)*
        x = f.one
        for i in range(s.n):
            if i not in s.positions:
                sign = binary_quadric_sign(f, x, q)
                assert sign in (1, -1)
                assert binary_quadric_sign(f, f.mul(x, scalar), q) == sign
            x = f.mul(x, s.generator)

    def test_rejects_odd_q_and_trace_zero(self):
        with pytest.raises(FieldError):
            binary_quadric_sign(field_make(3, 3), field_make(3, 3).one, 3)
        s = singer_zero_set(4)
        with pytest.raises(FieldError):
            binary_quadric_sign(s.field, s.field.pow(s.generator, s.positions[0]), 4)


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
        from odforge.arith import is_prime_power

        p, _ = is_prime_power(q)
        s = singer_zero_set(q)
        pos = set(s.positions)
        assert {(p * i) % s.n for i in pos} == pos

    def test_traces_consistent(self):
        s = singer_zero_set(3)
        f = s.field
        x = f.one
        for i in range(s.n):
            assert s.traces[i] == trace_to_subfield(f, x, 3)
            x = f.mul(x, s.generator)

    def test_rejects_non_prime_power(self):
        from odforge.arith import ArithmeticError_

        with pytest.raises(ArithmeticError_):
            singer_zero_set(6)
