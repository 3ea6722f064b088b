"""Representation arithmetic against brute-force oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge.arith import (
    ArithmeticError_,
    FrobeniusWitness,
    _lex_three,
    decompose_four_nonzero_squares,
    decompose_four_squares,
    decompose_three_squares,
    decompose_two_nonzero_squares,
    frobenius_representation,
    is_prime_power,
    is_sum_of_three_squares,
    lcm_set,
    prime_factorization,
    prime_power_square_factorize,
)
from conftest import (
    frobenius_oracle,
    reference_four_squares,
    reference_three_squares,
    three_squares_oracle,
)


class TestThreeSquares:
    def test_oracle_agreement_small(self):
        for k in range(0, 2000):
            assert is_sum_of_three_squares(k) == three_squares_oracle(k), k

    def test_known_negatives(self):
        # numbers of the form 4**l * (8m + 7)
        for k in (7, 15, 23, 28, 60, 92, 112, 240):
            assert not is_sum_of_three_squares(k)

    def test_decomposition_is_valid_and_sorted(self):
        for k in range(0, 600):
            triple = decompose_three_squares(k)
            if triple is None:
                assert not is_sum_of_three_squares(k)
            else:
                a, b, c = triple
                assert a * a + b * b + c * c == k
                assert 0 <= a <= b <= c

    def test_decomposition_is_lexicographically_smallest(self):
        for k in (6, 14, 19, 26, 50, 99):
            got = decompose_three_squares(k)
            best = min(
                (a, b, c)
                for a in range(math.isqrt(k) + 1)
                for b in range(a, math.isqrt(k) + 1)
                for c in range(b, math.isqrt(k) + 1)
                if a * a + b * b + c * c == k
            )
            assert got == best

    def test_rejects_negative(self):
        with pytest.raises(ArithmeticError_):
            is_sum_of_three_squares(-1)


class TestFourSquares:
    @given(st.integers(min_value=0, max_value=5000))
    def test_always_decomposes(self, k):
        a, b, c, d = decompose_four_squares(k)
        assert a * a + b * b + c * c + d * d == k
        assert 0 <= a <= b <= c <= d

    def test_nonzero_variant(self):
        for k in range(4, 400):
            quad = decompose_four_nonzero_squares(k)
            if quad is not None:
                assert all(v >= 1 for v in quad)
                assert sum(v * v for v in quad) == k
        # small numbers with no all-positive representation
        for k in (1, 2, 3, 5, 8, 9, 11):
            assert decompose_four_nonzero_squares(k) is None

    def test_matches_reference_loops_exhaustively(self):
        for k in range(20001):
            assert decompose_four_squares(k) == reference_four_squares(k), k
        for k in range(5001):
            assert decompose_three_squares(k) == reference_three_squares(k), k
            assert decompose_four_nonzero_squares(k) == reference_four_squares(k, True), k

    def test_pruned_three_square_search_matches_the_full_search(self):
        # remainders k - a**2 with odd part 3 mod 4 are the ones it skips
        for lo in (0, 1, 3):
            for k in range(20000):
                assert _lex_three(k, lo) == reference_three_squares(k, lo), (k, lo)

    def test_matches_reference_loops_on_a_seeded_sample(self):
        rng = random.Random(20261018)
        for k in [rng.randrange(10**6) for _ in range(150)]:
            assert decompose_four_squares(k) == reference_four_squares(k), k
        # remainders k - a**2 of the form 4**l * (8m + 7) are the ones the
        # residue test skips
        for k in [4**l * (8 * m + 7) for l in range(4) for m in range(0, 3000, 331)]:
            assert decompose_four_squares(k) == reference_four_squares(k), k
        for k in [rng.randrange(10**6) for _ in range(50)]:
            assert decompose_four_nonzero_squares(k) == reference_four_squares(k, True), k

    def test_two_nonzero(self):
        assert decompose_two_nonzero_squares(5) == (1, 2)
        assert decompose_two_nonzero_squares(2) == (1, 1)
        assert decompose_two_nonzero_squares(3) is None
        assert decompose_two_nonzero_squares(4) is None  # 0^2+2^2 excluded
        for k in range(1, 500):
            pair = decompose_two_nonzero_squares(k)
            if pair is not None:
                a, b = pair
                assert 1 <= a <= b and a * a + b * b == k


class TestFrobenius:
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=100),
    )
    def test_every_point_at_or_beyond_xy(self, x, y, offset):
        if math.gcd(x, y) != 1:
            return
        n = x * y + offset
        w = frobenius_representation(x, y, n)
        assert w.a * x + w.b * y == n
        assert w.a >= 0 and w.b >= 0
        assert (w.a, w.b) in frobenius_oracle(x, y, n)

    @given(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=2, max_value=50),
    )
    def test_frobenius_number_has_no_representation(self, x, y):
        if math.gcd(x, y) != 1:
            return
        n = x * y - x - y
        assert frobenius_oracle(x, y, n) == []
        with pytest.raises(ArithmeticError_):
            frobenius_representation(x, y, n)

    def test_normal_form_minimal_a(self):
        # a is the least nonnegative coefficient: a <= y - 1 pins it down
        w = frobenius_representation(7, 16, 115)
        assert (w.a, w.b) == (5, 5)
        for n in range(112, 200):
            w = frobenius_representation(7, 16, n)
            assert 0 <= w.a <= 15
            assert w.a == min(a for a, _ in frobenius_oracle(7, 16, n))

    def test_rejects_non_coprime(self):
        with pytest.raises(ArithmeticError_):
            frobenius_representation(4, 6, 100)

    def test_witness_self_check(self):
        with pytest.raises(ArithmeticError_):
            FrobeniusWitness(x=3, y=5, n=17, a=1, b=1)


class TestFactorization:
    def _trial_oracle(self, n):
        out = []
        d = 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e:
                out.append((d, e))
            d += 1
        if n > 1:
            out.append((n, 1))
        return out

    @given(st.integers(min_value=1, max_value=100000))
    def test_factorization_matches_oracle(self, n):
        assert prime_factorization(n) == self._trial_oracle(n)

    def test_prime_power(self):
        assert is_prime_power(2) == (2, 1)
        assert is_prime_power(9) == (3, 2)
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(6) is None
        assert is_prime_power(1) is None
        assert is_prime_power(0) is None

    def test_square_factorize(self):
        f = prime_power_square_factorize(36)
        assert f.factors == (2, 3) and f.k == 36
        f = prime_power_square_factorize(1)
        assert f.factors == (1,)
        f = prime_power_square_factorize(16)
        assert f.factors == (4,)
        f = prime_power_square_factorize(144)  # 12^2, 12 = 4*3
        assert f.factors == (3, 4)
        with pytest.raises(ArithmeticError_):
            prime_power_square_factorize(8)

    def test_lcm_set(self):
        assert lcm_set([3, 7]) == 21
        assert lcm_set([21, 39]) == 273
        assert lcm_set([5]) == 5
        with pytest.raises(ArithmeticError_):
            lcm_set([])
