"""End-to-end acceptance checks with explicit runtime budgets.

Each test exercises one headline capability at full scale and, where a
budget is stated, measures wall-clock time against it.  Oracles here are
definition-level re-checks independent of the library's own verifiers.
"""

import time

import numpy as np
import pytest

from odforge.arith import (
    decompose_three_squares,
    frobenius_representation,
    is_sum_of_three_squares,
)
from odforge.arith import ArithmeticError_
from odforge.constructions import (
    add_identity_variable,
    circulant_cw,
    eight_block_od,
    goethals_seidel_od,
    rational_family_seed,
    skew_od_pow2_four,
    spread_circulant,
    symmetric_od_pow2,
    two_square_od,
)
from odforge.cli import EXIT_OK, main
from odforge.existence import Query, bound_N, exists_query, nonexistence_check
from odforge.matfile import emit_matrix_file, parse_matrix_file
from odforge.matrices import IntMatrix, ODType, WeighingType, mat_mul, transpose, verify_od
from conftest import frobenius_oracle, is_weighing_oracle


class TestCirculantFamilies:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_01_circulant_weighing_within_ten_seconds(self, q):
        start = time.monotonic()
        w = circulant_cw(q)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"q={q} took {elapsed:.1f}s"
        n, k = q * q + q + 1, q * q
        assert w.claim.order == n and w.claim.weight == k
        assert w.structure.circulant
        assert is_weighing_oracle(w.matrix.entries.tolist(), k)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_02_spread_multiplies_order_keeps_weight(self, q, c):
        base = circulant_cw(q)
        wide = spread_circulant(base, c)
        assert wide.claim.order == c * (q * q + q + 1)
        assert wide.claim.weight == q * q
        assert wide.structure.circulant
        assert is_weighing_oracle(wide.matrix.entries.tolist(), q * q)


class TestSymmetricAllOnes:
    def test_03_orders_two_to_the_k_within_five_seconds_total(self):
        start = time.monotonic()
        for k in range(1, 9):
            w = symmetric_od_pow2(k)
            assert w.claim == ODType(2**k, (1,) * k)
            assert w.structure.symmetric
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


class TestRationalSeeds:
    @pytest.mark.parametrize("k", [3, 14])
    def test_04_three_square_weights_give_skew_seeds(self, k):
        triple = decompose_three_squares(k)
        assert triple is not None
        d = rational_family_seed(*triple)
        product = mat_mul(d, transpose(d)).entries
        assert np.array_equal(product, k * np.eye(4, dtype=np.int64))
        assert np.array_equal(d.entries.T, -d.entries)


class TestBlockArrays:
    def test_05_two_block_designs(self):
        w = two_square_od(1, 2)
        assert w.claim == ODType(42, (1, 4))
        assert verify_od(w.matrix, w.claim).ok
        w = two_square_od(1, 1)
        assert w.claim == ODType(6, (1, 1))
        assert verify_od(w.matrix, w.claim).ok

    def test_06_four_and_eight_block_designs(self):
        w = goethals_seidel_od(1, 1, 1, 1)
        assert w.claim == ODType(12, (1, 1, 1, 1))
        assert verify_od(w.matrix, w.claim).ok
        w = eight_block_od(1, 1, 1, 1)
        assert w.claim == ODType(24, (1, 1, 1, 1, 1))
        assert verify_od(w.matrix, w.claim).ok


class TestWeightNinetyTwo:
    def test_07_threshold_derivation_and_large_materialization(self):
        b = bound_N(92, "four-square-4n")
        assert b.N == 1677312
        assert b.b_list == (21, 39)
        assert b.h == 4
        assert b.ks == (2, 4, 6, 6)
        # The odd-order seed itself is desk-scale; build and verify it
        # within a ten-minute budget.
        start = time.monotonic()
        w = goethals_seidel_od(2, 4, 6, 6)
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"materialization took {elapsed:.1f}s"
        assert w.claim == ODType(3276, (4, 16, 36, 36))


class TestSymmetricWeightFour:
    def test_08_every_order_past_the_threshold(self):
        b = bound_N(4, "sym-square")
        assert b.N == 112
        start = time.monotonic()
        for t in range(112, 131):
            verdict = exists_query(Query(t, 4, "symmetric"))
            assert verdict.kind == "exists", (t, verdict.note)
            w = verdict.witness
            assert w.claim.order == t
            assert w.structure.symmetric
            assert is_weighing_oracle(w.matrix.entries.tolist(), 4)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"range took {elapsed:.1f}s"


class TestNonexistence:
    def test_09_certificate_suite(self):
        cases = [
            (Query(7, 4, "symmetric", zero_diagonal=True), "symmetric-zero-diagonal-odd-order"),
            (Query(11, 9, "skew"), "skew-odd-order"),
            (Query(12, 7, "skew"), "skew-weight-not-three-squares"),
            (Query(28, 23, "skew"), "skew-weight-not-three-squares"),
            (Query(36, 28, "skew"), "skew-weight-not-three-squares"),
        ]
        for query, rule in cases:
            verdict = exists_query(query)
            assert verdict.kind == "not-exists"
            assert verdict.certificate.rule == rule
            assert verdict.certificate.recheck()

    def test_09_three_squares_rule_against_exhaustive_enumeration(self):
        limit = 10**4
        roots = np.arange(0, int(np.sqrt(limit)) + 1)
        squares = roots * roots
        sums = (
            squares[:, None, None] + squares[None, :, None] + squares[None, None, :]
        ).ravel()
        reachable = np.zeros(limit + 1, dtype=bool)
        reachable[sums[sums <= limit]] = True
        for k in range(1, limit + 1):
            assert is_sum_of_three_squares(k) == bool(reachable[k]), k
            quotient = k
            while quotient % 4 == 0:
                quotient //= 4
            # The classic arithmetic form of the same predicate.
            assert bool(reachable[k]) == (quotient % 8 != 7), k


class TestFrobeniusRepresentations:
    def test_10_random_coprime_pairs(self):
        rng = np.random.default_rng(93)
        checked = 0
        while checked < 100:
            x = int(rng.integers(1, 51))
            y = int(rng.integers(1, 51))
            if np.gcd(x, y) != 1:
                continue
            checked += 1
            n = x * y + int(rng.integers(0, 101))
            witness = frobenius_representation(x, y, n)
            assert witness.a * x + witness.b * y == n
            assert witness.a >= 0 and witness.b >= 0
            assert (witness.a, witness.b) in frobenius_oracle(x, y, n)
            frontier = x * y - x - y
            if frontier >= 0:
                assert frobenius_oracle(x, y, frontier) == []
                with pytest.raises(ArithmeticError_):
                    frobenius_representation(x, y, frontier)


class TestSkewDesigns:
    def test_11_four_variable_skew_and_identity_extension(self):
        w = skew_od_pow2_four(1, 1, 1, 1)
        assert w.claim == ODType(32, (1, 1, 1, 1))
        assert w.structure.skew_symmetric
        assert verify_od(w.matrix, w.claim).ok
        extended = add_identity_variable(w)
        assert extended.claim == ODType(32, (1, 1, 1, 1, 1))
        assert verify_od(extended.matrix, extended.claim).ok


class TestDenseVerification:
    def test_12_sylvester_512_verifies_within_one_and_a_half_seconds(self, tmp_path, capsys):
        # Every row of a Sylvester matrix is full, so the row-support kernel
        # would do n**3 partner terms (about 3 s here); the dense product
        # takes a fraction of a second.  The cost rule must pick the latter.
        h = np.array([[1]], dtype=np.int64)
        while h.shape[0] < 512:
            h = np.block([[h, h], [h, -h]])
        path = tmp_path / "sylvester512.txt"
        path.write_text(emit_matrix_file(IntMatrix(h), WeighingType(512, 512), ()))
        start = time.monotonic()
        code = main(["verify", "--file", str(path)])
        elapsed = time.monotonic() - start
        assert code == EXIT_OK
        assert capsys.readouterr().out == "PASS W(512,512)\n"
        assert elapsed < 1.5, f"verify took {elapsed:.2f}s"


class TestMatrixFileIO:
    def test_13_order_1898_design_emits_and_parses_within_one_and_a_half_seconds(self):
        # OD(1898; 9, 64) has 3.6 million cells (7.3 MB of text).  On a
        # 2-core machine, token-by-token emit and parse take about 2.5 s for
        # it, the lookup tables about half a second.
        w = two_square_od(3, 8)
        start = time.monotonic()
        text = emit_matrix_file(w.matrix, w.claim)
        matrix, claim, flags = parse_matrix_file(text)
        elapsed = time.monotonic() - start
        assert claim == ODType(1898, (9, 64)) and flags == ()
        assert np.array_equal(matrix.codes, w.matrix.codes)
        assert elapsed < 1.5, f"emit and parse took {elapsed:.2f}s"
