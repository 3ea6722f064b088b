"""Exact matrix layer: construction shapes, products, verification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from odforge.matrices import (
    CheckReport,
    IntMatrix,
    MatrixError,
    ODType,
    SignedVarMatrix,
    StructureReport,
    Var,
    WeighingType,
    _substitute_variables,
    circulant,
    decompose_family,
    mat_mul,
    specialize_variables,
    structure_check,
    transpose,
    verify_od,
    verify_weighing,
)
from conftest import is_weighing_oracle, naive_matmul, paf_oracle

sign_rows = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-1, max_value=1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestConstructors:
    def test_circulant_rows_are_cyclic_shifts(self):
        row = [3, 1, 4, 1, 5]
        c = circulant(row).entries
        assert c.dtype == np.int64
        for i in range(5):
            assert list(c[i]) == [row[(j - i) % 5] for j in range(5)]

    def test_signed_array_row_is_viewed_in_its_dtype(self):
        row = np.array([1, 0, -1, 1, 0, 0, 1], dtype=np.int8)
        c = circulant(row).entries
        assert c.dtype == np.int8 and not c.flags.writeable
        # ``np.byte_bounds`` moved to ``np.lib.array_utils`` in numpy 2
        byte_bounds = getattr(np, "byte_bounds", None) or np.lib.array_utils.byte_bounds
        lo, hi = byte_bounds(c)
        n = row.size
        # within the row written twice: all 2n entries but the first
        assert hi - lo == (2 * n - 1) * c.itemsize
        assert c.tolist() == [[int(row[(j - i) % n]) for j in range(n)] for i in range(n)]

    def test_int8_row_holding_its_minimum_widens(self):
        c = circulant(np.array([-128, 1, 0], dtype=np.int8)).entries
        assert c.dtype == np.int64 and c[1].tolist() == [0, -128, 1]

    @pytest.mark.parametrize(
        "row, message",
        [
            ([True, False], "non-integer entry True"),
            ([], "matrix needs at least one column"),
            (np.array([], dtype=np.int8), "matrix needs at least one column"),
            ([1, 2**63], f"entry {2**63} does not fit a 64-bit integer"),
        ],
    )
    def test_bad_rows_are_refused(self, row, message):
        with pytest.raises(MatrixError, match=message):
            circulant(row)

    def test_reflection_of_circulant_is_back_circulant(self):
        row = [1, 0, -1, 1]
        c = circulant(row)
        # right-multiplying by the back-diagonal permutation reverses columns
        reflected = IntMatrix(c.entries[:, ::-1])
        report = structure_check(reflected)
        assert report.symmetric


class TestExactProducts:
    @given(sign_rows, sign_rows)
    def test_matmul_matches_triple_loop(self, a_rows, b_rows):
        if len(a_rows) != len(b_rows):
            return
        a, b = IntMatrix(a_rows), IntMatrix(b_rows)
        got = mat_mul(a, b).entries
        want = naive_matmul(a_rows, b_rows)
        assert [[int(v) for v in row] for row in got] == want

    def test_entries_and_products_past_int64_are_refused(self):
        with pytest.raises(MatrixError):
            IntMatrix([[2**63]])
        with pytest.raises(MatrixError):
            IntMatrix(np.array([[2**63]], dtype=np.uint64))
        big = 2**62  # fits int64, but a product of two such entries does not
        a = IntMatrix([[big, big], [big, -big]])
        with pytest.raises(MatrixError):
            mat_mul(a, transpose(a))

    def test_float_boundary_exactness(self):
        # products just above 2**53 must not round
        v = 2**27
        n = 3
        a = IntMatrix(np.full((n, n), v, dtype=np.int64))
        got = mat_mul(a, a).entries
        assert all(int(x) == n * v * v for x in np.ravel(got))


class TestVerifyWeighing:
    # Circulant weighing matrix of order 7, weight 4.  Frozen after an
    # independent hand check: every cyclic autocorrelation of this row
    # cancels, and it has exactly four nonzero entries.
    KNOWN_ROW_7_4 = [1, 0, 0, -1, 0, -1, -1]

    def test_accepts_known(self):
        assert all(paf_oracle(self.KNOWN_ROW_7_4, s) == 0 for s in range(1, 7))
        w = circulant(self.KNOWN_ROW_7_4)
        report = verify_weighing(w, 4)
        assert report.ok, report.message()
        assert is_weighing_oracle(w.entries.tolist(), 4)

    def test_rejects_perturbations(self):
        base = circulant(self.KNOWN_ROW_7_4).entries.copy()
        flipped = base.copy()
        assert flipped[0][3] != 0
        flipped[0][3] = -flipped[0][3]
        assert not verify_weighing(IntMatrix(flipped), 4).ok
        zeroed = base.copy()
        assert zeroed[2][2] != 0
        zeroed[2][2] = 0
        assert not verify_weighing(IntMatrix(zeroed), 4).ok
        assert not verify_weighing(IntMatrix(base), 5).ok

    def test_rejects_bad_entries(self):
        m = IntMatrix([[2, 0], [0, 2]])
        report = verify_weighing(m, 4)
        assert not report.ok and "entry" in report.condition

    def test_rejects_non_square(self):
        assert not verify_weighing(IntMatrix(np.zeros((2, 3), dtype=np.int64)), 1).ok

    @given(st.lists(st.integers(min_value=-1, max_value=1), min_size=3, max_size=9))
    def test_circulant_weighing_iff_flat_autocorrelation(self, row):
        n = len(row)
        k = sum(v * v for v in row)
        c = circulant(row)
        paf_flat = all(paf_oracle(row, s) == 0 for s in range(1, n))
        assert verify_weighing(c, k).ok == paf_flat

    def test_dense_check_peaks_under_16_bytes_per_cell(self):
        # Sylvester W(2048, 2048) in int8: too dense for the support kernel,
        # and of order 2**11, so no block-circulant pass.  The dense check
        # holds one float64 copy (8 bytes per cell) and a few row blocks.
        h = np.ones((1, 1), dtype=np.int8)
        for _ in range(11):
            h = np.block([[h, h], [h, -h]])
        w = IntMatrix(h)
        tracemalloc.start()
        try:
            report = verify_weighing(w, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok, report.message()
        assert peak <= 16 * h.size, peak


class TestVerifyOD:
    def _two_var(self):
        codes = np.array([[1, 2], [2, -1]], dtype=np.int64)
        return SignedVarMatrix(codes, 2)

    def test_accepts_classic_two_by_two(self):
        x = self._two_var()
        assert verify_od(x, ODType(2, (1, 1))).ok

    def test_rejects_wrong_type_or_order(self):
        x = self._two_var()
        # A claim whose weights do not even fit the order is rejected at
        # construction time.
        with pytest.raises(MatrixError):
            ODType(2, (1, 2))
        # Wrong variable count for the claim.
        assert not verify_od(x, ODType(2, (2,))).ok
        # Valid claim, but the matrix fails anti-amicability.
        bad = SignedVarMatrix(np.array([[1, 2], [2, 1]], dtype=np.int64), 2)
        assert not verify_od(bad, ODType(2, (1, 1))).ok

    def test_rejects_overlapping_support(self):
        # both variables claim cell (0,0) -> not even encodable; emulate by
        # a family failing disjointness through a zero slot instead
        codes = np.array([[1, 1], [1, -1]], dtype=np.int64)
        x = SignedVarMatrix(codes, 1)
        assert verify_od(x, ODType(2, (2,))).ok
        assert not verify_od(x, ODType(2, (1,))).ok

    def test_decompose_family_sums_back(self):
        x = self._two_var()
        members = decompose_family(x)
        assert len(members) == 2
        total = members[0].entries + 2 * members[1].entries
        coded = np.where(np.abs(x.codes) == 1, np.sign(x.codes), 0) + 2 * np.where(
            np.abs(x.codes) == 2, np.sign(x.codes), 0
        )
        assert np.array_equal(total, coded)


class TestSpecialize:
    def _quaternion(self):
        codes = np.array(
            [
                [1, -2, -3, -4],
                [2, 1, -4, 3],
                [3, 4, 1, -2],
                [4, -3, 2, 1],
            ],
            dtype=np.int64,
        )
        return SignedVarMatrix(codes, 4)

    def test_merge_adds_weights(self):
        x = self._quaternion()
        merged = specialize_variables(x, {1: Var(1), 2: Var(1), 3: Var(2), 4: Var(2)})
        assert isinstance(merged, SignedVarMatrix)
        assert verify_od(merged, ODType(4, (2, 2))).ok

    def test_zeroing_drops_slot(self):
        x = self._quaternion()
        out = specialize_variables(x, {1: Var(1), 2: 0, 3: 0, 4: Var(2)})
        assert verify_od(out, ODType(4, (1, 1))).ok

    def test_all_constants_gives_weighing(self):
        x = self._quaternion()
        out = specialize_variables(x, {1: 1, 2: -1, 3: 1, 4: 1})
        assert isinstance(out, IntMatrix)
        assert verify_weighing(out, 4).ok

    def test_mixing_constants_and_variables_rejected(self):
        x = self._quaternion()
        with pytest.raises(MatrixError):
            specialize_variables(x, {1: Var(1), 2: 1, 3: 0, 4: Var(2)})

    def test_mapping_must_be_total(self):
        x = self._quaternion()
        with pytest.raises(MatrixError):
            specialize_variables(x, {1: Var(1)})

    def test_one_byte_codes_of_many_variables_substitute_exactly(self):
        # codes near +-l index the table without an int8 sum such as c + l
        l = 100
        codes = np.random.default_rng(1).integers(-l, l + 1, size=(12, 12)).astype(np.int8)
        codes[0, :2] = l, -l
        mapping = {i: Var(l + 1 - i) for i in range(1, l + 1)}
        out = _substitute_variables(SignedVarMatrix(codes, l), mapping)
        want = [[0 if c == 0 else int(np.sign(c)) * (l + 1 - abs(int(c))) for c in row] for row in codes]
        assert out.codes.dtype == np.int8
        assert out.codes.tolist() == want


class TestStructureAndTypes:
    def test_int8_minimum_is_widened(self):
        # -(-128) wraps to -128 in int8: kept as given, this symmetric matrix
        # would read as skew, and the code -128 as no variable at all
        m = IntMatrix(np.array([[0, -128], [-128, 0]], dtype=np.int8))
        assert m.entries.dtype == np.int64
        report = structure_check(m)
        assert report.symmetric and not report.skew_symmetric
        x = SignedVarMatrix(np.array([[-128]], dtype=np.int8))
        assert x.num_vars == 128 and x.codes.dtype == np.int64
        assert decompose_family(x)[127].entries.tolist() == [[-1]]
        kept = SignedVarMatrix(np.array([[-127, 0], [0, 127]], dtype=np.int8))
        assert kept.codes.dtype == np.int8

    def test_structure_flags(self):
        assert structure_check(IntMatrix(np.eye(3, dtype=np.int64))) == StructureReport(
            symmetric=True,
            skew_symmetric=False,
            circulant=True,
            zero_diagonal=False,
        )
        skew = IntMatrix([[0, 1], [-1, 0]])
        rep = structure_check(skew)
        assert rep.skew_symmetric and rep.zero_diagonal and not rep.symmetric

    def test_weighing_type_validation(self):
        WeighingType(4, 4)
        with pytest.raises(MatrixError):
            WeighingType(4, 5)
        with pytest.raises(MatrixError):
            WeighingType(0, 1)

    def test_od_type_validation(self):
        t = ODType(4, (1, 1, 1, 1))
        assert t.num_vars == 4 and t.total_weight == 4
        with pytest.raises(MatrixError):
            ODType(2, (1, 1, 1))  # total weight exceeds order

    def test_check_report_message(self):
        rep = CheckReport(False, "example condition", (1, 2))
        assert "example condition" in rep.message()
