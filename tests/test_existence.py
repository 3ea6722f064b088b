"""Existence engine: obstruction rules, threshold derivations, dispatch."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge import constructions, matrices
from odforge.arith import is_sum_of_three_squares
from odforge.existence import (
    BOUND_FAMILIES,
    ExistenceError,
    Query,
    Verdict,
    bound_N,
    exists_query,
    nonexistence_check,
)
from odforge.matrices import IntMatrix, ODType, WeighingType, verify_weighing
from conftest import dense_weighing_report, is_weighing_oracle, three_squares_oracle


class TestQueryValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, k=1),
            dict(n=4, k=0),
            dict(n=4, k=5),
            dict(n=4, k=2, structure="weird"),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ExistenceError):
            Query(**kwargs)


class TestNonexistenceRules:
    def test_symmetric_zero_diagonal_odd_order(self):
        cert = nonexistence_check(Query(7, 4, "symmetric", zero_diagonal=True))
        assert cert is not None
        assert cert.rule == "symmetric-zero-diagonal-odd-order"
        assert cert.param("n") == 7
        assert cert.recheck()

    def test_skew_odd_order(self):
        cert = nonexistence_check(Query(9, 4, "skew"))
        assert cert is not None
        assert cert.rule == "skew-odd-order"
        assert cert.recheck()

    def test_skew_weight_needs_three_squares(self):
        cert = nonexistence_check(Query(12, 7, "skew"))
        assert cert is not None
        assert cert.rule == "skew-weight-not-three-squares"
        assert cert.param("n") == 12 and cert.param("k") == 7
        assert cert.recheck()
        assert "8m + 7" in cert.explanation or "three squares" in cert.explanation

    def test_power_of_four_core_is_stripped(self):
        # 28 = 4 * 7: the core 7 is what fails the three-squares test.
        cert = nonexistence_check(Query(36, 28, "skew"))
        assert cert is not None
        assert cert.rule == "skew-weight-not-three-squares"
        assert cert.param("k_core_mod_8") == 7

    def test_silent_on_unobstructed_queries(self):
        assert nonexistence_check(Query(12, 6, "skew")) is None
        assert nonexistence_check(Query(8, 7, "skew")) is None  # n = 0 mod 8
        assert nonexistence_check(Query(8, 4, "symmetric", zero_diagonal=True)) is None
        assert nonexistence_check(Query(7, 4, "plain")) is None
        assert nonexistence_check(Query(7, 4, "symmetric")) is None

    @given(st.integers(min_value=1, max_value=300))
    def test_three_squares_rule_matches_oracle(self, k):
        n = 8 * ((k % 5) + 1) + 4  # always 4 mod 8, always >= k? not needed
        if k > n:
            n = 8 * k + 4
        cert = nonexistence_check(Query(n, k, "skew"))
        quotient = k
        while quotient % 4 == 0:
            quotient //= 4
        expected = not three_squares_oracle(quotient)
        assert (cert is not None) == expected

    def test_unknown_rule_recheck_raises(self):
        from odforge.existence import NotExistsCertificate

        bogus = NotExistsCertificate("made-up", (("n", 3),), "no")
        with pytest.raises(ExistenceError):
            bogus.recheck()


class TestBoundDerivations:
    def test_symmetric_square_benchmark(self):
        b = bound_N(4, "sym-square")
        assert b.N == 112
        assert b.odd_order == 7 and b.pow2_order == 16
        assert b.h == 1 and b.x == 7 and b.y == 16
        assert b.materializable

    def test_four_square_benchmark(self):
        b = bound_N(92, "four-square-4n")
        assert b.N == 1677312
        assert b.ks == (2, 4, 6, 6)
        assert b.b_list == (21, 39) and b.q == 819
        assert b.h == 4
        assert b.N == b.x * b.y

    def test_render_carries_the_arithmetic(self):
        text = bound_N(92, "four-square-4n").render()
        assert "N = 1677312" in text
        assert "(2, 4, 6, 6)" in text
        assert "[21, 39]" in text

    @pytest.mark.parametrize("family", BOUND_FAMILIES)
    def test_internal_consistency(self, family):
        k = {
            "sym-square": 9,
            "two-square-2n": 5,
            "four-square-4n": 15,
            "skew-2n": 4,
            "skew-4n": 11,
            "skew-8n": 7,
        }[family]
        b = bound_N(k, family)
        assert b.family == family and b.k == k
        assert b.N == b.x * b.y
        assert b.odd_order == b.h * b.x
        assert b.pow2_order == b.h * b.y
        assert np.gcd(b.x, b.y) == 1

    def test_ks_override(self):
        default = bound_N(50, "two-square-2n")
        assert default.ks == (1, 7)
        override = bound_N(50, "two-square-2n", ks=(5, 5))
        assert override.ks == (5, 5)
        assert override.q != default.q

    @pytest.mark.parametrize(
        "k, family, ks",
        [
            (5, "sym-square", None),  # not a perfect square
            (7, "two-square-2n", None),  # not a sum of two nonzero squares
            (7, "skew-4n", None),  # k itself must be a sum of three squares
            (12, "four-square-4n", (1, 1, 1, 1)),  # squares sum to 4, not 12
            (4, "bogus-family", None),
        ],
    )
    def test_rejections(self, k, family, ks):
        with pytest.raises(ExistenceError):
            bound_N(k, family, ks)


# N of every family at k = 1..40 (None: the family rejects k), recorded at
# search_ms=50 before the skew doubling seeds were added to the provider.
_BOUND_N_TABLE = {
    "sym-square": (
        6, None, None, 112, None, None, None, None, 6656, None, None, None, None,
        None, None, 1376256, None, None, None, None, None, None, None, None,
        1040187392, None, None, None, None, None, None, None, None, None, None,
        6253472382976, None, None, None, None,
    ),
    "two-square-2n": (
        None, 3, None, None, 84, None, None, 28, None, 312, None, None, 728, None,
        None, None, 336, 208, None, 336, None, None, None, None, 4368, 1488, None,
        None, 3472, None, None, 672, None, 12896, None, None, 26208, None, None,
        8736,
    ),
    "four-square-4n": (
        24, 24, 24, 112, 336, 336, 336, 224, 416, 672, 1248, 448, 1344, 8736, 8736,
        1344, 1344, 832, 1344, 1344, 11648, 1344, 34944, 2688, 1984, 23296, 3328,
        5376, 13888, 34944, 41664, 2688, 69888, 2688, 69888, 11648, 5376, 69888,
        104832, 10752,
    ),
    "skew-2n": (
        3, None, None, 84, None, None, None, None, 312, None, None, None, None,
        None, None, 336, None, None, None, None, None, None, None, None, 1488, None,
        None, None, None, None, None, None, None, None, None, 26208, None, None,
        None, None,
    ),
    "skew-4n": (
        24, 24, 24, 336, 336, 336, None, 672, 1248, 1248, 1248, 1344, 8736, 8736,
        None, 1344, 1344, 2496, 2496, 1344, 1344, 34944, None, 2688, 5952, 5952,
        5952, None, 41664, 41664, None, 2688, 2688, 154752, 154752, 104832, 104832,
        104832, None, 104832,
    ),
    "skew-8n": (
        12, 12, 12, 168, 168, 168, 168, 336, 624, 336, 624, 672, 672, 4368, 4368,
        672, 672, 1248, 672, 672, 17472, 672, 17472, 1344, 2976, 34944, 4992, 2688,
        20832, 17472, 20832, 1344, 34944, 1344, 34944, 52416, 2688, 34944, 52416,
        5376,
    ),
}


class TestBudgetIndependentBounds:
    def test_thresholds_unchanged(self):
        for family, row in _BOUND_N_TABLE.items():
            for k, want in enumerate(row, start=1):
                try:
                    got = bound_N(k, family).N
                except ExistenceError:
                    got = None
                assert got == want, (family, k)

    @pytest.mark.parametrize("k, family", [(9, "skew-2n"), (10, "two-square-2n")])
    def test_unit_seed_needs_no_search_budget(self, k, family):
        start = time.perf_counter()
        tight = bound_N(k, family)
        elapsed = time.perf_counter() - start
        assert tight.N == 312 and tight.materializable
        assert elapsed < 0.5

    def test_skew_seed_order_answers_exists(self):
        verdict = exists_query(Query(16, 9, "skew"))
        assert verdict.kind == "exists", verdict.note
        assert verdict.witness.structure.skew_symmetric
        assert is_weighing_oracle(verdict.witness.matrix.entries.tolist(), 9)

    def test_unbuilt_seed_order_is_named_honestly(self):
        verdict = exists_query(Query(32, 16, "skew"))
        assert verdict.kind == "unknown"
        assert verdict.note.startswith(
            "skew-2n: the power-of-two seed of order 32 was not built "
            "(power-of-two seed not materialized; exponent 5 from the "
            "weight-capacity rule (total 17 <= 2**t - 2)); skew-4n: order must be"
        )



class TestVerifyOnce:
    """Past the threshold the route assembles the witness from verified,
    finished seeds: with the seed caches warm, the only check of an order-n
    matrix is the returned witness's own verification and structure check."""

    @pytest.mark.parametrize(
        "query",
        [Query(1600, 4, "skew"), Query(2400, 7, "skew"), Query(1000, 4, "symmetric")],
    )
    def test_one_check_at_order_n(self, monkeypatch, query):
        assert exists_query(query).kind == "exists"  # warms the seed caches
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def counted(m, *args, **kwargs):
                arr = m if isinstance(m, np.ndarray) else getattr(m, "entries", None)
                arr = m.codes if arr is None else arr
                if arr.shape[0] == query.n:
                    calls.append((name, arr))
                return original(m, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (constructions, matrices):
            for name in ("verify_weighing", "verify_od", "structure_check"):
                spy(module, name)
        spy(matrices, "_family_report")
        witness = exists_query(query).witness
        assert [name for name, _ in calls] == [
            "verify_weighing", "_family_report", "structure_check"
        ]
        assert all(arr is witness.matrix.entries for _, arr in calls)

    def test_warm_bound_verifies_no_seed(self, monkeypatch):
        """The threshold a warm query reads names a power-of-two seed the
        provider has built before: it is not built and verified again."""
        query = Query(1600, 4, "skew")
        assert exists_query(query).kind == "exists"  # warms the seed caches
        reports = []
        original = matrices._family_report

        def counted(arr, *args, **kwargs):
            reports.append(arr)
            return original(arr, *args, **kwargs)

        monkeypatch.setattr(matrices, "_family_report", counted)
        witness = exists_query(query).witness
        assert len(reports) == 1 and reports[0] is witness.matrix.entries


class TestSkewSeedOrders:
    """The skew route compares n with the order of the odd seed it builds.
    For skew-8n that is 8*q(quad), a third of the order N's plan counts at
    these weights; the planned order itself has no witness."""

    @pytest.mark.parametrize(
        "n, k",
        [(56, 4), (56, 8), (56, 12), (104, 9), (104, 18), (104, 27), (248, 25)],
    )
    def test_built_seed_order_exists(self, n, k):
        verdict = exists_query(Query(n, k, "skew"))
        assert verdict.kind == "exists", verdict.note
        entries = verdict.witness.matrix.entries
        assert verdict.witness.claim == WeighingType(n, k)
        assert dense_weighing_report(entries, k) == (True, None, None)
        assert np.array_equal(entries.T, -entries)

    @pytest.mark.parametrize(
        "n, k, built", [(312, 9, 104), (168, 8, 56), (168, 12, 56), (312, 18, 104), (312, 27, 104)]
    )
    def test_planned_order_is_undecided(self, n, k, built):
        verdict = exists_query(Query(n, k, "skew"))
        assert verdict.kind == "unknown"
        assert f"skew-8n: order must be {built}, " in verdict.note

    def test_unbuildable_seed_is_undecided(self):
        verdict = exists_query(Query(128, 9, "skew"))
        assert verdict.kind == "unknown"
        assert verdict.note == (
            "a design the route needs could not be built: "
            "no strategy produced OD(order=16, type=(1, 1, 9))"
        )

def _flags(witness):
    s = witness.structure
    return {
        "symmetric": s.symmetric,
        "skew": s.skew_symmetric,
        "circulant": s.circulant,
    }


class TestDispatch:
    @pytest.mark.parametrize(
        "n, k, structure",
        [
            (7, 4, "circulant"),
            (14, 4, "circulant"),
            (21, 4, "circulant"),
            (13, 9, "circulant"),
            (5, 1, "circulant"),
            (7, 4, "plain"),
            (84, 21, "plain"),
            (12, 4, "plain"),
            (7, 4, "symmetric"),
            (16, 4, "symmetric"),
            (112, 4, "symmetric"),
            (115, 4, "symmetric"),
            (21, 16, "symmetric"),
            (6, 1, "skew"),
            (8, 4, "skew"),
            (42, 4, "skew"),
        ],
    )
    def test_exists_with_matching_witness(self, n, k, structure):
        verdict = exists_query(Query(n, k, structure))
        assert verdict.kind == "exists", verdict.note
        w = verdict.witness
        assert w.claim.order == n
        report = verify_weighing(w.matrix, k)
        assert report.ok
        if structure == "symmetric":
            assert _flags(w)["symmetric"]
        elif structure == "skew":
            assert _flags(w)["skew"]
        elif structure == "circulant":
            assert _flags(w)["circulant"]

    @pytest.mark.parametrize(
        "n, k, structure, zero_diag, rule",
        [
            (7, 4, "symmetric", True, "symmetric-zero-diagonal-odd-order"),
            (9, 4, "skew", False, "skew-odd-order"),
            (12, 7, "skew", False, "skew-weight-not-three-squares"),
            (28, 28, "skew", False, "skew-weight-not-three-squares"),
        ],
    )
    def test_not_exists_with_certificate(self, n, k, structure, zero_diag, rule):
        verdict = exists_query(Query(n, k, structure, zero_diagonal=zero_diag))
        assert verdict.kind == "not-exists"
        assert verdict.certificate.rule == rule
        assert verdict.certificate.recheck()

    def test_skew_zero_diagonal_comes_free(self):
        verdict = exists_query(Query(8, 4, "skew", zero_diagonal=True))
        assert verdict.kind == "exists"
        assert np.all(np.diag(verdict.witness.matrix.entries) == 0)

    def test_unknown_for_symmetric_below_threshold(self):
        verdict = exists_query(Query(111, 4, "symmetric"))
        assert verdict.kind == "unknown"
        assert verdict.bound is not None and verdict.bound.N == 112

    def test_unknown_when_seed_is_too_large_to_build(self):
        # Weight 16 has threshold arithmetic but a power-of-two seed of
        # order 2**16; even with a raised cell budget the engine refuses
        # to build it and reports the derivation instead.
        verdict = exists_query(
            Query(21 * 65536, 16, "symmetric"), cell_budget=10**13
        )
        assert verdict.kind == "unknown"
        assert verdict.bound is not None
        assert not verdict.bound.materializable

    def test_unknown_for_unsupported_circulant(self):
        verdict = exists_query(Query(43, 36, "circulant"))
        assert verdict.kind == "unknown"

    def test_cell_budget_guard(self):
        verdict = exists_query(Query(3 * 10**4 + 1, 1, "plain"), cell_budget=10**8)
        assert verdict.kind in ("exists", "unknown")
        big = exists_query(Query(10**5, 4, "symmetric"), cell_budget=10**6)
        assert big.kind == "unknown"


class TestFuzzConsistency:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.sampled_from(["plain", "symmetric", "skew", "circulant"]),
        st.booleans(),
    )
    def test_verdicts_are_sound(self, n, k, structure, zero_diag):
        if k > n:
            k = n
        query = Query(n, k, structure, zero_diagonal=zero_diag)
        verdict = exists_query(query)
        assert verdict.kind in ("exists", "not-exists", "unknown")
        cert = nonexistence_check(query)
        if cert is not None:
            assert verdict.kind == "not-exists"
            assert verdict.certificate.recheck()
        if verdict.kind == "exists":
            w = verdict.witness
            assert w.claim.order == n
            assert is_weighing_oracle(
                (

                    w.matrix.entries
                    if isinstance(w.matrix, IntMatrix)
                    else w.matrix.codes
                ).tolist(),
                k,
            )
            flags = _flags(w)
            if structure == "symmetric":
                assert flags["symmetric"]
            if structure == "skew":
                assert flags["skew"]
            if structure == "circulant":
                assert flags["circulant"]
            if zero_diag:
                assert np.all(np.diag(w.matrix.entries) == 0)
