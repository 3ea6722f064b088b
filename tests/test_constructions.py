"""Constructive builders: every routine's output is re-checked here against
definition-level oracles, and every recipe replays to the same matrix."""

import hashlib
import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge.constructions import (
    ConstructionError,
    UnsupportedParameterError,
    Witness,
    _cw_block,
    _normalized_unit_family,
    _skew_weighing_pow2,
    add_identity_variable,
    circulant_cw,
    collapse_od_to_weighing,
    combine_coprime,
    eight_block_od,
    goethals_seidel_od,
    identity_weighing,
    load_catalog,
    merge_od_variables,
    minimal_pow2_exponent,
    od_from_weighing,
    odd_block_orders,
    rational_family_seed,
    replay,
    skew_od_pow2_four,
    skew_pairs_weighing,
    skew_weighing_from_unit_slot,
    small_od_provider,
    spread_circulant,
    symmetric_od_pow2,
    symmetric_w_square_odd,
    two_square_od,
)
from odforge.gf import singer_zero_set
from odforge.matfile import emit_matrix_file, parse_matrix_file
from odforge.matrices import (
    IntMatrix,
    ODType,
    SignedVarMatrix,
    decompose_family,
    mat_mul,
    structure_check,
    transpose,
    verify_od,
    verify_weighing,
)
from conftest import dense_od_report, dense_weighing_report, is_weighing_oracle


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


build_catalog = _load_script("build_catalog")


def _entries(witness):
    m = witness.matrix
    return m.entries if isinstance(m, IntMatrix) else m.codes


# sha256 of repr(first row as a list of ints) for the two longest sign
# searches, recorded while the search still took a time budget.
_FIRST_ROW_SHA256 = {
    7: "c03b1e07d35661ba9b150dc3d1bfd6e7bda7bb3551a9af63c12bb5163185d83f",
    9: "9634e3b14e2d672bda17177328ad8daef052573c870da9aa677c5726141fbd96",
}


class TestCirculantWeighing:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_supported_orders(self, q):
        w = circulant_cw(q)
        n = q * q + q + 1
        assert w.claim.order == n and w.claim.weight == q * q
        assert w.structure.circulant
        assert is_weighing_oracle(w.matrix.entries.tolist(), q * q)
        row = w.matrix.entries[0]
        zero_positions = {i for i, v in enumerate(row) if v == 0}
        assert zero_positions == set(singer_zero_set(q).positions)
        assert len(zero_positions) == q + 1
        if q in _FIRST_ROW_SHA256:
            digest = hashlib.sha256(repr(row.tolist()).encode()).hexdigest()
            assert digest == _FIRST_ROW_SHA256[q]

    def test_deterministic(self):
        first = circulant_cw(3)
        second = circulant_cw(3)
        assert np.array_equal(first.matrix.entries, second.matrix.entries)

    def test_unsupported_q(self):
        with pytest.raises(ConstructionError):
            circulant_cw(6)

    def test_past_the_cap_fails_at_once(self):
        # q = 11 has 41 support orbits, far past the candidate cap: no scan.
        start = time.perf_counter()
        with pytest.raises(UnsupportedParameterError) as exc:
            circulant_cw(11)
        assert time.perf_counter() - start < 0.5
        assert exc.value.strategies[-1] == (
            "multiplier-orbit sign search exhausted (cap 4194304 candidates)"
        )

    def test_trivial_block_convention(self):
        w = _cw_block(1)
        assert w.claim.order == 3 and w.claim.weight == 1
        assert w.structure.circulant


class TestSpread:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_weight_and_shape_preserved(self, q, c):
        base = circulant_cw(q)
        wide = spread_circulant(base, c)
        assert wide.claim.order == c * base.claim.order
        assert wide.claim.weight == base.claim.weight
        assert wide.structure.circulant
        assert is_weighing_oracle(wide.matrix.entries.tolist(), q * q)

    def test_spread_by_one_keeps_the_matrix(self):
        base = circulant_cw(2)
        same = spread_circulant(base, 1)
        assert same.claim == base.claim
        assert np.array_equal(same.matrix.entries, base.matrix.entries)

    def test_rejects_non_circulant(self):
        w = symmetric_w_square_odd(4)
        with pytest.raises(ConstructionError):
            spread_circulant(w, 2)


class TestSymmetricPow2:
    @pytest.mark.parametrize("k", list(range(1, 9)))
    def test_all_ones_design(self, k):
        w = symmetric_od_pow2(k)
        assert w.claim.order == 2**k
        assert w.claim.type_tuple == (1,) * k
        assert w.structure.symmetric
        assert verify_od(w.matrix, w.claim).ok

    def test_rejects_nonpositive(self):
        with pytest.raises(ConstructionError):
            symmetric_od_pow2(0)


class TestCatalog:
    def test_packaged_entries_load_verified(self):
        entries = load_catalog()
        names = [e.name for e in entries]
        assert "od0016_ones9.od" in names
        for entry in entries:
            assert verify_od(entry.witness.matrix, entry.witness.claim).ok

    def test_entries_round_trip_through_format(self):
        for entry in load_catalog():
            text = emit_matrix_file(entry.witness.matrix, entry.witness.claim)
            matrix, claim, _ = parse_matrix_file(text)
            assert claim == entry.witness.claim
            assert np.array_equal(matrix.codes, entry.witness.matrix.codes)

    def test_provider_exact_catalog_hit(self):
        w = small_od_provider(ODType(16, (1,) * 9))
        assert w.claim == ODType(16, (1,) * 9)
        assert w.trace.op == "od-catalog"

    def test_cache_follows_directory_changes(self, tmp_path, monkeypatch):
        import shutil
        from importlib.resources import files

        packaged = files("odforge") / "data" / "catalog"
        for name, source in (("a", "od0002_ones2.od"), ("b", "od0004_ones4.od")):
            (tmp_path / name / "catalog").mkdir(parents=True)
            shutil.copy(packaged / source, tmp_path / name / "catalog" / source)
        monkeypatch.setenv("ODFORGE_CATALOG_DIR", str(tmp_path / "a" / "catalog"))
        assert [e.name for e in load_catalog()] == ["od0002_ones2.od"]
        monkeypatch.setenv("ODFORGE_CATALOG_DIR", str(tmp_path / "b" / "catalog"))
        assert [e.name for e in load_catalog()] == ["od0004_ones4.od"]
        # ./catalog is resolved against the working directory of each call.
        monkeypatch.delenv("ODFORGE_CATALOG_DIR")
        monkeypatch.chdir(tmp_path / "a")
        assert [e.name for e in load_catalog()] == ["od0002_ones2.od"]
        monkeypatch.chdir(tmp_path / "b")
        assert [e.name for e in load_catalog()] == ["od0004_ones4.od"]

    def test_directory_resolution_precedence(self, tmp_path, monkeypatch):
        from pathlib import Path

        from odforge.constructions import resolve_catalog_dir

        explicit = tmp_path / "explicit"
        assert resolve_catalog_dir(explicit) == explicit
        monkeypatch.setenv("ODFORGE_CATALOG_DIR", str(tmp_path / "env"))
        assert resolve_catalog_dir(None) == tmp_path / "env"
        monkeypatch.delenv("ODFORGE_CATALOG_DIR")
        monkeypatch.chdir(tmp_path)
        assert str(resolve_catalog_dir(None)).endswith(("catalog",))
        (tmp_path / "catalog").mkdir()
        assert resolve_catalog_dir(None) == Path("catalog")


class TestWordCompatibility:
    """The Kronecker-word search of scripts/build_catalog.py, which found the
    catalog's order-16 entry."""

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_rule_matches_matrix_brute_force(self, exponent):
        count = 4**exponent
        table = build_catalog.word_compatibility(exponent)
        digits = build_catalog.word_digits(count, exponent)
        mats = [build_catalog.word_matrix(digits[i]) for i in range(count)]
        for i in range(count):
            for j in range(count):
                disjoint = not np.any((mats[i] != 0) & (mats[j] != 0))
                anti = np.array_equal(
                    mats[i] @ mats[j].T, -(mats[j] @ mats[i].T)
                )
                assert table[i, j] == (disjoint and anti), (i, j)

    def test_rebuilds_the_packaged_catalog(self):
        entries = build_catalog.build_entries()
        assert len(entries) == 4
        for name, matrix, claim, _ in entries:
            text, _ = build_catalog.render_entry(name, matrix, claim)
            assert text == (build_catalog.CATALOG_DIR / name).read_text(), name


class TestProvider:
    @pytest.mark.parametrize(
        "order, type_tuple",
        [
            (2, (1, 1)),
            (4, (1, 1)),
            (4, (1, 1, 2)),
            (4, (1, 3)),
            (8, (1, 1, 2)),
            (8, (2, 2, 4)),
            (16, (1, 4, 4)),
        ],
    )
    def test_produces_verified_design(self, order, type_tuple):
        w = small_od_provider(ODType(order, type_tuple))
        assert w.claim == ODType(order, type_tuple)
        assert verify_od(w.matrix, w.claim).ok

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConstructionError):
            small_od_provider(ODType(12, (1, 1)))

    def test_unsupported_reports_strategy_chain(self):
        with pytest.raises(UnsupportedParameterError) as err:
            small_od_provider(ODType(16, (1,) * 10))
        assert len(err.value.strategies) >= 3
        assert any("catalog" in s for s in err.value.strategies)

    # Each total weight is past the Radon-Hurwitz bound rho(n), 9 at order 16
    # and 10 at 32: no family of that many disjoint, anti-amicable signed
    # permutations, which a Kronecker-word search looks for, exists.  The
    # provider constructs none of these types and, searching nothing, says so
    # at once.
    @pytest.mark.parametrize(
        "order, type_tuple",
        [(16, (1, 1, 9)), (16, (1, 4, 9)), (16, (4, 9)),
         (32, (1, 1, 16)), (32, (1, 4, 16)), (32, (1, 9, 9))],
    )
    def test_unbuilt_types_fail_at_once(self, order, type_tuple):
        load_catalog()
        start = time.perf_counter()
        with pytest.raises(UnsupportedParameterError):
            small_od_provider(ODType(order, type_tuple))
        assert time.perf_counter() - start < 0.05


# sha256 over the codes (little-endian int64) and the rendered trace of every
# two-variable type (a, b) the provider builds without the skew doubling step:
# a + b <= 4 at order 4, a + b <= 8 at order 8 and a + b <= 9 at order 16, in
# that order.  Recorded before the step was added to the strategy chain.
_PROVIDER_TWO_VARIABLE_DIGEST = (
    "1320ab9e28d235b4dbd1510995529ef4e54dda771152b77c6e844ddf40e34f1b"
)


class TestSkewDoublingSeeds:
    @pytest.mark.parametrize("t", range(1, 7))
    def test_every_weight_below_the_order(self, t):
        n = 1 << t
        for k in range(1, n):
            s = _skew_weighing_pow2(n, k)
            assert np.array_equal(s.T, -s), k
            assert dense_weighing_report(s, k) == (True, None, None), k

    @pytest.mark.parametrize("k", range(9, 16))
    @pytest.mark.parametrize("unit_first", [True, False])
    def test_provider_unit_types_at_order_16(self, k, unit_first):
        type_tuple = (1, k) if unit_first else (k, 1)
        w = small_od_provider(ODType(16, type_tuple))
        assert w.claim == ODType(16, type_tuple)
        assert dense_od_report(w.matrix.codes, type_tuple) == (True, None, None)
        assert replay(w.trace).matrix == w.matrix

    def test_types_built_before_keep_their_witness(self):
        import hashlib

        digest = hashlib.sha256()
        for order, cap in ((4, 4), (8, 8), (16, 9)):
            for a in range(1, cap):
                for b in range(1, cap + 1 - a):
                    w = small_od_provider(ODType(order, (a, b)))
                    digest.update(w.matrix.codes.astype("<i8").tobytes())
                    digest.update(w.trace.render().encode())
        assert digest.hexdigest() == _PROVIDER_TWO_VARIABLE_DIGEST


class TestBlockArrays:
    def test_two_square_small(self):
        w = two_square_od(1, 1)
        assert w.claim == ODType(6, (1, 1))

    def test_two_square_mixed(self):
        w = two_square_od(1, 2)
        assert w.claim == ODType(42, (1, 4))

    @pytest.mark.parametrize(
        "ks, order",
        [
            ((1, 1, 1, 1), 12),
            ((2, 2, 2, 2), 28),
            ((0, 1, 2, 4), 84),
            ((1, 0, 2, 0), 84),
            ((0, 0, 1, 4), 84),
        ],
    )
    def test_four_block(self, ks, order):
        # Arguments are the square roots of the produced weights.
        w = goethals_seidel_od(*ks)
        expected = tuple(k * k for k in ks if k)
        assert w.claim == ODType(order, expected)
        assert verify_od(w.matrix, w.claim).ok

    def test_four_block_rejects_all_zero(self):
        with pytest.raises(ConstructionError):
            goethals_seidel_od(0, 0, 0, 0)

    def test_eight_block(self):
        w = eight_block_od(1, 1, 1, 1)
        assert w.claim == ODType(24, (1, 1, 1, 1, 1))
        assert verify_od(w.matrix, w.claim).ok

    def test_orders_helper_matches_built_arrays(self):
        assert odd_block_orders((1, 1, 1, 1)) == ((3,), 3)
        assert odd_block_orders((0, 1, 2, 4)) == ((21,), 21)
        assert odd_block_orders((2, 4, 6, 6)) == ((21, 39), 819)


class TestSymmetricSquareWeighing:
    @pytest.mark.parametrize(
        "k, order",
        [(1, 3), (4, 7), (9, 13), (16, 21), (36, 91)],
    )
    def test_orders_and_symmetry(self, k, order):
        w = symmetric_w_square_odd(k)
        assert w.claim.order == order and w.claim.weight == k
        assert order % 2 == 1
        assert w.structure.symmetric
        assert is_weighing_oracle(w.matrix.entries.tolist(), k)

    def test_rejects_non_square(self):
        # The square factorization itself refuses; both error types are
        # subclasses of ValueError.
        with pytest.raises(ValueError):
            symmetric_w_square_odd(5)


class TestCombineCoprime:
    def _seed_pair(self):
        odd = od_from_weighing(symmetric_w_square_odd(4))  # order 7, type (4,)
        pow2 = od_from_weighing(
            collapse_od_to_weighing(symmetric_od_pow2(4))
        )  # order 16, type (4,)
        return odd, pow2

    def test_combines_and_preserves_symmetry(self):
        odd, pow2 = self._seed_pair()
        out = combine_coprime(odd, pow2, 115)
        assert out.claim == ODType(115, (4,))
        assert out.structure.symmetric

    def test_threshold_is_product_of_reduced_orders(self):
        odd, pow2 = self._seed_pair()
        with pytest.raises(ConstructionError) as err:
            combine_coprime(odd, pow2, 111)
        assert "threshold 112" in str(err.value)
        out = combine_coprime(odd, pow2, 112)
        assert out.claim.order == 112

    def test_rejects_type_mismatch(self):
        odd, _ = self._seed_pair()
        other = small_od_provider(ODType(4, (1, 3)))
        with pytest.raises(ConstructionError):
            combine_coprime(odd, other, 1000)

    def test_shared_factor_scales_order(self):
        # Orders 6 and 4 share h = 2; t = 3*2 = 6 is the threshold.
        a = two_square_od(1, 1)  # order 6, type (1, 1)
        b = small_od_provider(ODType(4, (1, 1)))
        out = combine_coprime(a, b, 6)
        assert out.claim.order == 12


class TestSkewBuilders:
    def test_four_variable_skew(self):
        w = skew_od_pow2_four(1, 1, 1, 1)
        assert w.claim == ODType(32, (1, 1, 1, 1))
        assert w.structure.skew_symmetric
        for member in decompose_family(w.matrix):
            assert np.array_equal(member.entries.T, -member.entries)

    def test_add_identity_variable(self):
        w = add_identity_variable(skew_od_pow2_four(1, 1, 1, 1))
        assert w.claim == ODType(32, (1, 1, 1, 1, 1))
        members = decompose_family(w.matrix)
        assert np.array_equal(members[0].entries, np.eye(32, dtype=np.int64))

    def test_add_identity_rejects_non_skew(self):
        with pytest.raises(ConstructionError):
            add_identity_variable(symmetric_od_pow2(2))

    def test_unit_slot_extraction(self):
        w = small_od_provider(ODType(4, (1, 3)))
        skew = skew_weighing_from_unit_slot(w)
        assert skew.claim.order == 4 and skew.claim.weight == 3
        assert skew.structure.skew_symmetric

    def test_unit_slot_gathers_match_dense_products(self):
        # E.T @ A for the unit member E is computed as a signed row gather;
        # the dense product is the reference.  Signed row permutations of a
        # design keep its type and make E a nontrivial signed permutation.
        rng = np.random.default_rng(7)
        base = small_od_provider(ODType(8, (1, 2, 5)))
        for _ in range(5):
            signs = rng.choice([-1, 1], 8)[:, None]
            x = SignedVarMatrix(signs * base.matrix.codes[rng.permutation(8)], 3)
            w = Witness(x, base.claim, structure_check(x), base.trace)
            family = decompose_family(x)
            expected = [mat_mul(transpose(family[0]), member) for member in family]
            assert _normalized_unit_family(w) == expected
            pair = merge_od_variables(w, [[1], [2, 3]])
            unit, heavy = decompose_family(pair.matrix)
            skew = skew_weighing_from_unit_slot(pair)
            assert skew.matrix == mat_mul(transpose(unit), heavy)

    def test_unit_slot_needs_unit_leading_type(self):
        with pytest.raises(ConstructionError):
            skew_weighing_from_unit_slot(small_od_provider(ODType(4, (2, 2))))

    def test_skew_pairs(self):
        w = skew_pairs_weighing(10)
        assert w.claim.order == 10 and w.claim.weight == 1
        assert w.structure.skew_symmetric
        with pytest.raises(ConstructionError):
            skew_pairs_weighing(7)

    def test_identity_weighing(self):
        w = identity_weighing(5)
        assert w.claim.order == 5 and w.claim.weight == 1
        assert w.structure.symmetric and w.structure.circulant


class TestRationalSeed:
    @given(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
    )
    def test_product_identity_and_skewness(self, a, b, c):
        d = rational_family_seed(a, b, c)
        k = a * a + b * b + c * c
        product = mat_mul(d, transpose(d)).entries
        assert np.array_equal(product, k * np.eye(4, dtype=np.int64))
        assert np.array_equal(d.entries.T, -d.entries)

    def test_named_cases(self):
        for a, b, c in [(1, 1, 1), (1, 2, 3)]:
            d = rational_family_seed(a, b, c)
            assert d.entries[0].tolist() == [0, a, b, c]


class TestMinimalExponent:
    @pytest.mark.parametrize(
        "total, exponent",
        [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4), (17, 5)],
    )
    def test_values(self, total, exponent):
        assert minimal_pow2_exponent(total) == exponent
        assert total <= 2**exponent
        assert exponent == 1 or total > 2 ** (exponent - 1)


class TestAdapters:
    def test_od_from_weighing_and_back(self):
        w = symmetric_w_square_odd(4)
        lifted = od_from_weighing(w)
        assert lifted.claim == ODType(7, (4,))
        collapsed = collapse_od_to_weighing(lifted)
        assert np.array_equal(collapsed.matrix.entries, w.matrix.entries)

    def test_collapse_sums_weights(self):
        w = collapse_od_to_weighing(symmetric_od_pow2(3))
        assert w.claim.order == 8 and w.claim.weight == 3
        assert is_weighing_oracle(w.matrix.entries.tolist(), 3)

    def test_merge_variables(self):
        base = symmetric_od_pow2(3)
        merged = merge_od_variables(base, [(1, 2)], zeros=(3,))
        assert merged.claim == ODType(8, (2,))
        with pytest.raises(ConstructionError):
            merge_od_variables(base, [(1, 2)], zeros=())  # 3 unaccounted
        with pytest.raises(ConstructionError):
            merge_od_variables(base, [(1, 2), (2, 3)], zeros=())  # 2 twice


class TestReplay:
    def _witnesses(self):
        cw = circulant_cw(2)
        skew4 = skew_od_pow2_four(1, 1, 1, 1)
        odd = od_from_weighing(symmetric_w_square_odd(4))
        pow2 = od_from_weighing(collapse_od_to_weighing(symmetric_od_pow2(4)))
        return [
            cw,
            spread_circulant(cw, 3),
            symmetric_od_pow2(3),
            small_od_provider(ODType(4, (1, 3))),
            small_od_provider(ODType(16, (1,) * 9)),
            skew4,
            add_identity_variable(skew4),
            combine_coprime(odd, pow2, 115),
            symmetric_w_square_odd(36),
            two_square_od(1, 2),
            goethals_seidel_od(0, 1, 2, 4),
            eight_block_od(1, 1, 1, 1),
            odd,
            collapse_od_to_weighing(symmetric_od_pow2(3)),
            merge_od_variables(symmetric_od_pow2(3), [(1, 2)], zeros=(3,)),
            skew_weighing_from_unit_slot(small_od_provider(ODType(4, (1, 3)))),
            identity_weighing(5),
            skew_pairs_weighing(6),
        ]

    def test_every_recipe_replays_to_the_same_matrix(self):
        for w in self._witnesses():
            again = replay(w.trace)
            assert again.claim == w.claim, w.trace.op
            assert np.array_equal(_entries(again), _entries(w)), w.trace.op

    def test_render_mentions_parameters(self):
        w = two_square_od(1, 2)
        text = w.trace.render()
        assert "two-square-od" in text
        assert "q=21" in text
