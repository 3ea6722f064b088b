"""Constructive builders: every routine's output is re-checked here against
definition-level oracles, and every recipe replays to the same matrix."""

import ast
import hashlib
import importlib.util
import inspect
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge import constructions, matrices
from odforge.constructions import (
    ConstructionError,
    Trace,
    UnsupportedParameterError,
    Witness,
    _block_array,
    _composed,
    _PINNED_ROWS,
    _cw_row,
    _merge_all_ones,
    _normalized_codes,
    _skew_weighing_pow2,
    _witness,
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
from odforge.gf import field_make, primitive_element, singer_zero_set
from odforge.matfile import emit_matrix_file, parse_matrix_file
from odforge.matrices import (
    IntMatrix,
    ODType,
    SignedVarMatrix,
    VerificationInternalError,
    WeighingType,
    decompose_family,
    mat_mul,
    structure_check,
    transpose,
    verify_od,
    verify_weighing,
)
from conftest import dense_od_report, dense_weighing_report, is_weighing_oracle, paf_oracle


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


# sha256 of repr(first row as a list of ints).  q = 7 and 9, the two longest
# sign searches, were recorded while the search still took a time budget.
# Every other prime power q <= 64 is a closed-form row, recorded from the
# polynomial-list field arithmetic that the exp/log tables replaced (q = 4
# first from the search, which the closed form reproduces).
_FIRST_ROW_SHA256 = {
    4: "cf1af0061f4880928b6d44ae7fc358379d158f5ce003fe4fd7ba29e753915fdf",
    7: "c03b1e07d35661ba9b150dc3d1bfd6e7bda7bb3551a9af63c12bb5163185d83f",
    9: "9634e3b14e2d672bda17177328ad8daef052573c870da9aa677c5726141fbd96",
    11: "5a7842e0d5ad188029c4ec0d8bbb8903030309d8fbcdb158e0c237c332edb9a5",
    13: "698c5ee349f71949f3a33e304828cb72fa34b8331820285032e84dfa9c12d41b",
    16: "75019243bfe9ce8f0cae23302aede722f89d04899b22d33a63564ea670373125",
    17: "ee8a426536860575a9f986ab0fad7bc87c5e9dd671e7f8e38c2a6f448d3ece49",
    19: "9b87cbdab964ad5358915e1c233b4a535fa99791bbb845fee6f86be87e272cdb",
    23: "c35eac73c7462a80146aa987cc19dba19b5e83acb8af63a5866955d6c2604ce7",
    25: "e10d6d09922c8e137361284501021d2b2c26490f4927dc8dcc15ebd659550274",
    27: "5022de137d11cc62b916acd86fd29a714ba8243bbd0dd500c89e8220c7872377",
    29: "30d8fea29638a777d54f4ad9d249da9d6cc5c88e3fa3e47fe8ae614880e4e5fd",
    31: "8237b748a43a0bcf29a8837c1457cf58c465be293c30b9a16255c6c9b9609223",
    32: "c87c80076393f72ca0f5a612aa4e67e7f6d5cc5378262d1b7b151c3a8574abad",
    37: "bb78dea3c551859103caa5924ae04e5da3a691925b42d680b2b3a7d6a068213d",
    41: "b093e546d4d450d4bc7229dac97324b7870c12731140fb67c303ba7d7e96df87",
    43: "43bf6183cfdefb5f40c1d549371f385e754547d9e7fdc6c4415e458dbf09d126",
    47: "6b59d186e734f0421473768216e0861d475bc88c3097f64f163ef33e5c8c3a96",
    49: "c75d6937ee036e48a6fcce4ff7af330c2150d14bc638e0945b9b12dbbf2e9419",
    53: "1037559d55a42b2dc1aab905a1003c6d140cffbaa67d520db63afb277ae5c4bc",
    59: "e6dd66c07865b4fbd0414a526697bb9ded2bc2e20d493fe7637ff02522692301",
    61: "f157cc1e74c4bf901323dbbc693bd6f54093baa87b4506bfdd3bdba4daebfa9b",
    64: "75beaa68f2000287e20897c69664d74a3825943b723ca4bf37c23fe5fea450ca",
}
_ODD_NOTE = "signs: closed form chi_q(Tr x) * (-1)**i at x = g**i"
_EVEN_NOTE = "signs: closed form (-1)**Tr_{GF(q)/GF(2)}(s2(x) / Tr(x)**2)"


class TestCirculantWeighing:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
    def test_supported_orders(self, q):
        w = circulant_cw(q)
        n = q * q + q + 1
        assert w.claim.order == n and w.claim.weight == q * q
        assert w.structure.circulant
        row = w.matrix.entries[0]
        # Rows i and j of a circulant matrix meet in the autocorrelation at
        # shift j - i.  The full cubic oracle takes about 2 min at q = 27.
        assert [paf_oracle(row, s) for s in range(n)] == [q * q] + [0] * (n - 1)
        assert dense_weighing_report(w.matrix.entries, q * q)[0]
        if n <= 200:
            assert is_weighing_oracle(w.matrix.entries.tolist(), q * q)
        zero_positions = {i for i, v in enumerate(row) if v == 0}
        assert zero_positions == set(singer_zero_set(q).positions)
        assert len(zero_positions) == q + 1
        if q in _FIRST_ROW_SHA256:
            digest = hashlib.sha256(repr(row.tolist()).encode()).hexdigest()
            assert digest == _FIRST_ROW_SHA256[q]

    @pytest.mark.parametrize("q", sorted(set(_FIRST_ROW_SHA256) - set(_PINNED_ROWS)))
    def test_closed_form_rows_keep_their_bytes(self, q):
        row, recipe = _cw_row(q)
        assert hashlib.sha256(repr(row.tolist()).encode()).hexdigest() == _FIRST_ROW_SHA256[q]
        assert recipe.notes == (_ODD_NOTE if q % 2 else _EVEN_NOTE,)

    def test_deterministic(self):
        first = circulant_cw(3)
        second = circulant_cw(3)
        assert np.array_equal(first.matrix.entries, second.matrix.entries)

    def test_unsupported_q(self):
        with pytest.raises(ConstructionError):
            circulant_cw(6)

    def test_trivial_block_convention(self):
        row, recipe = _cw_row(1)
        assert row.tolist() == [1, 0, 0]
        w = replay(recipe)
        assert w.claim.order == 3 and w.claim.weight == 1
        assert w.structure.circulant


class TestLargeCirculants:
    @pytest.mark.parametrize("q", [32, 49, 64, 81])
    def test_autocorrelation_zero_set_and_replay(self, q):
        w = circulant_cw(q)
        n = q * q + q + 1
        row = w.matrix.entries[0].astype(np.int64)
        # Exact periodic autocorrelation at every shift, in int64.
        assert [int(row @ np.roll(row, s)) for s in range(n)] == [q * q] + [0] * (n - 1)
        assert np.flatnonzero(row == 0).tolist() == list(singer_zero_set(q).positions)
        assert np.array_equal(replay(w.trace).matrix.entries, w.matrix.entries)

    def test_q64_builds_from_cold_caches_in_seconds(self):
        for cached in (circulant_cw, _cw_row, singer_zero_set, primitive_element, field_make):
            cached.cache_clear()
        start = time.perf_counter()
        circulant_cw(64)
        assert time.perf_counter() - start < 3


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

    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("make", [lambda: circulant_cw(2), lambda: identity_weighing(3)])
    def test_spread_matches_the_definition(self, make, c):
        # C[i][j] = a[(j - i) mod cn], with a[c*t] the input's first-row
        # entry t and 0 elsewhere
        base = make()
        first = base.matrix.entries[0].tolist()
        n = c * len(first)
        a = [first[t // c] if t % c == 0 else 0 for t in range(n)]
        wide = spread_circulant(base, c).matrix.entries
        assert wide.dtype == base.matrix.entries.dtype
        assert wide.tolist() == [[a[(j - i) % n] for j in range(n)] for i in range(n)]

    def test_spread_by_one_keeps_the_matrix(self):
        base = circulant_cw(2)
        same = spread_circulant(base, 1)
        assert same.claim == base.claim
        assert np.array_equal(same.matrix.entries, base.matrix.entries)

    def test_rejects_non_circulant(self):
        w = symmetric_w_square_odd(4)
        with pytest.raises(ConstructionError):
            spread_circulant(w, 2)

    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "make",
        [*(lambda q=q: circulant_cw(q) for q in (2, 3, 4, 5, 7)), lambda: identity_weighing(3)],
        ids=[*(f"cw-{q}" for q in (2, 3, 4, 5, 7)), "identity-3"],
    )
    def test_spread_is_derived_from_its_input(self, monkeypatch, make, c):
        """Spreading runs no verifier; the spread passes the dense oracle,
        its inherited shape report is the matrix's, and it replays."""
        base = make()
        base.matrix  # a composed input is built and verified here, not below
        reports = []
        monkeypatch.setattr(matrices, "_family_report", lambda *a, **k: reports.append(a))
        wide = spread_circulant(base, c)
        assert reports == []
        monkeypatch.undo()
        m = wide.matrix
        assert dense_weighing_report(m.entries, base.claim.weight) == (True, None, None)
        assert wide.structure == structure_check(m)
        assert replay(wide.trace).matrix == m


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

    def test_catalog_is_package_data_only(self, tmp_path, monkeypatch):
        # A ./catalog holding a file that does not parse, named again by
        # ODFORGE_CATALOG_DIR, changes neither the design nor its recipe.
        before = small_od_provider(ODType(8, (1, 4)))
        (tmp_path / "catalog").mkdir()
        (tmp_path / "catalog" / "junk.od").write_text("junk\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ODFORGE_CATALOG_DIR", str(tmp_path / "catalog"))
        load_catalog.cache_clear()
        after = small_od_provider(ODType(8, (1, 4)))
        assert after.trace == before.trace
        assert "merge of catalog entry od0008_ones8.od" in after.trace.notes
        assert np.array_equal(after.matrix.codes, before.matrix.codes)


class TestSingleExit:
    """``_witness`` is every builder's one exit: it refuses a matrix that
    fails its claim or lacks the shape its builder promised."""

    @pytest.mark.parametrize(
        "build, claim, shape",
        [
            (lambda: circulant_cw(2).matrix, WeighingType(7, 3), None),
            (lambda: circulant_cw(2).matrix, WeighingType(8, 4), None),
            (lambda: symmetric_od_pow2(2).matrix, ODType(4, (1, 2)), None),
            # circulant W(7, 4) is not symmetric
            (lambda: circulant_cw(2).matrix, WeighingType(7, 4), "symmetric"),
            (lambda: symmetric_od_pow2(2).matrix, ODType(4, (1, 1)), "skew_symmetric"),
        ],
        ids=["weighing-claim", "weighing-order", "design-claim", "symmetric-shape", "skew-shape"],
    )
    def test_broken_promise_raises(self, build, claim, shape):
        with pytest.raises(VerificationInternalError):
            _witness(build(), claim, Trace("test"), shape)


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


# sha256 over every request ``_provider_requests`` makes, in order: for a
# built design its codes (little-endian int64), rendered trace and symmetric,
# skew, circulant and zero-diagonal flags, for a refused one the message of
# its UnsupportedParameterError.  Recorded while the chain still held a
# doubling step for symmetric half-order designs, which this pins as
# unreachable.
_PROVIDER_CHAIN_DIGEST = (
    "5f3b3243fd80cce48772f5e45352df2918ff5b841299ae4ae7ad1d4fe9f5d1e3"
)


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _provider_requests():
    """At each order 2..64: every composition of total <= 10, every (1, k)
    and (k, 1), and every (1, a, b) the order holds (5,921 requests)."""
    for order in (2, 4, 8, 16, 32, 64):
        types = [c for total in range(1, min(order, 10) + 1) for c in _compositions(total)]
        types += [(1, k) for k in range(1, order)] + [(k, 1) for k in range(1, order)]
        types += [(1, a, b) for a in range(1, order) for b in range(1, order - a)]
        for type_tuple in dict.fromkeys(types):
            yield ODType(order, type_tuple)


class TestProviderChain:
    def test_every_small_request_keeps_its_answer(self):
        digest = hashlib.sha256()
        for t in _provider_requests():
            try:
                w = small_od_provider(t)
            except UnsupportedParameterError as err:
                digest.update(str(err).encode())
                continue
            s = w.structure
            digest.update(w.matrix.codes.astype("<i8").tobytes())
            digest.update(w.trace.render().encode())
            digest.update(bytes([s.symmetric, s.skew_symmetric, s.circulant, s.zero_diagonal]))
        assert digest.hexdigest() == _PROVIDER_CHAIN_DIGEST


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


class TestBlockArrayCodes:
    @pytest.mark.parametrize("num_vars, dtype", [(127, np.int8), (128, np.int16)])
    def test_grid_is_exact_at_and_past_the_int8_limit(self, num_vars, dtype):
        a = circulant_cw(2).matrix.entries.astype(np.int8)
        b = a.T
        layout = [[(num_vars, 1, a), (num_vars - 1, -1, b)], [(1, -1, b), (num_vars, -1, a)]]
        grid = _block_array(layout, 7, num_vars)
        assert grid.codes.dtype == dtype
        want = np.block(
            [[var * sign * block.astype(np.int64) for var, sign, block in row] for row in layout]
        )
        assert np.array_equal(grid.codes, want)
        assert grid.codes.max() == num_vars and grid.codes.min() == -num_vars


class TestBlockRecipes:
    """Block levels are built from their first rows, not through
    ``spread_circulant``; each spread recipe an array records must still
    replay to the level in its grid."""

    @pytest.mark.parametrize("ks", [(2, 5), (1, 8)])
    def test_spread_recipes_replay_to_the_blocks(self, ks):
        w = two_square_od(*ks)
        q = w.trace.param("q")
        for j, spread in enumerate(w.trace.subs):
            assert spread.op == "spread"
            level = replay(spread).matrix.entries
            # [[A, B], [B, -A]] with variables 1 and 2; A is reflected
            block = w.matrix.codes[:q, j * q : (j + 1) * q] // (j + 1)
            want = level[:, ::-1] if j == 0 else level
            assert np.array_equal(block, want)


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

    @pytest.mark.parametrize("case", ["odd-and-pow2-115", "shared-factor-12"])
    def test_result_is_composed_and_checked_once_when_read(self, monkeypatch, case):
        """The combination keeps its two verified designs; its order-h*t
        matrix is built and verified once, when it is first read, and its
        shape report derived from the designs is the matrix's."""
        if case == "shared-factor-12":
            (a, b), t = (two_square_od(1, 1), small_od_provider(ODType(4, (1, 1)))), 6
        else:
            (a, b), t = self._seed_pair(), 115
        orders = []
        original = matrices._family_report

        def counted(codes, *args, **kwargs):
            orders.append(codes.shape[0])
            return original(codes, *args, **kwargs)

        monkeypatch.setattr(matrices, "_family_report", counted)
        out = combine_coprime(a, b, t)
        assert out.blocks
        assert orders == []
        m = out.matrix
        assert orders == [out.order]
        monkeypatch.undo()
        assert out.structure == structure_check(m)
        assert dense_od_report(m.codes, out.claim.type_tuple) == (True, None, None)


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

    def test_add_identity_variable_widens_past_int8(self):
        # No design has 127 variables at a buildable order (Radon-Hurwitz),
        # so a skew family of 127 weight-1 members, each +j at (0, j) and
        # -j at (j, 0), goes through the step, which runs no verifier: the
        # shifted codes reach 128 and must not wrap.
        codes = np.zeros((128, 128), dtype=np.int8)
        j = np.arange(1, 128)
        codes[0, j], codes[j, 0] = j, -j
        claim = ODType(128, (1,) * 127)
        w = Witness(SignedVarMatrix(codes, 127), claim, None, identity_weighing(1).trace)
        out = add_identity_variable(w).matrix
        wide = codes.astype(np.int64)
        assert out.num_vars == 128 and out.codes.dtype == np.int16
        assert np.array_equal(out.codes, wide + np.sign(wide) + np.eye(128, dtype=np.int64))
        assert out.codes[0, 127] == 128 and out.codes[127, 0] == -128

    def test_add_identity_variable_of_a_small_design_is_one_byte(self):
        w = skew_od_pow2_four(1, 1, 1, 1)
        wide = w.matrix.codes.astype(np.int64)
        out = add_identity_variable(w).matrix
        assert out.codes.dtype == np.int8
        assert np.array_equal(out.codes, wide + np.sign(wide) + np.eye(32, dtype=np.int64))

    def test_add_identity_rejects_non_skew(self):
        with pytest.raises(ConstructionError):
            add_identity_variable(symmetric_od_pow2(2))

    def test_unit_slot_extraction(self):
        w = small_od_provider(ODType(4, (1, 3)))
        skew = skew_weighing_from_unit_slot(w)
        assert skew.claim.order == 4 and skew.claim.weight == 3
        assert skew.structure.skew_symmetric

    def test_unit_slot_gathers_match_dense_products(self):
        # E.T @ X for the unit member E is computed as one signed row gather
        # of the code grid, the unit E.T @ E = I dropped; the dense product
        # of every member is the reference.  Signed row permutations of a
        # design keep its type and make E a nontrivial signed permutation.
        rng = np.random.default_rng(7)
        base = small_od_provider(ODType(8, (1, 2, 5)))
        for _ in range(5):
            signs = rng.choice([-1, 1], 8)[:, None]
            x = SignedVarMatrix(signs * base.matrix.codes[rng.permutation(8)], 3)
            w = Witness(x, base.claim, structure_check(x), base.trace)
            family = decompose_family(x)
            expected = [mat_mul(transpose(family[0]), member) for member in family]
            assert expected[0] == IntMatrix(np.eye(8, dtype=np.int64))
            codes = _normalized_codes(w)
            for j, member in enumerate(expected[1:], start=2):
                assert np.array_equal(np.where(np.abs(codes) == j, np.sign(codes), 0), member.entries)
            assert np.count_nonzero(codes) == sum(np.count_nonzero(m.entries) for m in expected[1:])
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

    @pytest.mark.parametrize("x", [1, -1])
    @pytest.mark.parametrize("c", range(1, 7))
    def test_copies_of_a_unit_block_derive_their_report(self, c, x):
        """c copies of [x] are x*I_c; the report is derived without the
        matrix, and reading the matrix checks it against ``structure_check``."""
        block = _witness(IntMatrix([[x]]), WeighingType(1, 1), Trace("unit"))
        w = _composed(((c, block),), Trace("copies"))
        assert w.blocks
        assert w.structure == structure_check(IntMatrix(x * np.eye(c, dtype=np.int64)))
        assert w.structure == structure_check(w.matrix)
        if x == 1:
            assert identity_weighing(c).structure == w.structure

    def test_symmetric_weight_one_sum_of_larger_blocks_is_refused(self):
        swap = _witness(IntMatrix([[0, 1], [1, 0]]), WeighingType(2, 1), Trace("swap"))
        with pytest.raises(ConstructionError):
            _composed(((2, swap),), Trace("swaps"))


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


# The derived steps: each derives a witness from a verified one by a step
# that keeps the design identity, and runs no verifier.
_DERIVED_STEPS = (
    "spread_circulant",
    "od_from_weighing",
    "collapse_od_to_weighing",
    "merge_od_variables",
    "skew_weighing_from_unit_slot",
    "add_identity_variable",
    "_merge_all_ones",
)


def _callers(tree: ast.AST) -> dict[str, set[str]]:
    """Name called -> the innermost functions that call it ("<module>" for
    calls outside any function)."""
    found: dict[str, set[str]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                found.setdefault(child.func.id, set()).add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


# Designs up to order 1,000 from every builder the finishing steps meet.
_ORACLE_DESIGNS = {
    "two-square-1-1": lambda: two_square_od(1, 1),
    "two-square-1-2": lambda: two_square_od(1, 2),
    "two-square-3-4": lambda: two_square_od(3, 4),  # order 546
    "gs-1-1-1-1": lambda: goethals_seidel_od(1, 1, 1, 1),
    "gs-0-1-2-4": lambda: goethals_seidel_od(0, 1, 2, 4),
    "eight-1-1-1-1": lambda: eight_block_od(1, 1, 1, 1),
    "eight-0-0-1-3": lambda: eight_block_od(0, 0, 1, 3),  # order 312
    **{f"sym-all-ones-{k}": (lambda k=k: symmetric_od_pow2(k)) for k in range(1, 6)},
    "skew-four-1-1-1-1": lambda: skew_od_pow2_four(1, 1, 1, 1),
    "skew-four-1-2-1-2": lambda: skew_od_pow2_four(1, 2, 1, 2),
    "skew-four-1-4-1-1": lambda: skew_od_pow2_four(1, 4, 1, 1),
    **{
        f"provider-{t.order}-{'-'.join(map(str, t.type_tuple))}": (lambda t=t: small_od_provider(t))
        for t in (
            ODType(4, (1, 3)),
            ODType(8, (1, 2, 5)),
            ODType(16, (1, 1, 7)),
            ODType(16, (1, 15)),
            ODType(32, (1, 2, 2)),
            ODType(32, (1, 31)),
        )
    },
    **{f"catalog-{i}": (lambda i=i: load_catalog()[i].witness) for i in range(4)},
}


def _finishing_steps(design: Witness) -> list[tuple[str, Witness]]:
    """Every finishing step that fits ``design``, applied to it or to the
    design one merge makes of it."""
    claim = design.claim
    l = claim.num_vars
    flat = collapse_od_to_weighing(design)
    out = [("collapse", flat), ("od-from-weighing", od_from_weighing(flat))]
    if l > 1:
        head_and_rest = merge_od_variables(design, [(1,), tuple(range(2, l + 1))])
        out += [
            ("merge-all", merge_od_variables(design, [tuple(range(1, l + 1))])),
            ("merge-head-and-rest", head_and_rest),
            ("zero-all-but-last", merge_od_variables(design, [(l,)], tuple(range(1, l)))),
        ]
        if claim.type_tuple[0] == 1:
            out.append(("skew-from-unit-slot", skew_weighing_from_unit_slot(head_and_rest)))
    if design.structure.skew_symmetric:
        out.append(("add-identity", add_identity_variable(design)))
    return out


class TestDerivedSteps:
    """The finishing steps inherit their input's proof: no verifier runs in
    them, so this oracle checks what the verifier used to check on every
    result they give."""

    def test_verifiers_run_only_in_the_exit(self):
        callers = _callers(ast.parse(inspect.getsource(constructions)))
        assert callers["verify_weighing"] == {"_witness"}
        assert callers["verify_od"] == {"_witness"}
        for verifier in ("_family_report", "specialize_variables"):
            assert verifier not in callers
        assert not callers["_witness"] & set(_DERIVED_STEPS)

    def test_finishing_steps_act_on_the_code_grid(self):
        """No build path splits a design into dense member matrices: the
        finishing steps gather, relabel and compare the code grid itself."""
        callers = _callers(ast.parse(inspect.getsource(constructions)))
        assert "decompose_family" not in callers
        assert callers["_normalized_codes"] == {"skew_od_pow2_four", "skew_weighing_from_unit_slot"}

    @pytest.mark.parametrize("build", _ORACLE_DESIGNS.values(), ids=_ORACLE_DESIGNS.keys())
    def test_results_pass_the_dense_oracle_and_replay(self, monkeypatch, build):
        design = build()
        reports = []
        original = matrices._family_report
        monkeypatch.setattr(
            matrices, "_family_report", lambda *a, **k: reports.append(a) or original(*a, **k)
        )
        results = _finishing_steps(design)
        assert reports == []
        monkeypatch.undo()
        for label, w in results:
            claim, m = w.claim, w.matrix
            assert m.rows == claim.order, label
            if w.is_od:
                assert m.num_vars == claim.num_vars, label
                assert dense_od_report(m.codes, claim.type_tuple) == (True, None, None), label
            else:
                assert dense_weighing_report(m.entries, claim.weight) == (True, None, None), label
            assert w.structure == structure_check(m), label
            assert replay(w.trace).matrix == m, label

    @pytest.mark.parametrize(
        "t",
        [ODType(4, (1, 3)), ODType(8, (1, 2, 5)), ODType(16, (1, 1, 7)), ODType(32, (1, 2, 2))],
        ids=str,
    )
    def test_provider_merges_pass_the_dense_oracle(self, monkeypatch, t):
        """The provider merges an all-ones design, a catalog entry or the
        symmetric construction, into the requested type without a verifier."""
        exponent = t.order.bit_length() - 1
        base = next(
            (e.witness for e in load_catalog() if e.witness.claim.order == t.order),
            None,
        ) or symmetric_od_pow2(exponent)
        reports = []
        monkeypatch.setattr(matrices, "_family_report", lambda *a, **k: reports.append(a))
        w = _merge_all_ones(base, t, Trace("merge"))
        assert reports == []
        monkeypatch.undo()
        assert w.claim == t
        assert dense_od_report(w.matrix.codes, t.type_tuple) == (True, None, None)
        assert w.structure == structure_check(w.matrix)
        assert w.matrix == small_od_provider(t).matrix

    def test_skew_extraction_keeps_its_shape_promise(self, monkeypatch):
        """A result that is not skew is refused, from the shape report the
        step computes anyway."""
        design = small_od_provider(ODType(4, (1, 3)))
        symmetric = symmetric_od_pow2(1).structure
        monkeypatch.setattr(constructions, "structure_check", lambda m: symmetric)
        with pytest.raises(VerificationInternalError, match="not skew_symmetric"):
            skew_weighing_from_unit_slot(design)


class TestPow2DesignCodes:
    """The power-of-two designs assemble in ``_code_dtype`` of their variable
    count, one byte per cell, as the block arrays do."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetric_all_ones_is_one_byte_and_exact(self, k):
        p, q, i = np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]]), np.eye(2, dtype=np.int64)
        want = np.zeros((1 << k, 1 << k), dtype=np.int64)
        for var in range(1, k + 1):
            blocks = [p] * k if var == 1 else [i] * (var - 2) + [q] + [p] * (k - var + 1)
            word = np.eye(1, dtype=np.int64)
            for block in blocks:
                word = np.kron(word, block)
            want += var * word
        codes = symmetric_od_pow2(k).matrix.codes
        assert codes.dtype == np.int8
        assert np.array_equal(codes, want)

    def test_skew_and_provider_designs_are_one_byte(self):
        for w in (
            skew_od_pow2_four(1, 1, 1, 1),
            skew_od_pow2_four(1, 4, 1, 1),
            small_od_provider(ODType(32, (1, 31))),
        ):
            assert w.matrix.codes.dtype == np.int8, w.trace.op
        # E.T @ S is a gather of int8 signs and rows
        skew = skew_weighing_from_unit_slot(small_od_provider(ODType(16, (1, 15))))
        assert skew.matrix.entries.dtype == np.int8


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
