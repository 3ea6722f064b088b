"""Text interchange format: parsing, emission, round trips, diagnostics."""

import locale
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from odforge import matfile
from odforge.constructions import two_square_od
from odforge.matfile import (
    FLAG_ORDER,
    MatrixFileError,
    emit_matrix_file,
    parse_matrix_file,
    read_matrix_file,
)
from odforge.matrices import IntMatrix, ODType, SignedVarMatrix, WeighingType
from conftest import reference_emit_matrix_file, reference_parse_matrix_file


def _two_digit_design():
    """A 12 x 12 code grid with l = 12, so tokens such as "-12" and "+10",
    with its claim and canonical text."""
    n = l = 12
    codes = (np.add.outer(np.arange(n), 3 * np.arange(n)) % (2 * l + 1)) - l
    claim = ODType(n, (1,) * l)
    return codes, claim, emit_matrix_file(SignedVarMatrix(codes, l), claim)


class TestParseBasics:
    def test_minimal_weighing(self):
        matrix, claim, flags = parse_matrix_file("W 2 1\n+ 0\n0 +\n")
        assert isinstance(matrix, IntMatrix)
        assert claim == WeighingType(2, 1)
        assert flags == ()
        assert matrix.entries.tolist() == [[1, 0], [0, 1]]

    def test_trailing_newline_optional(self):
        with_nl = parse_matrix_file("W 2 1\n+ 0\n0 +\n")
        without_nl = parse_matrix_file("W 2 1\n+ 0\n0 +")
        assert np.array_equal(with_nl[0].entries, without_nl[0].entries)

    def test_numeric_aliases(self):
        matrix, _, _ = parse_matrix_file("W 2 2\n1 -1\n-1 -1\n")
        assert matrix.entries.tolist() == [[1, -1], [-1, -1]]

    def test_design_tokens(self):
        matrix, claim, _ = parse_matrix_file("OD 2 1,1\n+1 +2\n+2 -1\n")
        assert isinstance(matrix, SignedVarMatrix)
        assert claim == ODType(2, (1, 1))
        assert matrix.codes.tolist() == [[1, 2], [2, -1]]

    def test_two_digit_variable_indices(self):
        codes, claim, text = _two_digit_design()
        assert {"+10", "-12", "0", "+1"} <= set(text.split())
        matrix, parsed_claim, _ = parse_matrix_file(text)
        assert parsed_claim == claim
        assert matrix.codes.tolist() == codes.tolist()
        assert (matrix.codes.tolist(), claim, ()) == reference_parse_matrix_file(text)

    # ":" is the byte after "9": a decoder that skipped the digit check
    # would read "+:" as +10
    @pytest.mark.parametrize(
        "token", ["+13", "-013", "+1x", "x1", "+", "+:", "-0:", "+012", "-00012"]
    )
    def test_two_digit_index_tokens_match_reference(self, token):
        lines = _two_digit_design()[2].split("\n")
        tokens = lines[9].split(" ")
        tokens[4] = token
        lines[9] = " ".join(tokens)
        assert_parsers_agree("\n".join(lines))

    def test_flags_parsed_and_canonicalized(self):
        _, _, flags = parse_matrix_file("W 2 1 circ sym\n+ 0\n0 +\n")
        assert flags == ("sym", "circ")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty"),
            ("X 2 1\n+ 0\n0 +\n", "unknown matrix kind"),
            ("W 2\n+ 0\n0 +\n", "order and weight"),
            ("W two 1\n+ 0\n0 +\n", "must be integers"),
            ("OD 2\n+1 +2\n+2 -1\n", "type list"),
            ("W 2 1 loud\n+ 0\n0 +\n", "unknown flag"),
            ("W 2 1 sym sym\n+ 0\n0 +\n", "duplicate flag"),
            ("W 2 1\n+ 0\n", "body has 1 rows"),
            ("W 2 1\n+ 0\n0 +\n+ 0\n", "body has 3 rows"),
            ("W 2 1\n+  0\n0 +\n", "single spaces"),
            ("W 2 1\n+ 0 0\n0 + 0\n", "row has 3 tokens"),
        ],
    )
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_file(text)
        assert fragment in str(err.value)

    def test_huge_order_with_short_rows_is_a_format_error(self):
        # An n x n grid for n = 10**6 would need 8 TB; rows too short to
        # fill it are reported before anything of that size is allocated.
        text = "W 1000000 1\n" + "+\n" * 10**6
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_file(text)
        assert str(err.value) == "line 2: row has 1 tokens, expected 1000000"

    def test_huge_order_with_short_rows_in_a_file_is_a_format_error(self, tmp_path):
        # The file's size bounds its text, so its rows are read one by one
        # and no grid is allocated.
        path = tmp_path / "huge.txt"
        path.write_text("W 1000000 1\n" + "+\n" * 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFileError) as err:
                read_matrix_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "line 2: row has 1 tokens, expected 1000000"
        assert peak < 1 << 20

    def test_text_longer_than_its_bound_is_an_error(self):
        # the rows of a file that grew after its size was taken all pass,
        # but no grid was allocated for them
        lines = iter(["W 2 1\n", "+ 0\n", "0 +\n"])
        with pytest.raises(MatrixFileError) as err:
            matfile._parse_lines(lines, 5)
        assert str(err.value) == "input grew while it was read"

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_file("W 2 1\n+ 0\n0 x\n")
        message = str(err.value)
        assert "line 3" in message and "token 2" in message

    def test_bad_design_index_reports_position(self):
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_file("OD 2 1,1\n+1 +2\n+3 -1\n")
        message = str(err.value)
        assert "line 3" in message and "token 1" in message
        assert "outside 1..2" in message

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
    def test_design_rejects_non_ascii_digits(self, digit):
        # str.isdigit() accepts these, int() does not (or reads them as a
        # different number): they are bad tokens, reported in place.
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_file(f"OD 2 1,1\n+1 +2\n+2 -{digit}\n")
        assert str(err.value) == (
            f"line 3, token 2: bad design token '-{digit}' (expected 0, +j, -j)"
        )

    def test_non_canonical_design_index_still_parses(self):
        matrix, _, _ = parse_matrix_file("OD 2 1,1\n+01 +2\n+2 -001\n")
        assert matrix.codes.tolist() == [[1, 2], [2, -1]]

    def test_design_rejects_bare_numbers(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("OD 2 1,1\n1 +2\n+2 -1\n")

    def test_impossible_header_claim(self):
        # Total weight above the order cannot even be claimed.
        with pytest.raises(MatrixFileError):
            parse_matrix_file("W 2 5\n+ 0\n0 +\n")


class TestEmit:
    def test_weighing_canonical_form(self):
        text = emit_matrix_file(IntMatrix([[1, 0], [0, -1]]), WeighingType(2, 1))
        assert text == "W 2 1\n+ 0\n0 -\n"

    def test_design_canonical_form(self):
        codes = np.array([[1, 2], [2, -1]], dtype=np.int64)
        text = emit_matrix_file(SignedVarMatrix(codes, 2), ODType(2, (1, 1)))
        assert text == "OD 2 1,1\n+1 +2\n+2 -1\n"

    def test_flags_sorted_canonically(self):
        text = emit_matrix_file(
            IntMatrix([[1, 0], [0, 1]]), WeighingType(2, 1), flags=("circ", "sym")
        )
        assert text.splitlines()[0] == "W 2 1 sym circ"

    @pytest.mark.parametrize(
        "matrix, claim, flags, fragment",
        [
            (IntMatrix([[2, 0], [0, 2]]), WeighingType(2, 1), (), "entries"),
            (IntMatrix([[1, 0], [0, 1]]), WeighingType(2, 1), ("loud",), "unknown flag"),
            (IntMatrix([[1, 0], [0, 1]]), WeighingType(2, 1), ("sym", "sym"), "duplicate"),
            (IntMatrix([[1]]), WeighingType(2, 1), (), "shape"),
            (IntMatrix([[1, 0], [0, 1]]), ODType(2, (1,)), (), "symbolic"),
        ],
    )
    def test_emit_rejects(self, matrix, claim, flags, fragment):
        with pytest.raises(MatrixFileError) as err:
            emit_matrix_file(matrix, claim, flags=flags)
        assert fragment in str(err.value)

    def test_first_out_of_range_weighing_entry_is_named(self):
        # Row-major order decides which entry is reported; a huge entry is
        # reported as is.
        grid = [[1, 0, 2**62], [0, -7, 1], [1, 1, 0]]
        with pytest.raises(MatrixFileError) as err:
            emit_matrix_file(IntMatrix(grid), WeighingType(3, 2))
        assert str(err.value) == (
            f"weighing entries must lie in {{0, +1, -1}}, got {2**62}"
        )

    def test_first_out_of_range_entry_past_the_first_row_block(self):
        grid = np.zeros((600, 600), dtype=np.int64)
        grid[450, 7], grid[599, 0] = -3, 5
        with pytest.raises(MatrixFileError) as err:
            emit_matrix_file(IntMatrix._adopt(grid), WeighingType(600, 1))
        assert str(err.value).endswith("got -3")

    def test_large_matrix_holds_no_token_grid(self):
        # A token list per entry of the whole matrix would be eight bytes per
        # cell; emitted in row blocks, the peak is about the text twice over
        # (the row strings and their join).
        n = 1024
        grid = np.random.default_rng(5).integers(-1, 2, size=(n, n))
        matrix = IntMatrix._adopt(grid)
        tracemalloc.start()
        try:
            text = emit_matrix_file(matrix, WeighingType(n, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == reference_emit_matrix_file(matrix, WeighingType(n, n))
        assert peak < 3 * len(text)

    @pytest.mark.parametrize("kind", ["weighing", "design"])
    def test_parse_holds_no_token_grid(self, kind):
        # The body is decoded one row block at a time: past the n x n int64
        # grid and the text's rows, the peak holds one block's temporaries,
        # not index arrays of eight bytes per token of the whole body.
        n = 1024
        rng = np.random.default_rng(5)
        if kind == "weighing":
            matrix, claim = IntMatrix._adopt(rng.integers(-1, 2, size=(n, n))), WeighingType(n, n)
        else:
            codes = rng.integers(-12, 13, size=(n, n))
            matrix, claim = SignedVarMatrix._adopt(codes, 12), ODType(n, (1,) * 12)
        text = emit_matrix_file(matrix, claim)
        tracemalloc.start()
        try:
            parsed, _, _ = parse_matrix_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == matrix
        assert peak < 8 * n * n + 2 * len(text)

    def test_parse_of_a_large_design_holds_under_two_bytes_per_cell(self):
        # OD(1898; 9, 64), the largest block-io design: its 7.3 MB text is
        # decoded into a one-byte grid, so the peak is the grid and one row
        # block's temporaries (an int64 grid alone would be 8 n^2 bytes).
        w = two_square_od(3, 8)
        n = w.claim.order
        text = emit_matrix_file(w.matrix, w.claim)
        tracemalloc.start()
        try:
            parsed, _, _ = parse_matrix_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == w.matrix
        assert peak < 2 * n * n

    @pytest.mark.parametrize("l", [9, 10, 99, 100])
    def test_design_tokens_of_every_word_width(self, l):
        # with its space, "-9" fills 3 bytes of a 4-byte word, "-99" all 4,
        # "-100" 5 of 8
        codes = np.random.default_rng(l).integers(-l, l + 1, size=(l, l))
        matrix, claim = SignedVarMatrix._adopt(codes, l), ODType(l, (1,) * l)
        assert emit_matrix_file(matrix, claim) == reference_emit_matrix_file(matrix, claim)

    def test_design_codes_of_any_signed_dtype(self):
        codes = np.array([[1, -2], [2, 1]], dtype=np.int8)
        text = emit_matrix_file(SignedVarMatrix(codes, 2), ODType(2, (1, 1)))
        assert text == "OD 2 1,1\n+1 -2\n+2 +1\n"

    def test_emit_rejects_weighing_claim_on_design(self):
        codes = np.array([[1, 2], [2, -1]], dtype=np.int64)
        with pytest.raises(MatrixFileError) as err:
            emit_matrix_file(SignedVarMatrix(codes, 2), WeighingType(2, 1))
        assert "integer matrix" in str(err.value)

    def test_emit_rejects_variable_count_mismatch(self):
        codes = np.array([[1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(MatrixFileError) as err:
            emit_matrix_file(SignedVarMatrix(codes, 1), ODType(2, (1, 1)))
        assert "variables" in str(err.value)


class TestRoundTrip:
    def test_emit_parse_emit_identity_weighing(self):
        original = emit_matrix_file(
            IntMatrix([[1, -1], [-1, -1]]), WeighingType(2, 2), flags=("sym",)
        )
        matrix, claim, flags = parse_matrix_file(original)
        assert emit_matrix_file(matrix, claim, flags) == original

    def test_emit_parse_emit_identity_design(self):
        codes = np.array(
            [
                [1, -2, -3, -4],
                [2, 1, -4, 3],
                [3, 4, 1, -2],
                [4, -3, 2, 1],
            ],
            dtype=np.int64,
        )
        original = emit_matrix_file(SignedVarMatrix(codes, 4), ODType(4, (1, 1, 1, 1)))
        matrix, claim, flags = parse_matrix_file(original)
        assert emit_matrix_file(matrix, claim, flags) == original

    @pytest.mark.parametrize("l, dtype", [(127, np.int8), (128, np.int16)])
    def test_widest_int8_design_and_the_next_round_trip(self, l, dtype):
        # codes -l and +l in the first row, then every code at random
        codes = np.random.default_rng(l).integers(-l, l + 1, size=(l, l))
        codes[0, :2] = -l, l
        claim = ODType(l, (1,) * l)
        original = emit_matrix_file(SignedVarMatrix(codes, l), claim)
        assert original == reference_emit_matrix_file(SignedVarMatrix(codes, l), claim)
        matrix, parsed_claim, flags = parse_matrix_file(original)
        assert matrix.codes.dtype == dtype
        assert matrix.codes.tolist() == codes.tolist()
        assert assert_parsers_agree(original)[0] == "ok"
        assert emit_matrix_file(matrix, parsed_claim, flags) == original

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-1, max_value=1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_random_weighing_grids_round_trip(self, grid):
        n = len(grid)
        # The claim is only carried, not checked, by the format layer.
        original = emit_matrix_file(IntMatrix(grid), WeighingType(n, 1))
        matrix, claim, flags = parse_matrix_file(original)
        assert matrix.entries.tolist() == grid
        assert emit_matrix_file(matrix, claim, flags) == original

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_random_design_grids_round_trip(self, grid):
        n = len(grid)
        codes = np.array(grid, dtype=np.int64)
        type_tuple = tuple(1 for _ in range(3)) if n >= 3 else tuple(1 for _ in range(n))
        # Pad the claim so variable indices up to 3 stay legal.
        if n < 3:
            codes = np.clip(codes, -n, n)
        original = emit_matrix_file(SignedVarMatrix(codes, len(type_tuple)), ODType(n, type_tuple))
        matrix, claim, flags = parse_matrix_file(original)
        assert matrix.codes.tolist() == codes.tolist()
        assert emit_matrix_file(matrix, claim, flags) == original


# ---------------------------------------------------------------------------
# Differential tests: the table-driven emit and parse against the per-token
# reference in conftest.
# ---------------------------------------------------------------------------


def _parse_outcome(parse, text):
    """(codes as lists, claim, flags), or the error message."""
    try:
        matrix, claim, flags = parse(text)
    except MatrixFileError as err:
        return "error", str(err)
    if isinstance(matrix, IntMatrix):
        assert matrix.entries.dtype == np.int8
        matrix = matrix.entries.tolist()
    elif isinstance(matrix, SignedVarMatrix):
        # one byte per cell up to 127 variables, the next signed width past it
        assert matrix.codes.dtype == (np.int8 if claim.num_vars <= 127 else np.int16)
        matrix = matrix.codes.tolist()
    return "ok", matrix, claim, flags


def _emit_outcome(emit, matrix, claim, flags):
    try:
        return "ok", emit(matrix, claim, flags)
    except MatrixFileError as err:
        return "error", str(err)


def assert_parsers_agree(text):
    ours = _parse_outcome(parse_matrix_file, text)
    assert ours == _parse_outcome(reference_parse_matrix_file, text)
    return ours


# Each text is also written to a file as is, with CRLF line ends, without its
# final newline and with blank lines after its last.
_LINE_ENDS = {
    "as-is": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text.removesuffix("\n"),
    "trailing-blank-lines": lambda text: text + "\n\n",
}


def assert_file_reader_agrees(text):
    """read_matrix_file on each file form of ``text`` gives what
    parse_matrix_file gives on that form with its line ends translated, as
    text mode reads them."""
    for form, write in _LINE_ENDS.items():
        data = write(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "matrix.txt"
            path.write_bytes(data.encode(locale.getpreferredencoding(False)))
            got = _parse_outcome(read_matrix_file, path)
        translated = data.replace("\r\n", "\n").replace("\r", "\n")
        assert got == _parse_outcome(parse_matrix_file, translated), form


_flag_sets = st.lists(st.sampled_from(FLAG_ORDER), unique=True, max_size=3)


@st.composite
def weighing_cases(draw, values=st.integers(min_value=-1, max_value=1)):
    n = draw(st.integers(min_value=1, max_value=12))
    grid = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    claim = WeighingType(n, draw(st.integers(min_value=1, max_value=n)))
    return IntMatrix(grid), claim, tuple(draw(_flag_sets))


@st.composite
def design_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    l = draw(st.integers(min_value=1, max_value=n))
    codes = draw(
        st.lists(
            st.lists(st.integers(min_value=-l, max_value=l), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int64]))
    claim = ODType(n, (1,) * l)
    matrix = SignedVarMatrix(np.array(codes, dtype=dtype), l)
    return matrix, claim, tuple(draw(_flag_sets))


_cases = st.one_of(weighing_cases(), design_cases())


def _bad_tokens(claim):
    if isinstance(claim, WeighingType):
        return ["x", "1", "-1", "+1", "2", "--", "+-", "00", "+\r", "0\r", "\t0", ""]
    l = claim.num_vars
    return [
        "x", "+02", "-01", "+0", "-0", "00", f"+{l + 1}", f"-{l + 1}", "1", "-1",
        "+", "-", "++1", "+-1", "+\u00b2", "-\u0663", "+1\r", "0\r", "\t0", "",
        "+1.0", "+1_0", "+ 1",
    ]


@st.composite
def corrupted_texts(draw):
    matrix, claim, flags = draw(_cases)
    lines = emit_matrix_file(matrix, claim, flags).split("\n")
    n = claim.order
    row = draw(st.integers(min_value=1, max_value=n))
    tokens = lines[row].split(" ")
    col = draw(st.integers(min_value=0, max_value=n - 1))
    kind = draw(
        st.sampled_from(
            ["token", "double-space", "short-row", "long-row", "cr", "missing-row", "extra-row"]
        )
    )
    if kind == "token":
        tokens[col] = draw(st.sampled_from(_bad_tokens(claim)))
    elif kind == "double-space":
        tokens[col] = tokens[col] + " " if col < n - 1 else " " + tokens[col]
    elif kind == "short-row":
        del tokens[col]
    elif kind == "long-row":
        tokens.insert(col, tokens[col])
    elif kind == "cr":
        tokens[-1] += "\r"
    lines[row] = " ".join(tokens)
    if kind == "missing-row":
        del lines[row]
    elif kind == "extra-row":
        lines.insert(row, lines[row])
    return "\n".join(lines)


_FIXED_CASES = (
    (IntMatrix([[1, 0, -1], [0, 1, 1], [-1, 1, 0]]), WeighingType(3, 2), ("sym",)),
    (SignedVarMatrix(np.array([[1, -2, 0], [2, 1, -3], [0, 3, 1]]), 3), ODType(3, (1, 1, 1)), ()),
)


_each_bad_token = pytest.mark.parametrize(
    "case, token",
    [(case, token) for case in _FIXED_CASES for token in _bad_tokens(case[1])],
)
_each_place = pytest.mark.parametrize("row, col", [(1, 0), (2, 1), (3, 2)])


def _with_token(case, token, row, col):
    """The canonical text of a fixed case with one token replaced."""
    lines = emit_matrix_file(*case).split("\n")
    tokens = lines[row].split(" ")
    tokens[col] = token
    lines[row] = " ".join(tokens)
    return "\n".join(lines)


class TestAgainstReference:
    @_each_bad_token
    @_each_place
    def test_each_bad_token_matches_reference(self, case, token, row, col):
        assert_parsers_agree(_with_token(case, token, row, col))

    @_each_bad_token
    @_each_place
    def test_each_bad_token_in_a_file_matches_the_string_parser(self, case, token, row, col):
        assert_file_reader_agrees(_with_token(case, token, row, col))

    @given(_cases)
    def test_round_trip_matches_reference(self, case):
        matrix, claim, flags = case
        ours = _emit_outcome(emit_matrix_file, matrix, claim, flags)
        assert ours == _emit_outcome(reference_emit_matrix_file, matrix, claim, flags)
        outcome = assert_parsers_agree(ours[1])
        assert outcome[0] == "ok"
        assert emit_matrix_file(*parse_matrix_file(ours[1])) == ours[1]

    @given(_cases)
    def test_parsed_matrix_is_read_only_and_matches_reference(self, case):
        text = emit_matrix_file(*case)
        matrix, claim, flags = parse_matrix_file(text)
        array = matrix.entries if isinstance(matrix, IntMatrix) else matrix.codes
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0
        assert (array.tolist(), claim, flags) == reference_parse_matrix_file(text)

    def test_public_constructors_still_copy(self):
        grid = np.array([[1, 0], [0, -1]], dtype=np.int64)
        weighing, design = IntMatrix(grid), SignedVarMatrix(grid, 1)
        grid[0, 0] = 0
        assert grid.flags.writeable
        assert weighing.entries[0, 0] == 1 and design.codes[0, 0] == 1

    @given(corrupted_texts())
    def test_corrupted_texts_match_reference(self, text):
        assert_parsers_agree(text)

    @given(corrupted_texts())
    def test_corrupted_texts_in_a_file_match_the_string_parser(self, text):
        assert_file_reader_agrees(text)

    @given(
        weighing_cases(
            st.one_of(st.integers(min_value=-3, max_value=3), st.just(2**62))
        )
    )
    def test_weighing_emit_errors_match_reference(self, case):
        matrix, claim, flags = case
        assert _emit_outcome(emit_matrix_file, matrix, claim, flags) == _emit_outcome(
            reference_emit_matrix_file, matrix, claim, flags
        )

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_weighing_aliases_match_reference(self, n, data):
        alias = st.sampled_from(["0", "+", "-", "1", "-1"])
        rows = [
            " ".join(data.draw(st.lists(alias, min_size=n, max_size=n)))
            for _ in range(n)
        ]
        outcome = assert_parsers_agree("\n".join([f"W {n} 1"] + rows) + "\n")
        assert outcome[0] == "ok"
