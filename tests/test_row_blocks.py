"""Row-block boundaries of the support kernel, of the block-circulant
structure check and of the matrix-file parser and file reader.

All three work one block of rows at a time, and at their default block sizes
every small test matrix fits in one block.  Here the differential tests of
``test_verify_kernels.py``, ``test_block_circulant.py`` and
``test_matfile.py`` run again with blocks of a row or a few rows, so the
support kernel's upper-triangle filter, the structure check's early exit and
the parser's per-block decode meet block boundaries at every offset.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given

import test_block_circulant
import test_matfile
import test_verify_kernels
from odforge import matfile, matrices
from odforge.constructions import circulant_cw, goethals_seidel_od, spread_circulant
from odforge.matfile import emit_matrix_file, parse_matrix_file
from odforge.matrices import IntMatrix
from conftest import dense_weighing_report

# Partner terms per kernel block: 1 gives one row per block; 96 gives blocks
# of a few rows for the weights of the test designs.
KERNEL_BLOCK_TERMS = (1, 96)
# Rows per comparison block of the structure check.
COMPARE_ROWS = (1, 2, 3)
# Cells per parse block: 1 gives one row per block; 24 gives blocks of two to
# a few rows for the orders 1..12 of the generated texts.
PARSE_BLOCK_CELLS = (1, 24)
# Rows per parse block of the file reader, whatever the order.
PARSE_BLOCK_ROWS = (1, 2, 3)


@pytest.mark.parametrize("terms", KERNEL_BLOCK_TERMS)
@pytest.mark.parametrize(
    "differential",
    [
        test_verify_kernels.test_design_kernels_match_dense_reference,
        test_verify_kernels.test_weighing_kernels_match_dense_reference,
    ],
    ids=["design", "weighing"],
)
def test_kernel_differential_tests_in_small_blocks(differential, terms, monkeypatch):
    monkeypatch.setattr(matrices, "_BLOCK_TERMS", terms)
    differential()


@pytest.mark.parametrize("terms", (*KERNEL_BLOCK_TERMS, matrices._BLOCK_TERMS))
@pytest.mark.parametrize("q, spread", [(3, 1), (2, 10)])
def test_flip_below_the_diagonal_reports_its_mirror(q, spread, terms, monkeypatch):
    # A valid W(n, k) with one entry A[i, j] (i > j) negated: row i's inner
    # products with the rows p sharing column j change, at (i, p) and (p, i).
    # The first in row-major order lies above the diagonal, mirrored from
    # below when p < i.
    monkeypatch.setattr(matrices, "_BLOCK_TERMS", terms)
    w = spread_circulant(circulant_cw(q), spread)
    grid = np.array(w.matrix.entries, dtype=np.int64)
    k = w.claim.weight
    i, j = max((r, c) for r, c in zip(*np.nonzero(np.tril(grid, -1))))
    grid[i, j] = -grid[i, j]
    expected = dense_weighing_report(grid, k)
    assert expected[0] is False and expected[2][0] < expected[2][1]
    assert expected[2][0] < i  # the mirror of a cell in row i
    for name, got in test_verify_kernels.forced_reports(grid, (k,), "").items():
        assert got == expected, name
    got = matrices.verify_weighing(IntMatrix(grid), k)
    assert test_verify_kernels._triple(got) == expected


@pytest.mark.parametrize("rows", COMPARE_ROWS)
@pytest.mark.parametrize(
    "differential",
    [
        test_block_circulant.test_proof_agrees_with_dense_reference,
        test_verify_kernels.test_design_kernels_match_dense_reference,
    ],
    ids=["structured", "design"],
)
def test_block_circulant_differential_tests_in_small_blocks(differential, rows, monkeypatch):
    monkeypatch.setattr(matrices, "_COMPARE_ROWS", rows)
    differential()


@pytest.mark.parametrize("terms", KERNEL_BLOCK_TERMS)
def test_block_circulant_differential_test_in_small_term_blocks(terms, monkeypatch):
    # 1 counts one term at a time, one block row per count; 96 takes a few
    # terms and block rows per count
    monkeypatch.setattr(matrices, "_BLOCK_TERMS", terms)
    test_block_circulant.test_proof_agrees_with_dense_reference()


@pytest.mark.parametrize("rows", COMPARE_ROWS)
def test_structure_check_finds_a_flip_in_every_row(rows, monkeypatch):
    # one sign flipped in row r breaks its q x q block (q = 21) whatever r
    # is, so the pass proves nothing; unflipped, it proves the design
    monkeypatch.setattr(matrices, "_COMPARE_ROWS", rows)
    w = goethals_seidel_od(1, 1, 1, 2)
    weights = w.claim.type_tuple
    assert matrices._block_circulant_proof(w.matrix.codes, weights)
    for r in range(w.claim.order):
        codes = np.array(w.matrix.codes)
        codes[r, np.flatnonzero(codes[r])[r % 5]] *= -1
        assert not matrices._block_circulant_proof(codes, weights), r


@pytest.mark.parametrize("cells", PARSE_BLOCK_CELLS)
@given(text=test_matfile.corrupted_texts())
def test_corrupted_texts_in_small_blocks(cells, text):
    # a bad token in a later block gives the reference's line and token
    with mock.patch.object(matfile, "_PARSE_BLOCK_CELLS", cells):
        test_matfile.assert_parsers_agree(text)


@pytest.mark.parametrize("cells", PARSE_BLOCK_CELLS)
@given(case=test_matfile._cases)
def test_round_trips_in_small_blocks(cells, case):
    text = emit_matrix_file(*case)
    with mock.patch.object(matfile, "_PARSE_BLOCK_CELLS", cells):
        assert test_matfile.assert_parsers_agree(text)[0] == "ok"
        assert emit_matrix_file(*parse_matrix_file(text)) == text


@pytest.mark.parametrize("rows", PARSE_BLOCK_ROWS)
@given(text=test_matfile.corrupted_texts())
def test_file_reader_in_blocks_of_a_few_rows(rows, text):
    # a bad row, a missing or an extra row in a later block, and blank lines
    # past the last row, give the string parser's outcome
    n = int(text.split(" ", 2)[1])
    with mock.patch.object(matfile, "_PARSE_BLOCK_CELLS", rows * n):
        test_matfile.assert_file_reader_agrees(text)
