"""The block-circulant pass of the verifiers against the dense reference.

``odforge.matrices._block_circulant_proof`` proves a family from the first
rows of the q x q blocks of a code grid whose blocks are all circulant or
back-circulant.  Here designs from the block arrays and circulant weighing
blocks are corrupted in ways that keep every block circulant or
back-circulant (first-row entries changed, negated, swapped or moved to
another block of the block row, a block re-rolled as the other type, a wrong weight claimed), so the pass always
reaches its arithmetic.  There it decides exactly: it returns True when, and
only when, the dense reference in conftest says ok.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge import matrices
from odforge.constructions import (
    _cw_row,
    circulant_cw,
    eight_block_od,
    goethals_seidel_od,
    spread_circulant,
    two_square_od,
)
from odforge.matrices import ODType, SignedVarMatrix, circulant
from conftest import dense_od_report


def _codes(w):
    m = w.matrix
    return m.codes if isinstance(m, SignedVarMatrix) else m.entries


def _weights(w):
    claim = w.claim
    return claim.type_tuple if isinstance(claim, ODType) else (claim.weight,)


BLOCK_ARRAYS = [
    two_square_od(1, 2),
    two_square_od(2, 3),
    two_square_od(1, 4),
    goethals_seidel_od(1, 1, 1, 2),
    goethals_seidel_od(0, 1, 1, 2),
    goethals_seidel_od(1, 2, 2, 2),
    eight_block_od(1, 1, 1, 1),
    eight_block_od(0, 1, 1, 2),
]
CIRCULANT_BLOCKS = [
    circulant_cw(2),
    circulant_cw(3),
    circulant_cw(4),
    spread_circulant(circulant_cw(2), 3),
]
POOL = [(np.asarray(_codes(w)), tuple(_weights(w))) for w in BLOCK_ARRAYS + CIRCULANT_BLOCKS]


def _roll(first: np.ndarray, back: bool) -> np.ndarray:
    """The q x q circulant (back-circulant) block with this first row."""
    q = first.shape[0]
    r, c = np.arange(q)[:, None], np.arange(q)[None, :]
    return first[(c + r) % q] if back else first[(c - r) % q]


@st.composite
def _structured_corruption(draw):
    codes, weights = POOL[draw(st.integers(0, len(POOL) - 1))]
    codes = np.array(codes, dtype=np.int64)
    n = codes.shape[0]
    h = n & -n
    q = n // h
    back = matrices._block_types(codes, h, q)
    top = len(weights)

    def block(i, j):
        return codes[i * q : (i + 1) * q, j * q : (j + 1) * q]

    for _ in range(draw(st.integers(0, 3))):
        i, j, j2 = (draw(st.integers(0, h - 1)) for _ in range(3))
        first, other = block(i, j)[0].copy(), block(i, j2)[0].copy()
        x, y = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
        kind = draw(st.sampled_from(("code", "sign", "swap", "move", "type")))
        if kind == "code":
            first[x] = draw(st.integers(-top, top))
        elif kind == "sign":
            first[x] = -first[x]
        elif kind == "swap":
            first[[x, y]] = first[[y, x]]
        elif kind == "move":  # to another block of the block row: same row weights
            other[y], first[x] = first[x], other[y]
            block(i, j2)[:] = _roll(other, bool(back[i, j2]))
        else:
            back[i, j] = not back[i, j]
        block(i, j)[:] = _roll(first, bool(back[i, j]))
    weights = list(weights)
    if draw(st.integers(0, 9)) == 0:
        weights[draw(st.integers(0, len(weights) - 1))] += draw(st.sampled_from((-1, 1)))
    return codes, tuple(weights)


@settings(max_examples=400)
@given(_structured_corruption())
def test_proof_agrees_with_dense_reference(case):
    codes, weights = case
    proven = matrices._block_circulant_proof(codes, weights)
    assert proven == dense_od_report(codes, weights)[0]


@pytest.mark.parametrize("index", range(len(POOL)))
def test_proves_every_uncorrupted_design(index):
    codes, weights = POOL[index]
    assert matrices._block_circulant_proof(codes, weights)


def test_proves_a_large_two_block_design():
    # the largest block-io design: 10.1 M support-kernel terms, here 10.6 k
    w = two_square_od(3, 8)
    assert matrices._block_circulant_proof(w.matrix.codes, w.claim.type_tuple)


@pytest.mark.parametrize("n", [2, 4, 12, 40])
def test_skips_orders_with_odd_part_below_three(n):
    # q = 1 for powers of two; n = 12 and 40 have q = 3 and 5
    codes = np.eye(n, dtype=np.int64)
    assert matrices._block_circulant_proof(codes, (1,)) == (n // (n & -n) >= 3)


def test_code_past_the_claimed_variables_is_not_proven():
    codes = np.array(POOL[0][0])
    assert not matrices._block_circulant_proof(codes, POOL[0][1][:1])


def _nearly_block_circulant(h: int, q: int, rng) -> np.ndarray:
    """An h x h grid of random circulant and back-circulant blocks whose
    last row is changed, so the structure check reads every row."""
    grid = np.zeros((h * q, h * q), dtype=np.int64)
    for i in range(h):
        for j in range(h):
            first = rng.integers(-1, 2, size=q)
            grid[i * q : (i + 1) * q, j * q : (j + 1) * q] = _roll(first, (i + j) % 2 == 1)
    grid[-1, 0] = 2
    return grid


def test_structure_check_memory_is_bounded_by_a_row_block(rng):
    grid = _nearly_block_circulant(2, 999, rng)
    n = grid.shape[0]
    tracemalloc.start()
    try:
        proven = matrices._block_circulant_proof(grid, (n // 3,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not proven
    # an n x n temporary of bools alone would take n * n bytes
    assert peak < 2 * matrices._COMPARE_ROWS * n * grid.itemsize < n * n


def test_pass_memory_is_bounded_by_its_term_blocks():
    # W(2451, 2401) has one block row of 2401**2 terms, eleven times
    # _BLOCK_TERMS; the pass takes them in blocks of at most _BLOCK_TERMS
    row, _ = _cw_row(49)
    codes = circulant(row).entries
    tracemalloc.start()
    try:
        proven = matrices._block_circulant_proof(codes, (2401,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proven
    assert peak < 12 * 8 * matrices._BLOCK_TERMS


def test_late_violation_falls_back_to_the_kernels():
    # a sign flipped in the last row: the pass proves nothing, and the
    # kernels report the reference's first violation
    w = two_square_od(2, 3)
    codes = np.array(w.matrix.codes)
    codes[-1, np.flatnonzero(codes[-1])[0]] *= -1
    assert not matrices._block_circulant_proof(codes, w.claim.type_tuple)
    report = matrices.verify_od(SignedVarMatrix(codes, w.matrix.num_vars), w.claim)
    assert (report.ok, report.condition, report.where) == dense_od_report(
        codes, w.claim.type_tuple
    )


@pytest.mark.parametrize(
    "w, runs",
    [
        # OD(24; 1, 1, 1, 1, 1) and OD(84; 1, 1, 1, 4): few terms, all in
        # the support kernel
        (eight_block_od(1, 1, 1, 1), False),
        (goethals_seidel_od(1, 1, 1, 2), False),
        # W(7, 4) and OD(42; 1, 4): few terms, but a dense product
        (circulant_cw(2), True),
        (two_square_od(1, 2), True),
        # OD(182; 4, 9): 30,758 terms
        (two_square_od(2, 3), True),
    ],
)
def test_pass_runs_unless_the_support_kernel_is_cheaper(w, runs, monkeypatch):
    calls = []
    proof = matrices._block_circulant_proof
    monkeypatch.setattr(
        matrices, "_block_circulant_proof", lambda codes, weights: calls.append(1) or proof(codes, weights)
    )
    assert matrices._family_report(np.asarray(_codes(w)), _weights(w), "").ok
    assert calls == ([1] if runs else [])
