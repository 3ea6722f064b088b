"""The block-circulant pass of the verifiers against the dense reference.

``odforge.matrices._block_circulant_proof`` proves a family from the first
rows of the q x q blocks of a code grid whose blocks are all developed or
back-developed over one group Z_q1 x ... x Z_qr of order q (circulant or
back-circulant when r = 1).  Here designs from the block arrays, circulant
weighing blocks and Kronecker products of circulant levels are corrupted in
ways that keep every block developed or back-developed over the design's
group (first-row entries changed, negated, swapped or moved to another block
of the block row, a block re-developed as the other type, a wrong weight
claimed), so the pass always reaches its arithmetic.  There it decides
exactly: it returns True when, and only when, the dense reference in
conftest says ok.
"""

import importlib.util
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge import matrices
from odforge.constructions import (
    _cw_row,
    block_array_od,
    circulant_cw,
    eight_block_od,
    goethals_seidel_od,
    spread_circulant,
    symmetric_w_square_odd,
    two_square_od,
)
from odforge.matrices import IntMatrix, ODType, SignedVarMatrix, circulant
from conftest import dense_od_report, dense_weighing_report


def _codes(w):
    m = w.matrix
    return m.codes if isinstance(m, SignedVarMatrix) else m.entries


def _weights(w):
    claim = w.claim
    return claim.type_tuple if isinstance(claim, ODType) else (claim.weight,)


def _develop(first: np.ndarray, back: bool, levels) -> np.ndarray:
    """The block developed over Z_q1 x ... x Z_qr (``levels``, places in
    row-major digits) from its first row: B[g, x] = first[x - g], or
    first[g + x] when back-developed."""
    digits = np.unravel_index(np.arange(first.shape[0]), levels)
    sign = 1 if back else -1
    place = np.ravel_multi_index(
        tuple((d[None, :] + sign * d[:, None]) % q for d, q in zip(digits, levels)), levels
    )
    return first[place]


def _roll(first: np.ndarray, back: bool) -> np.ndarray:
    """The q x q circulant (back-circulant) block with this first row."""
    return _develop(first, back, first.shape)


def _kronecker_two_block(rows_a, rows_b) -> np.ndarray:
    """[[A, B], [B, -A]] with A the Kronecker product of the back-circulant
    levels on rows_a (variable 1) and B that of the circulant levels on
    rows_b (variable 2): blocks developed over Z_q1 x ... x Z_qr, A's
    back-developed."""
    a = reduce(np.kron, (_develop(np.asarray(r), True, (len(r),)) for r in rows_a))
    b = reduce(np.kron, (_develop(np.asarray(r), False, (len(r),)) for r in rows_b))
    return np.block([[a, 2 * b], [2 * b, -a]]).astype(np.int8)


W74 = _cw_row(2)[0]
UNIT3, UNIT5, UNIT7 = ([1] + [0] * (q - 1) for q in (3, 5, 7))

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
# W(91, 36) back-developed over Z_7 x Z_13, OD(42; 4, 1) over Z_3 x Z_7 and
# OD(210; 4, 4) over Z_3 x Z_5 x Z_7
SMALL_MULTI_LEVEL = [
    (np.asarray(symmetric_w_square_odd(36).matrix.entries), (36,)),
    (_kronecker_two_block([UNIT3, W74], [UNIT3, UNIT7]), (4, 1)),
    (_kronecker_two_block([UNIT3, UNIT5, W74], [UNIT3, UNIT5, W74]), (4, 4)),
]
POOL = [
    (np.asarray(_codes(w)), tuple(_weights(w))) for w in BLOCK_ARRAYS + CIRCULANT_BLOCKS
] + SMALL_MULTI_LEVEL
# OD(546; 4, 36) and OD(546; 36, 4) over Z_7 x Z_39, whose dense reference
# takes about 0.4 s each: drawn by a test of their own
LARGE_POOL = [
    (np.asarray(_codes(w)), tuple(_weights(w))) for w in (two_square_od(2, 6), two_square_od(6, 2))
]
MULTI_LEVEL = LARGE_POOL + SMALL_MULTI_LEVEL


@st.composite
def _structured_corruption(draw, pool=POOL):
    codes, weights = pool[draw(st.integers(0, len(pool) - 1))]
    codes = np.array(codes, dtype=np.int64)
    n = codes.shape[0]
    h = n & -n
    q = n // h
    levels, back = matrices._block_types(codes, h, q)
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
            block(i, j2)[:] = _develop(other, bool(back[i, j2]), levels)
        else:
            back[i, j] = not back[i, j]
        block(i, j)[:] = _develop(first, bool(back[i, j]), levels)
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


@settings(max_examples=12)
@given(_structured_corruption(LARGE_POOL))
def test_proof_agrees_with_dense_reference_on_two_levels_of_order_546(case):
    codes, weights = case
    proven = matrices._block_circulant_proof(codes, weights)
    assert proven == dense_od_report(codes, weights)[0]


@pytest.mark.parametrize("index", range(len(POOL + LARGE_POOL)))
def test_proves_every_uncorrupted_design(index):
    codes, weights = (POOL + LARGE_POOL)[index]
    assert matrices._block_circulant_proof(codes, weights)


def test_proves_a_large_two_block_design():
    # the largest block-io design: 10.1 M support-kernel terms, here 10.6 k
    w = two_square_od(3, 8)
    assert matrices._block_circulant_proof(w.matrix.codes, w.claim.type_tuple)


def test_proves_the_design_of_exists_3276_over_two_levels():
    # OD(3276; 4, 16, 36, 36): blocks Kronecker products of circulants of
    # orders 21 and 39, which are not circulant over Z_819
    w = goethals_seidel_od(2, 4, 6, 6)
    assert matrices._block_types(w.matrix.codes, 4, 819)[0] == (21, 39)
    assert matrices._block_circulant_proof(w.matrix.codes, w.claim.type_tuple)


@pytest.mark.parametrize("n", [2, 4, 12, 40])
def test_skips_orders_with_odd_part_below_three(n):
    # q = 1 for powers of two; n = 12 and 40 have q = 3 and 5
    codes = np.eye(n, dtype=np.int64)
    assert matrices._block_circulant_proof(codes, (1,)) == (n // (n & -n) >= 3)


def _block_configs():
    """Every (method, ks) of the benchmark's block-io workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.block_configs()


def test_proves_every_block_io_design():
    # a design the pass does not prove falls back to the kernels, several
    # times slower on these orders
    blocks = {"two": 2, "gs": 4, "eight": 8}
    unproven = []
    for method, ks in _block_configs():
        w = block_array_od(blocks[method], ks)
        if not matrices._block_circulant_proof(w.matrix.codes, w.claim.type_tuple):
            unproven.append((method, ks))
    assert unproven == []


@pytest.mark.parametrize("k, levels", [(36, (7, 13)), (100, (7, 31)), (144, (13, 21))])
def test_proves_symmetric_square_weights_over_their_levels(k, levels):
    codes = symmetric_w_square_odd(k).matrix.entries
    n = codes.shape[0]
    assert matrices._block_types(codes, 1, n)[0] == levels
    assert matrices._block_circulant_proof(codes, (k,))


@pytest.mark.parametrize("index", range(len(MULTI_LEVEL)))
def test_one_flip_of_a_multi_level_design_falls_back_to_the_kernels(index, rng):
    codes, weights = MULTI_LEVEL[index]
    n = codes.shape[0]
    assert len(matrices._block_types(codes, n & -n, n // (n & -n))[0]) >= 2
    for _ in range(3):
        r, c = (int(v) for v in rng.integers(0, n, size=2))
        flipped = np.array(codes, dtype=np.int64)
        flipped[r, c] = -flipped[r, c] if flipped[r, c] else 1
        assert not matrices._block_circulant_proof(flipped, weights)
        if len(weights) == 1:
            report = matrices.verify_weighing(IntMatrix(flipped), weights[0])
            expected = dense_weighing_report(flipped, weights[0])
        else:
            report = matrices.verify_od(SignedVarMatrix(flipped, len(weights)), ODType(n, weights))
            expected = dense_od_report(flipped, weights)
        assert (report.ok, report.condition, report.where) == expected


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


@pytest.mark.parametrize("kind", ["random", "late"])
def test_rejected_splits_never_take_a_grid_sized_temporary(kind, rng):
    # q = 819 = 3**2 * 7 * 13 has eleven divisors and many ordered splits.
    # A random sign grid fails every split's probe rows; the identity with
    # its last row changed passes every probe (I is developed over any
    # group) and is read level by level, each level at most once
    n = 2 * 819
    if kind == "random":
        grid = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n))
    else:
        grid = np.eye(n, dtype=np.int8)
        grid[-1, 0] = 1
    tracemalloc.start()
    try:
        proven = matrices._block_circulant_proof(grid, (1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not proven
    assert peak < 2 * matrices._COMPARE_ROWS * n < n * n


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
        # OD(24; 1, 1, 1, 1, 1), OD(84; 1, 1, 1, 4), W(7, 4) and OD(42; 1, 4):
        # few terms, all in the support kernel, whatever the cost rule says
        (eight_block_od(1, 1, 1, 1), False),
        (goethals_seidel_od(1, 1, 1, 2), False),
        (circulant_cw(2), False),
        (two_square_od(1, 2), False),
        # OD(182; 4, 9): 30,758 terms
        (two_square_od(2, 3), True),
    ],
)
def test_pass_runs_only_past_the_small_family_bound(w, runs, monkeypatch):
    calls = []
    proof = matrices._block_circulant_proof
    monkeypatch.setattr(
        matrices, "_block_circulant_proof", lambda codes, weights: calls.append(1) or proof(codes, weights)
    )
    assert matrices._family_report(np.asarray(_codes(w)), _weights(w), "").ok
    assert calls == ([1] if runs else [])
