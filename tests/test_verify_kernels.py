"""Both verification kernels against the dense reference in conftest.

``odforge.matrices`` checks each Gram matrix and each anti-amicable pair sum
with either the support kernel, O(n * s_i * s_j), or the dense BLAS product,
picked per product by a cost rule; small families skip the rule and go to
the support kernel.  Here each kernel is forced for every product, by
patching the rule and setting the small-family bound to 0, and run on
designs from every constructor and on corruptions of them: sign flips,
changed codes, row swaps and column swaps.  Each must report the
(ok, condition, where) triple of the reference, so the same first
violation, and so must the public verifiers.  The block-circulant pass,
which proves many of these designs before a kernel runs, is turned off here
(``test_block_circulant.py`` checks it).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge import matrices
from odforge.constructions import (
    circulant_cw,
    eight_block_od,
    goethals_seidel_od,
    load_catalog,
    skew_od_pow2_four,
    spread_circulant,
    symmetric_od_pow2,
    two_square_od,
)
from odforge.matrices import IntMatrix, ODType, SignedVarMatrix
from conftest import dense_od_report, dense_weighing_report

KERNELS = {
    "support": lambda n, terms_per_row: True,
    "dense": lambda n, terms_per_row: False,
}


def _designs():
    built = [
        two_square_od(1, 2),
        goethals_seidel_od(1, 1, 1, 2),
        eight_block_od(1, 1, 1, 1),
        symmetric_od_pow2(4),
        skew_od_pow2_four(1, 2, 1, 3),
    ]
    return [(w.matrix.codes, w.claim.type_tuple) for w in built] + [
        (e.witness.matrix.codes, e.witness.claim.type_tuple) for e in load_catalog()
    ]


DESIGNS = _designs()
WEIGHINGS = [
    (w.matrix.entries, w.claim.weight)
    for w in (circulant_cw(3), spread_circulant(circulant_cw(2), 10))
]


def _kernels_only():
    """The block-circulant pass turned off, so the kernels decide every case."""
    return mock.patch.object(matrices, "_block_circulant_proof", lambda codes, weights: False)


def _triple(report):
    return report.ok, report.condition, report.where


def forced_reports(codes, weights, label):
    """The (ok, condition, where) triple of ``_family_report`` with each
    kernel forced for every product, by kernel name."""
    reports = {}
    for name, rule in KERNELS.items():
        with mock.patch.multiple(matrices, _support_is_cheaper=rule, _PASS_MIN_TERMS=0):
            reports[name] = _triple(matrices._family_report(codes, weights, label))
    return reports


@st.composite
def _corrupted(draw, pool):
    codes, weights = pool[draw(st.integers(0, len(pool) - 1))]
    codes = np.array(codes, dtype=np.int64)
    n = codes.shape[0]
    top = int(np.max(np.abs(codes)))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("sign", "code", "rows", "cols")))
        i, j = draw(cell)
        if kind == "sign":
            codes[i, j] = -codes[i, j]
        elif kind == "code":
            codes[i, j] = draw(st.integers(-top, top))
        elif kind == "rows":
            codes[[i, j]] = codes[[j, i]]
        else:
            codes[:, [i, j]] = codes[:, [j, i]]
    weights = list(weights)
    if draw(st.integers(0, 9)) == 0:  # a wrong claim now and then
        weights[draw(st.integers(0, len(weights) - 1))] += 1
    return codes, tuple(weights)


@settings(max_examples=300)
@given(_corrupted(DESIGNS))
def test_design_kernels_match_dense_reference(case):
    codes, weights = case
    expected = dense_od_report(codes, weights)
    with _kernels_only():
        for name, got in forced_reports(codes, weights, matrices._VARIABLE_LABEL).items():
            assert got == expected, name
    n = codes.shape[0]
    if sum(weights) <= n:
        x = SignedVarMatrix(codes, len(weights))
        assert _triple(matrices.verify_od(x, ODType(n, weights))) == expected


@settings(max_examples=200)
@given(_corrupted(DESIGNS + [(a, (k,)) for a, k in WEIGHINGS]))
def test_weighing_kernels_match_dense_reference(case):
    codes, weights = case
    flat = np.sign(codes) if len(weights) > 1 else codes
    k = sum(weights)
    expected = dense_weighing_report(flat, k)
    with _kernels_only():
        for name, got in forced_reports(flat, (k,), "").items():
            assert got == expected, name
    assert _triple(matrices.verify_weighing(IntMatrix(flat), k)) == expected


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_every_constructor_output_passes_both_kernels(name):
    for codes, weights in DESIGNS:
        with _kernels_only():
            report = forced_reports(codes, weights, matrices._VARIABLE_LABEL)[name]
        assert report == (True, None, None), (codes.shape, weights, report)


def test_pair_only_violation_is_found_by_both_kernels():
    # member 2 negated in row 3 of OD(42; 1, 4): every weight and Gram matrix
    # still holds, and only the pair sum of members 1 and 2 breaks
    w = two_square_od(1, 2)
    codes = np.array(w.matrix.codes)
    codes[3][np.abs(codes[3]) == 2] *= -1
    weights = w.claim.type_tuple
    expected = dense_od_report(codes, weights)
    assert expected == (False, "variables 1,2 not anti-amicable", (3, 23))
    with _kernels_only():
        for name, got in forced_reports(codes, weights, matrices._VARIABLE_LABEL).items():
            assert got == expected, name
    x = SignedVarMatrix(codes, len(weights))
    assert _triple(matrices.verify_od(x, w.claim)) == expected
