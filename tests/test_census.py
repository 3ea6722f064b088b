"""The decision census for n <= 128 and k <= min(n, 32) is pinned, and its
answers hold up.

``PINNED`` is a check: a change that decides more queries re-records it and
says so.  Every NotExists certificate rechecks, and a fixed sample of the
Exists answers, circulant ones included, passes the dense oracle with the
structure its query asked for.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_weighing_report

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "census.py"
_SPEC = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

MAX_N, MAX_K = 128, 32

# (Exists, NotExists, Undecided) per census row.
PINNED = {
    "plain": (197, 0, 3403),
    "symmetric": (150, 0, 3450),
    "skew": (115, 1859, 1626),
    "circulant": (165, 0, 3435),
    "symmetric --zero-diag": (0, 1792, 1808),
}


@pytest.fixture(scope="module")
def answers():
    return {
        label: list(census.answers(MAX_N, MAX_K, structure, zero_diagonal))
        for label, structure, zero_diagonal in census.ROWS
    }


def test_counts_are_pinned(answers):
    counts = {
        label: tuple(Counter(v.kind for _, v in rows)[kind] for kind, _ in census.KINDS)
        for label, rows in answers.items()
    }
    assert counts == PINNED


def test_every_certificate_rechecks(answers):
    certificates = [v.certificate for rows in answers.values() for _, v in rows if v.certificate]
    assert len(certificates) == sum(not_exists for _, not_exists, _ in PINNED.values())
    assert all(c.recheck() for c in certificates)


@pytest.mark.parametrize("label", [label for label, _, _ in census.ROWS])
def test_sampled_witnesses_pass_the_dense_oracle(answers, label):
    found = [(q, v.witness) for q, v in answers[label] if v.kind == "exists"]
    for query, witness in found[::7]:
        a = witness.matrix.entries.astype(np.int64)
        assert a.shape == (query.n, query.n)
        assert dense_weighing_report(a, query.k)[0]
        if query.structure == "symmetric":
            assert np.array_equal(a, a.T)
        if query.structure == "skew":
            assert np.array_equal(a, -a.T)
        if query.structure == "circulant":
            assert all(np.array_equal(a[i], np.roll(a[0], i)) for i in range(query.n))
        if query.zero_diagonal:
            assert not a.diagonal().any()
