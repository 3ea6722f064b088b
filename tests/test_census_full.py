"""The decision census over ROADMAP's full range, n <= 512 and k <= min(n, 32),
is pinned beside the n <= 128 pin of ``test_census``.

The per-weight caches of the existence engine serve every query of a weight
after its first; this pin shows they move no answer anywhere the ROADMAP
census table covers.  A change that decides more queries re-records it and
says so.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "census.py"
_SPEC = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

# (Exists, NotExists, Undecided) per census row, as in ROADMAP's table.
PINNED = {
    "plain": (1007, 0, 14881),
    "symmetric": (919, 0, 14969),
    "skew": (698, 8243, 6947),
    "circulant": (664, 0, 15224),
    "symmetric --zero-diag": (0, 7936, 7952),
}


def test_full_range_counts_are_pinned():
    counts = {
        label: tuple(row[kind] for kind, _ in census.KINDS)
        for label, row in census.census(512, 32).items()
    }
    assert counts == PINNED
