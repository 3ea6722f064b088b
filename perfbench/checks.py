"""Correctness checks the harness applies to every op, outside the timed region.

Answers are compared with ``reference.json``, recorded from the seed commit by
``make_reference.py``.  Matrix files written by ``construct`` are re-checked
with numpy only; nothing from ``odforge`` is used.  ``DesignChecker`` runs that
check in a child process (this file run as a script), so that its large
temporaries do not count in the benchmark process's peak RSS.
"""

from __future__ import annotations

import base64
import json
import subprocess
import sys
import warnings
import zlib
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from workloads import DEFAULT_SEARCH_MS, EXISTS_COUNT, Op, exists_index

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# One letter per exists answer in the reference table.
VERDICT_CODES = {
    "E": "Exists",
    "U": "Undecided",
    "s": "symmetric-zero-diagonal-odd-order",
    "o": "skew-odd-order",
    "t": "skew-weight-not-three-squares",
    "x": "error",  # exit 1, empty stdout, the reason on stderr
}


def exists_code(rc: int, out: str) -> str:
    """Reference letter for one exists answer."""
    if rc == 0 and out.startswith("Exists: "):
        return "E"
    if rc == 1 and out.startswith("Undecided: "):
        return "U"
    if rc == 1 and out == "":
        return "x"
    if rc == 2 and out.startswith("NotExists ["):
        rule = out[len("NotExists ["):].split("]", 1)[0]
        for code, name in VERDICT_CODES.items():
            if name == rule:
                return code
    raise ValueError(f"unexpected exists answer rc={rc} stdout={out!r}")


def encode_codes(codes: str) -> str:
    return base64.b64encode(zlib.compress(codes.encode(), 9)).decode()


class Reference:
    """Recorded answers of the seed commit, and the checks built on them.

    ``check_design`` checks a written design file; by default in this process.
    """

    def __init__(self, path: Path = REFERENCE_PATH,
                 check_design: Optional[Callable[..., Optional[str]]] = None):
        data = json.loads(path.read_text())
        self._exists_codes = data["exists"]
        self.bound = data["bound"]
        self.block = data["block"]
        self.search_ms = data["search_ms"]
        self.slow = data["slow"]
        self.check_design = check_design or check_design_file
        if self.search_ms != DEFAULT_SEARCH_MS:
            raise ValueError(f"reference answers were recorded at --search-ms {self.search_ms}, "
                             f"the workloads use {DEFAULT_SEARCH_MS}")

    @cached_property
    def exists_codes(self) -> str:
        """Reference letter of every query-mix exists query, in
        ``workloads.exists_space`` order (decoded on first use)."""
        codes = zlib.decompress(base64.b64decode(self._exists_codes)).decode()
        if len(codes) != EXISTS_COUNT:
            raise ValueError("reference exists table does not match the query space")
        return codes

    def order_of(self, op: Op) -> int:
        """Order of the matrix an op builds or checks (block-io ops)."""
        return int(self.block[op.key][0].split(" ")[1])

    def check(self, op: Op, rc: int, out: str, err: str) -> Optional[str]:
        """None when the answer matches the reference, else the reason."""
        if op.kind == "construct":
            header, _ = self.block[op.key]
            claim = header.split(" ")
            want_err = f"wrote orthogonal design OD({claim[1]};{claim[2]}) to {op.path}\n"
            if (rc, out, err) != (0, "", want_err):
                return f"construct answered rc={rc} stderr={err[:120]!r}"
            return self.check_design(Path(op.path), header, seed=zlib.crc32(op.path.encode()))
        if op.kind == "verify":
            _, want = self.block[op.key]
            if (rc, out) != (0, want):
                return f"verify answered rc={rc} stdout={out[:120]!r}"
            return None
        if op.kind == "exists":
            return self._check_exists(op, rc, out)
        if op.kind == "bound":
            want_rc, want_out = self.bound[op.key]
            if (rc, out) != (want_rc, want_out):
                return f"bound answered rc={rc} stdout={out[:120]!r}, want {want_out!r}"
            return None
        if op.kind == "decompose":
            return check_decompose(op, rc, out)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def _check_exists(self, op: Op, rc: int, out: str) -> Optional[str]:
        n, k = op.order, int(op.argv[op.argv.index("--k") + 1])
        exists_line = f"Exists: weighing matrix W({n},{k})\n"
        if op.key.startswith("sweep:"):
            want = "E"  # every order at or past the threshold is constructible
        else:
            want = self.exists_codes[exists_index(op.key)]
        if rc == 0 and out == exists_line and want in ("E", "U", "x"):
            return None  # no verdict that became a verified Exists is progress
        if want == "E":
            return f"want {exists_line!r}, got rc={rc} stdout={out[:120]!r}"
        if want in ("U", "x"):
            # Undecided and an error exit both leave the query open.
            if rc == 1 and (out.startswith("Undecided: ") or out == ""):
                return None
            return f"want no verdict, got rc={rc} stdout={out[:120]!r}"
        rule = VERDICT_CODES[want]
        if rc == 2 and out.startswith(f"NotExists [{rule}]: "):
            return None
        return f"want NotExists [{rule}], got rc={rc} stdout={out[:120]!r}"


def _is_three_squares(k: int) -> bool:
    while k and k % 4 == 0:
        k //= 4
    return k % 8 != 7


def check_decompose(op: Op, rc: int, out: str) -> Optional[str]:
    """Check a decomposition against Lagrange's and Legendre's theorems."""
    k = int(op.argv[op.argv.index("--k") + 1])
    squares = int(op.argv[op.argv.index("--squares") + 1])
    if squares == 3 and not _is_three_squares(k):
        if (rc, out) == (2, f"{k} is not a sum of three squares\n"):
            return None
        return f"{k} has no three-square form, got rc={rc} stdout={out!r}"
    head = f"{k} = "
    if rc != 0 or not out.startswith(head) or not out.endswith("\n"):
        return f"decompose answered rc={rc} stdout={out!r}"
    terms = out[len(head):-1].split(" + ")
    try:
        parts = [int(t[:-2]) for t in terms if t.endswith("^2")]
    except ValueError:
        return f"unparsable decomposition {out!r}"
    if len(parts) != squares or len(terms) != squares or sum(v * v for v in parts) != k:
        return f"wrong decomposition {out!r}"
    return None


def check_design_file(path: Path, header: str, *, seed: int) -> Optional[str]:
    """Exact check of an orthogonal-design file against its recorded header.

    Deterministic parts: the header, the shape, every code within the
    variables, and each variable appearing s_j times in every row and column.
    The product identity X X^T = (sum_j s_j x_j^2) I is checked with exact
    int64 arithmetic by Freivalds' test: two random substitutions x_j in
    [1, 1024] and random vectors r in [-1024, 1024]^n, each round comparing
    X (X^T r) with (sum_j s_j x_j^2) r.  A matrix that is not a design passes
    one round with probability below 2/1024 + 1/2049.
    """
    text = path.read_text()
    head, _, body = text.partition("\n")
    if head != header:
        return f"{path.name}: header {head!r}, want {header!r}"
    fields = header.split(" ")
    n = int(fields[1])
    weights = [int(s) for s in fields[2].split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        codes = np.fromstring(body, dtype=np.int64, sep=" ")
    if codes.size != n * n or body.count("\n") != n:
        return f"{path.name}: body is not {n} rows of {n} tokens"
    codes = codes.reshape(n, n)
    l = len(weights)
    if np.abs(codes).max() > l:
        return f"{path.name}: code outside the {l} variables"
    mags = np.abs(codes)
    for j, s in enumerate(weights, start=1):
        hits = mags == j
        if (hits.sum(axis=1) != s).any() or (hits.sum(axis=0) != s).any():
            return f"{path.name}: variable {j} is not of weight {s} in every row and column"
    rng = np.random.default_rng(seed)
    for _ in range(2):
        values = rng.integers(1, 1025, size=l)
        table = np.zeros(2 * l + 1, dtype=np.int64)
        table[l + 1:] = values
        table[:l] = -values[::-1]
        x = table[codes + l]
        r = rng.integers(-1024, 1025, size=n)
        scale = sum(s * int(v) ** 2 for s, v in zip(weights, values))
        if not np.array_equal(x @ (x.T @ r), scale * r):
            return f"{path.name}: rows are not orthogonal (Freivalds test)"
    return None


class DesignChecker:
    """``check_design_file`` in one long-lived child process.

    Call it like ``check_design_file``; ``close`` stops the child and waits
    for it.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self, path: Path, header: str, *, seed: int) -> Optional[str]:
        self.proc.stdin.write(json.dumps([str(path), header, seed]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"design checker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    """Answer one ``[path, header, seed]`` request per stdin line with the
    JSON of ``check_design_file``'s result."""
    for line in sys.stdin:
        path, header, seed = json.loads(line)
        print(json.dumps(check_design_file(Path(path), header, seed=seed)), flush=True)


if __name__ == "__main__":
    serve()
