"""Span recorder that times calls into odforge's layers from outside the package.

``Recorder.install`` wraps the public functions listed in ``LAYERS`` and puts
the wrapper into every ``odforge.*`` module namespace that holds the original
(``cli``, ``existence`` and ``constructions`` import them by name), so calls
between modules are timed as well as calls from the benchmark.  Nothing under
``src/odforge`` changes; ``uninstall`` puts the originals back.

Each span has a name, layer, start, end, parent and op id.  Spans stay in
memory and are written as JSON lines by ``write``.  A layer's self time is its
span time minus the time of its child spans.  A call into a layer from inside
the same layer adds no span: its time is self time of the enclosing span, so
``small_od_provider`` recursion, ``verify_od`` calling ``verify_weighing``
and ``arith`` helpers calling each other count once.  Verification run by
``specialize_variables`` likewise stays in ``matrices.specialize``; only
top-level ``verify_*`` calls count as ``matrices.verify``.

Recorder bookkeeping (hashing a verified matrix to count distinct ones) is
excluded from every span's self time; it shows in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

LAYERS = {
    "cli": ("odforge.cli", ("main",)),
    "existence.exists": ("odforge.existence", ("exists_query",)),
    "existence.nonexistence": ("odforge.existence", ("nonexistence_check",)),
    "existence.bound": ("odforge.existence", ("bound_N",)),
    "arith": ("odforge.arith", (
        "is_sum_of_three_squares", "decompose_three_squares", "decompose_four_squares",
        "decompose_two_nonzero_squares", "decompose_four_nonzero_squares",
        "frobenius_representation", "prime_factorization", "is_prime_power",
        "prime_power_square_factorize", "lcm_set",
    )),
    "gf": ("odforge.gf", (
        "field_make", "primitive_element", "trace_to_subfield", "quadratic_character",
        "singer_zero_set",
    )),
    "constructions.block": ("odforge.constructions", (
        "circulant_cw", "symmetric_od_pow2", "symmetric_w_square_odd", "two_square_od",
        "goethals_seidel_od", "eight_block_od", "skew_od_pow2_four",
    )),
    "constructions.assembly": ("odforge.constructions", (
        "combine_coprime", "spread_circulant", "merge_od_variables", "collapse_od_to_weighing",
        "od_from_weighing", "add_identity_variable", "skew_weighing_from_unit_slot",
    )),
    "constructions.provider": ("odforge.constructions", ("small_od_provider",)),
    "constructions.catalog": ("odforge.constructions", ("load_catalog",)),
    "matrices.verify": ("odforge.matrices", ("verify_weighing", "verify_od")),
    "matrices.structure": ("odforge.matrices", ("structure_check",)),
    "matrices.specialize": ("odforge.matrices", ("specialize_variables",)),
    "matfile.emit": ("odforge.matfile", ("emit_matrix_file",)),
    "matfile.parse": ("odforge.matfile", ("parse_matrix_file",)),
}

# Layers whose spans fold into an enclosing span of the given layer.
FOLD_INTO = {"matrices.verify": "matrices.specialize"}


def _matrix_digest(kind: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{kind}{arr.shape}".encode())
    h.update(arr.view(np.uint8))
    return h.digest()


class Recorder:
    """In-memory spans plus per-layer totals for one traced run."""

    def __init__(self):
        self.op = "setup"
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.verify_cells = 0
        self.verify_madds = 0
        self.verified: dict[str, set] = defaultdict(set)
        self.provider_unsupported = 0
        self.provider_failed_s = 0.0
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, start, child_s, book_s, span index]
        self._patched: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "odforge" or module is None:
                        continue
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        unsupported = sys.modules["odforge.constructions"].UnsupportedParameterError

        @wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1][0] if stack else None
            if top == layer or (top is not None and FOLD_INTO.get(layer) == top):
                return fn(*args, **kwargs)
            start = time.perf_counter()
            frame = [layer, start, 0.0, 0.0, len(self.spans)]
            self.spans.append(None)  # filled at the end, keeps parents before children
            if layer == "matrices.verify":
                self._note_verify(name, args)
                frame[3] = time.perf_counter() - start
            elif layer == "matfile.parse":
                self.bytes[layer] += len(args[0])
            stack.append(frame)
            failed = False
            try:
                result = fn(*args, **kwargs)
            except unsupported:
                failed = layer == "constructions.provider"
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[2] - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                self.spans[frame[4]] = (
                    self.op, name, layer, start, end, parent[4] if parent else None, own,
                )
                self.self_s[layer] += own
                self.calls[layer] += 1
                if failed:
                    self.provider_unsupported += 1
                    self.provider_failed_s += duration
            if layer == "matfile.emit":
                self.bytes[layer] += len(result)
            return result

        return traced

    def _note_verify(self, name: str, args) -> None:
        if name == "verify_od":
            matrix, claim = args[0], args[1]
            n, l = claim.order, claim.num_vars
            self.verify_madds += l * l * n**3
            digest = _matrix_digest("od", matrix.codes)
        else:
            matrix = args[0]
            n = matrix.rows
            self.verify_madds += n**3
            digest = _matrix_digest("w", matrix.entries)
        self.verify_cells += n * n
        self.verified[self.op].add(digest)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        out["cli.self_s"] = (self.self_s["cli"], "s")
        for layer in ("existence.exists", "existence.bound"):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["existence.nonexistence.self_s"] = (self.self_s["existence.nonexistence"], "s")
        for layer in ("arith", "gf"):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for layer in ("constructions.block", "constructions.assembly",
                      "constructions.catalog"):
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["constructions.provider.calls"] = (self.calls["constructions.provider"], "count")
        out["constructions.provider.self_s"] = (self.self_s["constructions.provider"], "s")
        out["constructions.provider.unsupported"] = (self.provider_unsupported, "count")
        out["constructions.provider.failed_s"] = (self.provider_failed_s, "s")
        calls = self.calls["matrices.verify"]
        distinct = sum(len(v) for v in self.verified.values())
        out["matrices.verify.calls"] = (calls, "count")
        out["matrices.verify.self_s"] = (self.self_s["matrices.verify"], "s")
        out["matrices.verify.cells"] = (self.verify_cells, "count")
        out["matrices.verify.madds_computed"] = (self.verify_madds, "count")
        out["matrices.verify.distinct_ratio"] = (distinct / calls if calls else 1.0, "ratio")
        for layer in ("matrices.structure", "matrices.specialize"):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for layer in ("matfile.emit", "matfile.parse"):
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.bytes"] = (self.bytes[layer], "bytes")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, name, layer, start, end, parent, own in self.spans:
                fh.write(json.dumps({
                    "op": op, "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "self_s": own,
                }) + "\n")
