"""Command-line front end: construct, verify, exists, bound, decompose.

Exit codes: 0 for success / Exists / verification pass; 2 for NotExists /
verification fail / impossible decomposition; 1 for usage errors, internal
errors, unsupported parameters, and Undecided outcomes.

Matrices are written in the text interchange format of :mod:`odforge.matfile`
to ``--out`` or standard output; derivation traces and diagnostics go to
standard error so redirected output stays parseable.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from .arith import (
    ArithmeticError_,
    decompose_four_squares,
    decompose_three_squares,
    is_prime_power,
)
from .constructions import (
    ConstructionError,
    UnsupportedParameterError,
    Witness,
    block_array_od,
    circulant_cw,
    minimal_pow2_exponent,
    odd_block_orders,
    skew_od_pow2_four,
    spread_circulant,
    symmetric_od_pow2,
)
from .existence import (
    BOUND_FAMILIES,
    DEFAULT_CELL_BUDGET,
    ExistenceError,
    FAMILIES,
    Query,
    STRUCTURES,
    Verdict,
    bound_N,
    exists_query,
)
from .matfile import MatrixFileError, emit_matrix_file, parse_matrix_file
from .matrices import (
    MatrixError,
    ODType,
    VerificationInternalError,
    WeighingType,
    structure_check,
    verify_od,
    verify_weighing,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_out(path: str, text: str) -> bool:
    """Write an --out file; on failure report it on stderr and return False."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        _err(f"cannot write {path}: {err}")
        return False
    return True


def _structure_flags(witness: Witness) -> tuple[str, ...]:
    report = witness.structure
    flags = []
    if report.symmetric:
        flags.append("sym")
    if report.skew_symmetric:
        flags.append("skew")
    if report.circulant:
        flags.append("circ")
    return tuple(flags)


def _deliver(witness: Witness, args: argparse.Namespace) -> int:
    """Write the witness in interchange format and optionally its trace."""
    text = emit_matrix_file(witness.matrix, witness.claim, _structure_flags(witness))
    if args.trace:
        _err(witness.trace.render())
    if args.out:
        if not _write_out(args.out, text):
            return EXIT_ERROR
        _err(f"wrote {_describe(witness)} to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _describe(witness: Witness) -> str:
    claim = witness.claim
    if isinstance(claim, WeighingType):
        return f"weighing matrix W({claim.order},{claim.weight})"
    assert isinstance(claim, ODType)
    body = ",".join(str(s) for s in claim.type_tuple)
    return f"orthogonal design OD({claim.order};{body})"


def _guard_cells(order: int, args: argparse.Namespace, plan: Sequence[str]) -> bool:
    """Refuse huge materializations unless --force; the plan (the derivation
    arithmetic known before building anything) is printed either way."""
    cells = order * order
    if cells <= DEFAULT_CELL_BUDGET or args.force:
        return True
    _err(
        f"refusing to materialize order {order} ({cells} cells exceeds "
        f"{DEFAULT_CELL_BUDGET}); pass --force to override"
    )
    for line in plan:
        _err(f"plan: {line}")
    return False


def _parse_ks(text: str, expected: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ExistenceError(f"--ks must be comma-separated integers, got {text!r}")
    if len(parts) != expected:
        raise ExistenceError(f"--ks needs exactly {expected} entries, got {len(parts)}")
    return parts


# ---------------------------------------------------------------------------
# construct subcommands
# ---------------------------------------------------------------------------


def _cmd_construct_cw(args: argparse.Namespace) -> int:
    if is_prime_power(args.q) is None:
        _err(f"q must be a prime power, got {args.q}")
        return EXIT_ERROR
    if args.spread is not None and args.spread < 1:
        _err(f"error: --spread must be at least 1, got {args.spread}")
        return EXIT_ERROR
    base_order = args.q * args.q + args.q + 1
    c = args.spread or 1
    order = base_order * c
    plan = [f"circulant base order {base_order} = q**2 + q + 1, spread factor {c}"]
    if not _guard_cells(order, args, plan):
        return EXIT_ERROR
    witness = circulant_cw(args.q)
    if c > 1:
        witness = spread_circulant(witness, c)
    return _deliver(witness, args)


def _cmd_construct_sym_od(args: argparse.Namespace) -> int:
    if args.k < 1:
        _err("--k must be at least 1")
        return EXIT_ERROR
    order = 1 << args.k
    if not _guard_cells(order, args, [f"order 2**{args.k} = {order}, {args.k} unit variables"]):
        return EXIT_ERROR
    return _deliver(symmetric_od_pow2(args.k), args)


# --method of the block arrays: (--ks entries, blocks h, plan label)
_BLOCK_METHODS = {
    "two": (2, 2, "two blocks"),
    "gs": (4, 4, "four blocks"),
    "eight": (4, 8, "doubled four blocks"),
}


def _cmd_construct_od(args: argparse.Namespace) -> int:
    if args.method in _BLOCK_METHODS:
        count, h, label = _BLOCK_METHODS[args.method]
        ks = _parse_ks(args.ks, count)
        b_list, q = odd_block_orders(ks)
        order = h * q
        plan = [f"{label}: b = {list(b_list)}, q = {q}, order {h}q = {order}"]
        builder = lambda: block_array_od(h, ks)
    else:  # skew4
        ks = _parse_ks(args.ks, 4)
        t1 = minimal_pow2_exponent(1 + ks[0] + ks[1])
        t2 = minimal_pow2_exponent(1 + ks[2] + ks[3])
        order = 1 << (t1 + t2 + 1)
        plan = [f"skew power-of-two: t1 = {t1}, t2 = {t2}, order 2**{t1 + t2 + 1} = {order}"]
        builder = lambda: skew_od_pow2_four(*ks)
    if not _guard_cells(order, args, plan):
        return EXIT_ERROR
    return _deliver(builder(), args)


def _cmd_construct_sym_w(args: argparse.Namespace) -> int:
    query = Query(args.n, args.k, "symmetric")
    if not _guard_cells(args.n, args, [f"target symmetric W({args.n},{args.k})"]):
        return EXIT_ERROR
    # The guard has applied the cell budget, or --force has lifted it.
    verdict = exists_query(query, cell_budget=sys.maxsize)
    if verdict.kind != "exists":
        return _report_negative_verdict(verdict, args)
    witness = verdict.witness
    assert witness is not None
    return _deliver(witness, args)


# ---------------------------------------------------------------------------
# verify / exists / bound / decompose
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as err:
        _err(f"cannot read {args.file}: {err}")
        return EXIT_ERROR
    matrix, claim, flags = parse_matrix_file(text)
    if isinstance(claim, WeighingType):
        report = verify_weighing(matrix, claim.weight)
        label = f"W({claim.order},{claim.weight})"
    else:
        assert isinstance(claim, ODType)
        report = verify_od(matrix, claim)
        body = ",".join(str(s) for s in claim.type_tuple)
        label = f"OD({claim.order};{body})"
    if not report.ok:
        print(f"FAIL {label}: {report.message()}")
        return EXIT_NEGATIVE
    shape = structure_check(matrix)
    failed_flags = [
        flag
        for flag, holds in (
            ("sym", shape.symmetric),
            ("skew", shape.skew_symmetric),
            ("circ", shape.circulant),
        )
        if flag in flags and not holds
    ]
    if failed_flags:
        print(f"FAIL {label}: declared flags not satisfied: {','.join(failed_flags)}")
        return EXIT_NEGATIVE
    suffix = f" [{','.join(flags)}]" if flags else ""
    print(f"PASS {label}{suffix}")
    return EXIT_OK


def _report_negative_verdict(verdict: Verdict, args: argparse.Namespace) -> int:
    if verdict.kind == "not-exists":
        cert = verdict.certificate
        assert cert is not None
        print(f"NotExists [{cert.rule}]: {cert.explanation}")
        return EXIT_NEGATIVE
    print(f"Undecided: {verdict.note}")
    if verdict.bound is not None and args.trace:
        _err(verdict.bound.render())
    return EXIT_ERROR


def _cmd_exists(args: argparse.Namespace) -> int:
    query = Query(args.n, args.k, args.structure, zero_diagonal=args.zero_diag)
    budget = sys.maxsize if args.force else DEFAULT_CELL_BUDGET
    verdict = exists_query(query, cell_budget=budget)
    if verdict.kind != "exists":
        return _report_negative_verdict(verdict, args)
    witness = verdict.witness
    assert witness is not None
    print(f"Exists: {_describe(witness)}")
    if args.trace:
        _err(witness.trace.render())
    if args.out:
        text = emit_matrix_file(witness.matrix, witness.claim, _structure_flags(witness))
        if not _write_out(args.out, text):
            return EXIT_ERROR
        _err(f"wrote witness to {args.out}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    ks: Optional[tuple[int, ...]] = None
    if args.ks:
        count = FAMILIES[args.family].ks_count
        if not count:
            _err(f"family {args.family} takes no --ks override")
            return EXIT_ERROR
        ks = _parse_ks(args.ks, count)
    derivation = bound_N(args.k, args.family, ks)
    print(f"N = {derivation.N}")
    if args.trace:
        print(derivation.render())
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.squares == 3:
        triple = decompose_three_squares(args.k)
        if triple is None:
            print(f"{args.k} is not a sum of three squares")
            return EXIT_NEGATIVE
        parts = triple
    else:
        parts = decompose_four_squares(args.k)
    body = " + ".join(f"{v}^2" for v in parts)
    print(f"{args.k} = {body}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 (2 is reserved for
    NotExists/fail outcomes)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        _err(f"{self.prog}: error: {message}")
        raise SystemExit(EXIT_ERROR)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the matrix file here instead of stdout")
    parser.add_argument("--trace", action="store_true", help="print the derivation")
    parser.add_argument(
        "--force", action="store_true", help="override the large-witness guard"
    )
    _add_ignored_budget_flag(parser)


def _add_ignored_budget_flag(parser: argparse.ArgumentParser) -> None:
    """Parse --search-ms and ignore it: no answer depends on a time budget,
    but perfbench/workloads.py still passes the option."""
    parser.add_argument("--search-ms", type=int, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the odforge command line.  Each subcommand sets
    ``func`` to the name of its handler, which :func:`main` looks up in this
    module when it runs, so one parser serves every call in a process."""
    parser = _Parser(
        prog="odforge",
        description="Construct, verify, and decide existence of weighing "
        "matrices and orthogonal designs with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a verified matrix")
    csub = construct.add_subparsers(dest="what", required=True)

    cw = csub.add_parser("cw", help="circulant weighing matrix W(q**2+q+1, q**2)")
    cw.add_argument("--q", type=int, required=True, help="prime power")
    cw.add_argument("--spread", type=int, help="stretch the order by this factor")
    _add_common(cw)
    cw.set_defaults(func="_cmd_construct_cw")

    sym_od = csub.add_parser("sym-od", help="symmetric design of order 2**k, k unit weights")
    sym_od.add_argument("--k", type=int, required=True)
    _add_common(sym_od)
    sym_od.set_defaults(func="_cmd_construct_sym_od")

    od = csub.add_parser("od", help="orthogonal design via a block array")
    od.add_argument(
        "--method",
        required=True,
        choices=("two", "gs", "eight", "skew4"),
        help="two: [[A,B],[B,-A]] at 2q; gs: four blocks at 4q; eight: doubled "
        "four blocks at 8q; skew4: skew power-of-two design",
    )
    od.add_argument(
        "--ks",
        required=True,
        help="comma-separated weights (block roots for two/gs/eight, type "
        "entries for skew4)",
    )
    _add_common(od)
    od.set_defaults(func="_cmd_construct_od")

    sym_w = csub.add_parser("sym-w", help="symmetric weighing matrix W(n,k)")
    sym_w.add_argument("--k", type=int, required=True)
    sym_w.add_argument("--n", type=int, required=True)
    _add_common(sym_w)
    sym_w.set_defaults(func="_cmd_construct_sym_w")

    verify = sub.add_parser("verify", help="check a matrix file")
    verify.add_argument("--file", required=True)
    verify.set_defaults(func="_cmd_verify")

    exists = sub.add_parser("exists", help="decide an existence query")
    exists.add_argument("--n", type=int, required=True)
    exists.add_argument("--k", type=int, required=True)
    exists.add_argument("--structure", default="plain", choices=STRUCTURES)
    exists.add_argument("--zero-diag", action="store_true")
    _add_common(exists)
    exists.set_defaults(func="_cmd_exists")

    bound = sub.add_parser("bound", help="explicit order threshold for a family")
    bound.add_argument("--k", type=int, required=True)
    bound.add_argument("--family", required=True, choices=BOUND_FAMILIES)
    bound.add_argument("--ks", help="override the default weight decomposition")
    bound.add_argument("--trace", action="store_true", help="print the derivation")
    _add_ignored_budget_flag(bound)
    bound.set_defaults(func="_cmd_bound")

    decompose = sub.add_parser("decompose", help="write k as a sum of squares")
    decompose.add_argument("--k", type=int, required=True)
    decompose.add_argument("--squares", type=int, required=True, choices=(3, 4))
    decompose.set_defaults(func="_cmd_decompose")

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main reuses, built on its first call, not at import."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except UnsupportedParameterError as err:
        _err(f"unsupported parameters: {err}")
        if err.strategies:
            _err("strategies tried: " + "; ".join(err.strategies))
        return EXIT_ERROR
    except (
        ConstructionError,
        ExistenceError,
        MatrixError,
        MatrixFileError,
        ArithmeticError_,
    ) as err:
        _err(f"error: {err}")
        return EXIT_ERROR
    except VerificationInternalError as err:
        _err(f"internal verification failure: {err}")
        return EXIT_ERROR
    except MemoryError as err:
        command = " ".join(filter(None, (args.command, getattr(args, "what", None))))
        _err(f"error: out of memory: {command}" + (f": {err}" if str(err) else ""))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
