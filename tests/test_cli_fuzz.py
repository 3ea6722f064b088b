"""Command-line argv fuzzing: whatever the argv, ``main`` ends in an exit code.

Argv lists are drawn from the subcommands, their flags, small integers,
negatives and junk tokens.  Every call must return 0, 1 or 2, or stop
argparse-style with ``SystemExit`` 0 (help) or 1 (usage error); no other
exception may escape.  ``--force`` is never passed, so the cell guard keeps
every build small, and ``--out`` / ``--file`` name only paths inside a
temporary directory, which is also the working directory during the call.

The same argvs check the parser's subcommand dispatch against argparse's own
pass over the whole parser tree.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odforge.cli import EXIT_ERROR, EXIT_OK, _Parser, build_parser, main
from odforge.existence import BOUND_FAMILIES, STRUCTURES

# Subcommand -> (the flags it requires, the flags it also takes).  Required
# flags are drawn most of the time and extra flags are mostly its own, so
# most calls get past argparse; the rest probe its errors.
_OUTPUT = ("--out", "--trace", "--search-ms")
_COMMANDS = {
    ("construct", "cw"): (("--q",), ("--spread",) + _OUTPUT),
    ("construct", "sym-od"): (("--k",), _OUTPUT),
    ("construct", "od"): (("--method", "--ks"), _OUTPUT),
    ("construct", "sym-w"): (("--n", "--k"), _OUTPUT),
    ("verify",): (("--file",), ()),
    ("exists",): (("--n", "--k"), ("--structure", "--zero-diag") + _OUTPUT),
    ("bound",): (("--k", "--family"), ("--ks", "--trace", "--search-ms")),
    ("decompose",): (("--k", "--squares"), ()),
    (): ((), ()),
}
_FLAGS = tuple(sorted({f for pair in _COMMANDS.values() for fs in pair for f in fs} | {"--help"}))
_SWITCHES = ("--zero-diag", "--trace", "--help")

_INTS = st.integers(min_value=-3, max_value=10).map(str)
_KS = st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=5).map(
    lambda ks: ",".join(map(str, ks))
)
_JUNK = st.sampled_from(["", "-", "--", "x", "1.5", "0x10", "1e3", "é", "1,,2", "--bogus"])
# Placeholders for paths inside the temporary directory.
_PATHS = st.sampled_from(["{dir}/out.txt", "{dir}/in.txt", "{dir}/junk.txt", "{dir}/none/f", "{dir}"])
_VALUES = {
    "--method": st.sampled_from(("two", "gs", "eight", "skew4")),
    "--ks": _KS,
    "--structure": st.sampled_from(STRUCTURES),
    "--family": st.sampled_from(BOUND_FAMILIES),
    "--squares": st.sampled_from(("3", "4")),
}
_ANY = st.one_of(_INTS, _KS, _JUNK)


def _often(draw) -> bool:
    """True seven times in eight."""
    return draw(st.integers(0, 7)) > 0


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    argv = list(command)
    flags = [flag for flag in required if _often(draw)]
    for _ in range(draw(st.integers(0, 3))):
        own = optional and _often(draw)
        flags.append(draw(st.sampled_from(optional if own else _FLAGS)))
    for flag in flags:
        argv.append(flag)
        if flag in ("--out", "--file"):
            argv.append(draw(_PATHS))
        elif flag not in _SWITCHES:
            argv.append(draw(_VALUES.get(flag, _INTS) if _often(draw) else _ANY))
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_ANY))
    return argv


@settings(max_examples=150)
@given(_argvs())
def test_every_argv_ends_in_an_exit_code(argv):
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "in.txt"), "w") as f:
            f.write("W 2 1 sym\n+ 0\n0 +\n")
        with open(os.path.join(tmp, "junk.txt"), "w") as f:
            f.write("OD 3 x\n+1 0\n")
        argv = [token.replace("{dir}", tmp) for token in argv]
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(argv)
        except SystemExit as stop:
            assert stop.code in (0, 1), argv
        else:
            assert code in (0, 1, 2), argv
        finally:
            os.chdir(here)


def _parse_outcome(argv):
    """What parsing argv through a fresh parser gives: ``vars`` of the
    namespace and the leftovers, or the exit code and both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, extras = build_parser().parse_known_args(argv)
        except SystemExit as stop:
            return stop.code, out.getvalue(), err.getvalue()
    return vars(namespace), extras


@settings(max_examples=300)
@given(_argvs())
def test_dispatch_parses_like_argparse(argv):
    dispatched = _parse_outcome(argv)
    plain = argparse.ArgumentParser.parse_known_args
    with mock.patch.object(_Parser, "parse_known_args", plain):
        assert _parse_outcome(argv) == dispatched, argv


@pytest.mark.parametrize(
    "argv, code",
    [
        (["decompose", "--k", "7", "--squares", "4"], EXIT_OK),
        (["construct", "od", "--method", "two", "--ks", "1,2", "--what"], EXIT_ERROR),
        (["exists", "--n", "5"], EXIT_ERROR),
    ],
)
def test_main_reads_sys_argv_without_an_argv(capsys, monkeypatch, argv, code):
    """The ``odforge`` console script calls main() with no argv."""

    def outcome(*args):
        try:
            got = main(*args)
        except SystemExit as stop:
            got = stop.code
        captured = capsys.readouterr()
        return got, captured.out, captured.err

    passed = outcome(argv)
    monkeypatch.setattr(sys, "argv", ["odforge", *argv])
    assert outcome() == passed
    assert passed[0] == code
