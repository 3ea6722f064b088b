"""Bit-exact text interchange format for weighing matrices and designs.

Grammar::

    header  = ("W" order weight | "OD" order type-csv) {flag}
    flag    = "sym" | "skew" | "circ"
    body    = order rows of exactly order tokens, single-space separated
    token   = "0" | "+" | "-"            (weighing; "1" and "-1" read as aliases)
            | "0" | "+j" | "-j"          (design; j is a 1-based variable index
                                          in ASCII decimal)

Parsing returns an unverified candidate (matrix, claim, flags); verification
is a separate step.  Emission is canonical: flags in the order sym, skew,
circ; weighing signs as ``+``/``-``; one trailing newline.  Re-emitting a
parsed file reproduces it byte for byte.

Both directions work one block of rows at a time, with a constant number of
numpy calls per row block, so their temporaries are bounded by the block.
Emission indexes one table of fixed-width words (each word a token, its space
and NUL padding; code c at word c mod (2l + 1), or mod 3 for weighing) with
the block's codes as stored, turns the space after each row's last token into
a newline, and drops the padding with ``bytes.translate``;
``emit_matrix_chunks`` hands out each block's text as it is made, so a writer
never holds the whole file.  Parsing takes the text's lines, from a string
(one ``str.find`` per row) or from an open file (``read_matrix_file``, so a
reader holds the grid and one block, never the text), cuts them into row
blocks as they come and decodes each block's ASCII bytes with numpy array
passes: separators and row ends, token starts and lengths, then the sign and
the decimal digits of every token at once (for l <= 9 the last byte of a
token is its only digit).  Codes land in one grid of the narrowest signed
dtype that holds -l..l, one byte per cell for weighing files and for designs
of up to 127 variables.  A block the passes do not cover (a bad token, a row
of the wrong length, or an index with more digits than l has, such as
``+02`` for l < 10) is read row by row and token by token, which accepts the
same spellings and reports the first bad token by line and position.
"""

from __future__ import annotations

import os
import stat
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .matrices import IntMatrix, ODType, SignedVarMatrix, WeighingType, _code_dtype

__all__ = [
    "MatrixFileError",
    "parse_matrix_file",
    "read_matrix_file",
    "emit_matrix_file",
    "emit_matrix_chunks",
    "FLAG_ORDER",
]

FLAG_ORDER = ("sym", "skew", "circ")

Claim = Union[WeighingType, ODType]
Matrix = Union[IntMatrix, SignedVarMatrix]


class MatrixFileError(ValueError):
    """Malformed matrix file; the message carries line and token positions."""


def _fail(line: int, column: int | None, message: str) -> "MatrixFileError":
    place = f"line {line}" if column is None else f"line {line}, token {column}"
    return MatrixFileError(f"{place}: {message}")


def _parse_header(line: str) -> tuple[Claim, tuple[str, ...]]:
    fields = line.split(" ")
    if "" in fields:
        raise _fail(1, None, "header tokens must be separated by single spaces")
    if fields[0] == "W":
        if len(fields) < 3:
            raise _fail(1, None, "weighing header needs order and weight")
        kind_args, flag_fields = fields[1:3], fields[3:]
        try:
            n, k = int(kind_args[0]), int(kind_args[1])
        except ValueError:
            raise _fail(1, None, f"order and weight must be integers, got {kind_args}")
        try:
            claim: Claim = WeighingType(n, k)
        except Exception as err:
            raise _fail(1, None, str(err))
    elif fields[0] == "OD":
        if len(fields) < 3:
            raise _fail(1, None, "design header needs order and a type list")
        try:
            n = int(fields[1])
            type_tuple = tuple(int(part) for part in fields[2].split(","))
        except ValueError:
            raise _fail(1, None, "design header needs integer order and comma-joined type")
        try:
            claim = ODType(n, type_tuple)
        except Exception as err:
            raise _fail(1, None, str(err))
        flag_fields = fields[3:]
    else:
        raise _fail(1, 1, f"unknown matrix kind {fields[0]!r} (expected W or OD)")
    flags = []
    for pos, flag in enumerate(flag_fields, start=len(fields) - len(flag_fields) + 1):
        if flag not in FLAG_ORDER:
            raise _fail(1, pos, f"unknown flag {flag!r}")
        if flag in flags:
            raise _fail(1, pos, f"duplicate flag {flag!r}")
        flags.append(flag)
    return claim, tuple(sorted(flags, key=FLAG_ORDER.index))


_WEIGHING_TOKENS = {"0": 0, "+": 1, "-": -1, "1": 1, "-1": -1}


def _parse_weighing_token(token: str, line: int, column: int) -> int:
    try:
        return _WEIGHING_TOKENS[token]
    except KeyError:
        raise _fail(line, column, f"bad weighing token {token!r} (expected 0, +, -)")


def _parse_od_token(token: str, num_vars: int, line: int, column: int) -> int:
    if token == "0":
        return 0
    sign = {"+": 1, "-": -1}.get(token[:1])
    digits = token[1:]
    if sign is None or not (digits.isascii() and digits.isdigit()):
        raise _fail(line, column, f"bad design token {token!r} (expected 0, +j, -j)")
    index = int(digits)
    if not 1 <= index <= num_vars:
        raise _fail(
            line, column, f"variable index {index} outside 1..{num_vars}"
        )
    return sign * index


def _od_tokens(num_vars: int) -> list[str]:
    """Canonical design tokens of the codes -l..l, code c at c mod (2l + 1):
    0, +1, ..., +l, then -l, ..., -1."""
    return ["0"] + [f"+{c}" for c in range(1, num_vars + 1)] + [
        f"-{c}" for c in range(num_vars, 0, -1)
    ]


def _parse_row(tokens: list[str], n: int, claim: Claim, line: int) -> list[int]:
    """One body row token by token, with every diagnostic: the path for
    rows the lookup table does not cover."""
    if "" in tokens:
        raise _fail(line, None, "tokens must be separated by single spaces")
    if len(tokens) != n:
        raise _fail(line, None, f"row has {len(tokens)} tokens, expected {n}")
    if isinstance(claim, WeighingType):
        return [
            _parse_weighing_token(tok, line, col)
            for col, tok in enumerate(tokens, start=1)
        ]
    return [
        _parse_od_token(tok, claim.num_vars, line, col)
        for col, tok in enumerate(tokens, start=1)
    ]


# Cells per row block of parsing: the bytes and index arrays of one block
# (some tens of bytes per cell) are alive at a time, not those of the whole
# body.  Smaller blocks cost more calls; larger ones decode no faster warm,
# and cold they are slower: a block's int64 index arrays of 8 bytes per cell
# then reach glibc's 128 KiB mmap threshold and are mapped afresh each block.
_PARSE_BLOCK_CELLS = 1 << 14


def _decode_rows(block: str, claim: Claim, out: np.ndarray) -> bool:
    """Write the codes of ``block``, the text of len(out) rows each ending
    with a newline, into the (rows, n) array ``out`` and return True when
    every row holds n single-space separated tokens, each a weighing token
    or ``0``/``+j``/``-j`` with j in 1..l written in at most as many ASCII
    digits as l has; else return False, and the caller reads the rows token
    by token."""
    rows, n = out.shape
    out = out.reshape(-1)
    buf = np.frombuffer(block.encode("ascii", "replace"), np.uint8)
    ends = np.flatnonzero((buf == 32) | (buf == 10))  # the byte after each token
    if ends.size != rows * n or not np.all(buf[ends[n - 1 :: n]] == 10):
        return False
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lengths = ends - starts
    first = buf[starts]
    minus = first == ord("-")
    # uint8 arithmetic: every byte other than "0".."9" lands above 9
    last = buf[ends - 1] - np.uint8(ord("0"))
    if isinstance(claim, WeighingType):
        plus = (first == ord("+")) | (first == ord("1"))
        np.subtract(plus.view(np.int8), minus, out=out)
        ok = ((lengths == 1) & ((out != 0) | (first == ord("0")))) | (
            (lengths == 2) & minus & (last == 1)
        )
        return bool(ok.all())
    l = claim.num_vars
    sign = (first == ord("+")).view(np.int8) - minus
    zero = (lengths == 1) & (first == ord("0"))
    if l <= 9:
        # a token's last byte is its only digit
        ok = zero | ((sign != 0) & (lengths == 2) & (last >= 1) & (last <= l))
        if not ok.all():
            return False
        np.multiply(sign, last.view(np.int8), out=out)
        return True
    places = len(str(l))
    ok = zero | ((sign != 0) & (lengths >= 2) & (lengths <= places + 1))
    index = np.zeros(ends.size, dtype=np.int64)
    for place in range(places):  # digits from the last one back
        # Clipped positions belong to tokens too short to have this digit.
        digit = np.take(buf, ends - (1 + place), mode="clip") - np.uint8(ord("0"))
        here = lengths > place + 1
        ok &= ~here | (digit <= 9)
        index += (digit * here).astype(np.int64) * 10**place
    ok &= (sign == 0) | ((index >= 1) & (index <= l))
    if not ok.all():
        return False
    np.multiply(sign, index, out=out, casting="unsafe")
    return True


def parse_matrix_file(text: str) -> tuple[Matrix, Claim, tuple[str, ...]]:
    """Parse a matrix file into (matrix, claim, flags); no verification.

    Codes are held in the narrowest signed dtype that holds -l..l: int8 for
    every weighing file and every design of up to 127 variables."""
    return _parse_lines(_text_lines(text), len(text))


def read_matrix_file(path: Union[str, os.PathLike]) -> tuple[Matrix, Claim, tuple[str, ...]]:
    """Parse the matrix file at ``path`` as ``parse_matrix_file`` parses its
    text, read as ``Path.read_text`` reads it (locale encoding, universal
    newlines) but one row block at a time, so the text is never held whole.

    A source with no size (a pipe, a FIFO, a file of a kernel filesystem)
    is read whole and parsed as a string.  Every error comes after the whole
    input has been read, so an undecodable byte anywhere raises the
    ``UnicodeDecodeError`` of ``Path.read_text`` before any
    ``MatrixFileError``."""
    try:
        with Path(path).open() as fh:
            status = os.fstat(fh.fileno())
            if not stat.S_ISREG(status.st_mode) or not status.st_size:
                return parse_matrix_file(fh.read())
            try:
                # A character takes at least a byte, and CRLF reads as one.
                return _parse_lines(fh, status.st_size)
            except MatrixFileError:
                while fh.read(1 << 16):  # the rest may hold a decode error
                    pass
                raise
    except UnicodeDecodeError:
        # A chunked read places the bad byte within its chunk; the whole
        # read names its offset in the file.
        Path(path).read_text()
        raise


def _text_lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its newline (the last may lack it)."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


def _parse_lines(lines: Iterator[str], bound: int) -> tuple[Matrix, Claim, tuple[str, ...]]:
    """Parse a matrix file from its lines, each with its newline (the last
    may lack it), given an upper bound on the length of their text.

    Rows are cut ``_PARSE_BLOCK_CELLS // n`` at a time and decoded into the
    grid as they come.  Past a bad row the rest is only read and counted, so
    a body of the wrong length is reported before the row, and the header
    before both.  Blank lines at the end are not rows."""
    first = next(lines, "\n")
    if first == "\n" and all(line == "\n" for line in lines):
        raise MatrixFileError("empty file")
    claim, flags = _parse_header(first.rstrip("\n"))
    n = claim.order
    weighing = isinstance(claim, WeighingType)
    grid = None
    if bound >= n * (2 * n - 1):
        # A row of n tokens needs 2n - 1 characters, so shorter text has a
        # bad row, found row by row without an n x n grid the text cannot
        # fill.  Past this check the grid holds at most one byte per
        # character of the text for l <= 127.
        grid = np.empty((n, n), dtype=np.int8 if weighing else _code_dtype(claim.num_vars))
    step = max(1, _PARSE_BLOCK_CELLS // n)
    rows = blank = 0  # lines past the header; the blank ones among the last
    error = None
    while rows < n and error is None:
        block = list(islice(lines, min(step, n - rows)))
        if not block:
            break
        text = "".join(block)
        out = None if grid is None else grid[rows : rows + len(block)]
        if out is None or not _decode_rows(text if text[-1] == "\n" else text + "\n", claim, out):
            try:
                for i, line in enumerate(block):
                    codes = _parse_row(line.rstrip("\n").split(" "), n, claim, rows + i + 2)
                    if out is not None:
                        out[i] = codes
            except MatrixFileError as err:
                error = err
        rows += len(block)
        for line in block:
            blank = blank + 1 if line == "\n" else 0
    for line in lines:
        rows += 1
        blank = blank + 1 if line == "\n" else 0
    if rows - blank != n:
        raise MatrixFileError(f"body has {rows - blank} rows, header promises {n}")
    if error is not None:
        raise error
    if grid is None:  # n good rows in text shorter than its bound allows
        raise MatrixFileError("input grew while it was read")
    if weighing:
        return IntMatrix._adopt(grid), claim, flags
    return SignedVarMatrix._adopt(grid, claim.num_vars), claim, flags


# Cells per row block of emission: the words and bytes of one block are alive
# at a time, not those of the whole matrix.
_EMIT_BLOCK_CELLS = 1 << 16


def emit_matrix_chunks(
    matrix: Matrix, claim: Claim, flags: Sequence[str] = ()
) -> Iterator[str]:
    """Canonical text form of a matrix under its claim, in pieces: the
    header line, then the rows of one row block per piece, every line ending
    with a newline.  The header is checked when this is called, the entries
    block by block as the pieces are taken."""
    for flag in flags:
        if flag not in FLAG_ORDER:
            raise MatrixFileError(f"unknown flag {flag!r}")
    if len(set(flags)) != len(tuple(flags)):
        raise MatrixFileError("duplicate flags")
    ordered_flags = sorted(flags, key=FLAG_ORDER.index)
    suffix = ("" if not ordered_flags else " " + " ".join(ordered_flags))
    if isinstance(claim, WeighingType):
        if not isinstance(matrix, IntMatrix):
            raise MatrixFileError("weighing claim needs an integer matrix")
        header = f"W {claim.order} {claim.weight}{suffix}"
        payload, tokens = matrix.entries, ["0", "+", "-"]
    else:
        if not isinstance(matrix, SignedVarMatrix):
            raise MatrixFileError("design claim needs a symbolic matrix")
        if matrix.num_vars != claim.num_vars:
            raise MatrixFileError(
                f"matrix has {matrix.num_vars} variables, claim has {claim.num_vars}"
            )
        type_csv = ",".join(str(s) for s in claim.type_tuple)
        header = f"OD {claim.order} {type_csv}{suffix}"
        # SignedVarMatrix keeps every code magnitude within num_vars.
        payload, tokens = matrix.codes, _od_tokens(claim.num_vars)
    if payload.shape != (claim.order, claim.order):
        raise MatrixFileError(
            f"matrix shape {payload.shape} does not match claimed order {claim.order}"
        )
    return _emit_rows(header, payload, _token_words(tokens), isinstance(claim, WeighingType))


def _token_words(tokens: Sequence[str]) -> np.ndarray:
    """Each token and a space, NUL-padded to one unsigned word of 1, 2, 4 or
    8 bytes.  Design tokens have at most 7 characters: l <= order, and an
    order of 10**6 would need 10**12 cells."""
    width = next(size for size in (1, 2, 4, 8) if size > max(map(len, tokens)))
    words = np.array([f"{token} ".encode("ascii") for token in tokens], dtype=f"S{width}")
    return words.view(f"u{width}")


def _emit_rows(
    header: str, payload: np.ndarray, table: np.ndarray, weighing: bool
) -> Iterator[str]:
    """The header line, then the rows of ``payload`` one row block at a
    time, each code c written as the token in word ``table[c mod len(table)]``
    (codes index the table as stored, in any dtype)."""
    yield header + "\n"
    n = payload.shape[0]
    width = table.itemsize
    step = max(1, _EMIT_BLOCK_CELLS // n)
    for start in range(0, n, step):
        block = payload[start : start + step]
        if weighing:
            outside = (block < -1) | (block > 1)
            if outside.any():
                value = int(block.flat[int(np.argmax(outside))])
                raise MatrixFileError(
                    f"weighing entries must lie in {{0, +1, -1}}, got {value}"
                )
        text = table.take(block, mode="wrap").view(np.uint8).reshape(len(block), n * width)
        last = text[:, -width:]  # the word of each row's last token
        last[last == ord(" ")] = ord("\n")
        yield text.tobytes().translate(None, b"\0").decode("ascii")


def emit_matrix_file(
    matrix: Matrix, claim: Claim, flags: Sequence[str] = ()
) -> str:
    """Canonical text form of a matrix under its claim; ends with newline."""
    return "".join(emit_matrix_chunks(matrix, claim, flags))
