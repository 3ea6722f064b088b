"""Locate the program under test and drive its CLI in-process.

``configure`` must run before numpy is imported: it caps the BLAS thread
pools at the number of CPUs this process may use and puts the checkout's
``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no odforge sources to benchmark."""


def configure() -> dict:
    """Cap BLAS threads, pin the package source, and return the settings."""
    if not (SRC / "odforge" / "cli.py").is_file():
        raise MissingProgram(f"no odforge sources under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    os.environ.pop("ODFORGE_CATALOG_DIR", None)  # always the packaged catalog
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return {"nproc": nproc, "blas_threads": threads}


def import_program(load_catalog: bool = True):
    """Import the CLI (and load the catalog unless told not to); check the
    import came from SRC."""
    from odforge import cli
    from odforge import constructions

    if Path(cli.__file__).resolve().parent != SRC / "odforge":
        raise MissingProgram(f"odforge imported from {cli.__file__}, not {SRC}")
    if load_catalog:
        constructions.load_catalog()
    return cli


@dataclass
class Result:
    rc: int
    out: str
    err: str
    error: Optional[str]  # an exception that escaped main
    seconds: float


def run_cli(main: Callable, argv) -> Result:
    """One closed-loop call of ``main(argv)`` with stdout and stderr captured.

    ``error`` names an exception that escaped ``main``; usage errors leave
    through ``SystemExit`` and count as an exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the op failed; the run goes on and counts it
            error = f"{type(exc).__name__}: {exc}"
            rc = -1
        seconds = time.perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue(), error, seconds)
