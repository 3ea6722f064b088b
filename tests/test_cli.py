"""Command-line interface: exit codes, output discipline, closed loops.

Every command runs in-process through main(argv); stdout must stay clean
enough to parse (matrices only), diagnostics go to stderr.
"""

import hashlib
import os
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

from odforge.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main
from odforge.constructions import block_array_od, circulant_cw, odd_block_orders, replay
from odforge.existence import FAMILIES, ExistenceError, Query, bound_N, exists_query
from odforge.matfile import parse_matrix_file
from odforge.matrices import ODType, WeighingType
from conftest import dense_od_report, dense_weighing_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_construct_success_is_zero(self, capsys):
        code, out, err = run(capsys, "construct", "cw", "--q", "2")
        assert code == EXIT_OK
        matrix, claim, flags = parse_matrix_file(out)
        assert claim == WeighingType(7, 4)
        assert "circ" in flags

    def test_bad_parameter_is_one(self, capsys):
        code, out, err = run(capsys, "construct", "cw", "--q", "6")
        assert code == EXIT_ERROR
        assert "prime power" in err
        assert out == ""

    @pytest.mark.parametrize("spread", ["0", "-1"])
    def test_spread_below_one_is_one(self, capsys, spread):
        code, out, err = run(capsys, "construct", "cw", "--q", "2", "--spread", spread)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error: --spread must be at least 1, got {spread}\n"

    @pytest.mark.parametrize("ks", ["0,1,1,1", "1,1,1,-3"])
    def test_skew4_weights_must_be_positive(self, capsys, ks):
        code, out, err = run(capsys, "construct", "od", "--method", "skew4", "--ks", ks)
        assert code == EXIT_ERROR
        assert out == ""
        shown = ks.replace(",", ", ")
        assert err == f"error: all four weights must be positive integers, got ({shown})\n"

    def test_skew4_unbuilt_seed_lists_the_strategies(self, capsys):
        code, out, err = run(capsys, "construct", "od", "--method", "skew4", "--ks", "4,5,1,1")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == (
            "unsupported parameters: no strategy produced OD(order=16, type=(1, 4, 5))\n"
            "strategies tried: catalog: no entry of this exact order and type; "
            "merge: no all-ones catalog entry wide enough; "
            "merge: symmetric all-ones construction carries too little weight; "
            "skew doubling: needs a type (1, k) or (k, 1) with k below the order\n"
        )

    def test_not_exists_is_two(self, capsys):
        code, out, err = run(capsys, "exists", "--n", "9", "--k", "4", "--structure", "skew")
        assert code == EXIT_NEGATIVE
        assert out.startswith("NotExists [skew-odd-order]")

    def test_undecided_is_one(self, capsys):
        code, out, err = run(
            capsys, "exists", "--n", "111", "--k", "4", "--structure", "symmetric"
        )
        assert code == EXIT_ERROR
        assert out.startswith("Undecided:")

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "cw"])  # missing --q
        assert exc.value.code == EXIT_ERROR
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EXIT_ERROR
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--k", "4", "--family", "bogus"])
        assert exc.value.code == EXIT_ERROR

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestGuard:
    def test_refuses_huge_order_and_prints_plan(self, capsys):
        code, out, err = run(capsys, "construct", "sym-od", "--k", "14")
        assert code == EXIT_ERROR
        assert out == ""
        assert "refusing to materialize" in err
        assert "plan: order 2**14 = 16384" in err

    def test_force_proceeds_on_small_case(self, capsys):
        code, out, err = run(capsys, "construct", "sym-od", "--k", "3", "--force")
        assert code == EXIT_OK
        matrix, claim, flags = parse_matrix_file(out)
        assert claim == ODType(8, (1, 1, 1))

    def test_force_lifts_the_cell_budget_for_sym_w(self, capsys, monkeypatch):
        # Past 10**8 cells, --force reaches the symmetric route itself, which
        # answers from arithmetic: every builder returns through _witness,
        # and it is never called.
        def no_build(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr("odforge.constructions._witness", no_build)
        code, out, err = run(capsys, "construct", "sym-w", "--n", "10001", "--k", "5", "--force")
        assert code == EXIT_ERROR
        assert out == "Undecided: symmetric constructions here need a perfect square weight\n"

    def test_force_refuses_a_size_numpy_cannot_address(self, capsys, monkeypatch):
        # 2**80 cells: refused from arithmetic, before anything is allocated.
        def no_build(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr("odforge.cli.symmetric_od_pow2", no_build)
        code, out, err = run(capsys, "construct", "sym-od", "--k", "40", "--force")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("refusing to materialize order 1099511627776 (")
        assert "even with --force" in err
        assert "plan: order 2**40 = 1099511627776" in err

    def test_block_array_guard_uses_plan_arithmetic(self, capsys):
        # Order 4 * 91 * 31 = 11284 exceeds the default cell budget, and the
        # refusal happens before any matrix is built.
        code, out, err = run(capsys, "construct", "od", "--method", "gs", "--ks", "45,1,1,1")
        assert code == EXIT_ERROR
        assert "refusing to materialize" in err
        assert "plan:" in err


class TestVerify:
    def test_pass_and_fail(self, capsys, tmp_path):
        good = tmp_path / "good.txt"
        code, out, err = run(
            capsys, "construct", "cw", "--q", "2", "--out", str(good)
        )
        assert code == EXIT_OK
        code, out, err = run(capsys, "verify", "--file", str(good))
        assert code == EXIT_OK
        assert out.startswith("PASS W(7,4)")

        bad = tmp_path / "bad.txt"
        text = good.read_text().splitlines()
        row = text[1].split(" ")
        row[0] = "-" if row[0] == "+" else "+"  # flip one sign
        text[1] = " ".join(row)
        bad.write_text("\n".join(text) + "\n")
        code, out, err = run(capsys, "verify", "--file", str(bad))
        assert code == EXIT_NEGATIVE
        assert out.startswith("FAIL W(7,4)")

    def test_corrupted_design_reports_first_violation(self, capsys, tmp_path):
        # One sign flipped in a skew OD(32; 1,1,1,1).  The FAIL line is the
        # one the dense-product verifier printed for this file, so the support
        # kernel must find the same first violation.
        good = tmp_path / "good.txt"
        code, _, _ = run(
            capsys, "construct", "od", "--method", "skew4", "--ks", "1,1,1,1",
            "--out", str(good),
        )
        assert code == EXIT_OK
        text = good.read_text().splitlines()
        row = text[1 + 5].split(" ")
        assert row[13] == "+3"
        row[13] = "-3"
        text[1 + 5] = " ".join(row)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(text) + "\n")
        code, out, err = run(capsys, "verify", "--file", str(bad))
        assert code == EXIT_NEGATIVE
        assert out == "FAIL OD(32;1,1,1,1): variables 1,3 not anti-amicable at (5, 14)\n"

    def test_flag_mismatch_fails(self, capsys, tmp_path):
        f = tmp_path / "flagged.txt"
        f.write_text("W 2 1 circ sym skew\n+ 0\n0 +\n")
        code, out, err = run(capsys, "verify", "--file", str(f))
        assert code == EXIT_NEGATIVE
        assert "declared flags not satisfied" in out
        assert "skew" in out

    def test_shape_check_runs_only_for_declared_flags(self, capsys, tmp_path, monkeypatch):
        import odforge.cli

        calls = []
        check = odforge.cli.structure_check
        monkeypatch.setattr(
            odforge.cli, "structure_check", lambda m: calls.append(m) or check(m)
        )
        plain, flagged = tmp_path / "plain.txt", tmp_path / "flagged.txt"
        plain.write_text("W 2 1\n+ 0\n0 +\n")
        flagged.write_text("W 2 1 sym\n+ 0\n0 +\n")
        assert run(capsys, "verify", "--file", str(plain)) == (EXIT_OK, "PASS W(2,1)\n", "")
        assert not calls
        assert run(capsys, "verify", "--file", str(flagged)) == (EXIT_OK, "PASS W(2,1) [sym]\n", "")
        assert len(calls) == 1

    def test_missing_file_is_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--file", str(tmp_path / "nope.txt"))
        assert code == EXIT_ERROR

    def test_malformed_file_is_one(self, capsys, tmp_path):
        f = tmp_path / "broken.txt"
        f.write_text("W 2 1\n+ 0 0\n0 + 0\n")
        code, out, err = run(capsys, "verify", "--file", str(f))
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_non_ascii_digit_is_a_clean_error(self, capsys, tmp_path):
        f = tmp_path / "superscript.txt"
        f.write_text("OD 2 1,1\n+\u00b2 +2\n+2 -1\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--file", str(f))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == (
            "error: line 2, token 1: bad design token '+\u00b2' (expected 0, +j, -j)\n"
        )

    @pytest.mark.parametrize("variant", ["crlf", "no-final-newline"])
    def test_canonical_file_passes_with_other_line_ends(self, capsys, tmp_path, variant):
        # The file is read in text mode with universal newlines, so a CRLF
        # copy and a copy without its final newline both pass.
        good = tmp_path / "good.txt"
        code, _, _ = run(
            capsys, "construct", "od", "--method", "two", "--ks", "1,2", "--out", str(good)
        )
        assert code == EXIT_OK
        code, expected, _ = run(capsys, "verify", "--file", str(good))
        assert code == EXIT_OK and expected.startswith("PASS OD(")
        data = good.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data
        copy = tmp_path / f"{variant}.txt"
        copy.write_bytes(data.replace(b"\n", b"\r\n") if variant == "crlf" else data[:-1])
        assert run(capsys, "verify", "--file", str(copy)) == (EXIT_OK, expected, "")

    def test_undecodable_file_is_a_clean_error(self, capsys, tmp_path):
        f = tmp_path / "binary.txt"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "verify", "--file", str(f))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"cannot read {f}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("first", ["valid", "bad-token", "bad-header"])
    def test_undecodable_byte_past_the_first_block_is_named_as_a_whole_read_names_it(
        self, capsys, tmp_path, first
    ):
        # The file is read in blocks of 43 rows of W(381, 361), but the error
        # gives the bad byte's offset in the file, as Path.read_text says it;
        # a bad token in row 2 or a bad header does not hide the bad byte.
        path = tmp_path / "cw19.txt"
        assert run(capsys, "construct", "cw", "--q", "19", "--out", str(path))[0] == EXIT_OK
        data = bytearray(path.read_bytes())
        data[200_006] = 0xFF
        if first == "bad-token":
            data[data.index(b"\n", data.index(b"\n") + 1) + 1] = ord("x")
        elif first == "bad-header":
            data[0] = ord("X")
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        assert "position 200006" in str(whole.value)
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out, err) == (EXIT_ERROR, "", f"cannot read {path}: {whole.value}\n")

    @pytest.mark.parametrize("short_row", [False, True], ids=["canonical", "short-row"])
    def test_fifo_reads_as_the_regular_file(self, capsys, tmp_path, short_row):
        # A FIFO has no size: it is read whole and parsed as a string.
        path = tmp_path / "design.txt"
        code, _, _ = run(
            capsys, "construct", "od", "--method", "two", "--ks", "1,2", "--out", str(path)
        )
        assert code == EXIT_OK
        if short_row:
            lines = path.read_text().split("\n")
            lines[2] = lines[2].rsplit(" ", 1)[0]
            path.write_text("\n".join(lines))
        expected = run(capsys, "verify", "--file", str(path))
        assert expected[0] == (EXIT_ERROR if short_row else EXIT_OK)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        got = run(capsys, "verify", "--file", str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == expected

    def test_verify_of_a_large_design_holds_under_two_bytes_per_cell(self, capsys, tmp_path):
        # OD(1898; 9, 64), the largest block-io design: its 7.3 MB file is
        # read one row block at a time into a one-byte grid, so the peak is
        # the grid, a block and the verifier's work, never the text.
        path = tmp_path / "od1898.txt"
        code, _, _ = run(
            capsys, "construct", "od", "--method", "two", "--ks", "3,8", "--out", str(path)
        )
        assert code == EXIT_OK
        tracemalloc.start()
        try:
            code = main(["verify", "--file", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == (EXIT_OK, "PASS OD(1898;9,64)\n")
        assert peak < 2 * 1898**2


class TestGoldenCorpus:
    """sha256 of the files `construct od` writes, recorded before emission
    became table-driven: emitted text must stay byte-identical."""

    @pytest.mark.parametrize(
        "method, ks, digest",
        [
            ("eight", "1,1,1,3", "15d93bd5b98deb5c36cdf2551338ad968208f61a6b991b24116e61d2b78db165"),
            ("gs", "2,2,2,3", "2730f625ad71edc41a0028f763a112ea94d5487fc8b85b8197a28b3effaf2a4f"),
            ("two", "8,1", "9435bc50f1fafcaebb0f57f32617a157c9bbfbd556d524279b70ff0d360c698a"),
            ("two", "3,4", "2ae4bef1dd0500e7049069eefc96e2c56bf922cde8f19ff6c8f9520e9179febf"),
            ("eight", "2,2,2,3", "f543706608c0d308f0f96d37893cd3c353921be38d243b95fea4521f1d69735b"),
            ("two", "3,5", "a7f5a56561bb6096429be72ff3c71fde740240be3fcfd447489e9898ee7f9c1a"),
            ("two", "2,8", "30fbf5ab5cf9c6f1e99d17008e1582e43ffd1f545ca62cc8de72c0834a52975c"),
            ("gs", "1,1,2,3", "6d7e99a1b39481b258d87cc5be2f9a8bf9b52c3f95c0ed4ed4f6fe6b9ec5c03a"),
            # the skew four-variable design, recorded before it was built
            # from two Kronecker terms of relabelled code grids
            ("skew4", "1,1,1,1", "1de65fb607202ff07e1e9e0f0442c4ce0e20450526766a056e0d40556c848255"),
            ("skew4", "1,2,2,4", "92350a059ae841f7b915ad721339303f320a3495cde6192d239d0c55870f35c2"),
            ("skew4", "4,4,4,4", "eaacdbf5f697f1bb5063fee86cc4820ccd481501ac80681db3faa5d7ea915d81"),
            ("skew4", "2,1,1,5", "a78a933b87acc79d461098fa997a5f4c57e4b2f0c1a0ada4957b1e71b2c6644e"),
        ],
    )
    def test_written_file_digest(self, capsys, tmp_path, method, ks, digest):
        target = tmp_path / "od.txt"
        code, out, err = run(
            capsys, "construct", "od", "--method", method, "--ks", ks, "--out", str(target)
        )
        assert code == EXIT_OK, err
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


class TestCliCorpus:
    """sha256 of (exit code, stdout, stderr) for `bound` and `exists` runs:
    every family's derivation, the --ks overrides and their rejections, and
    exists at seed orders, power-of-two orders and past the threshold.  The
    text of each answer must stay byte-identical."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("bound --k 4 --family sym-square --trace", "d45ea8c4985c78afff3af98f16c770dc998e41d53f553dabac9a02170039d2cd"),
            ("bound --k 9 --family sym-square --trace", "df6a260058ca739248639959348ee131e3bbc80fe09eaab12e2ec6504c1316e3"),
            ("bound --k 10 --family two-square-2n --trace", "b47133be22b082dfee6c9bcd84bad67cf2bf52a5699b5c3fbe022b474d37c18a"),
            ("bound --k 8 --family two-square-2n --trace", "54ed10b11cb4ea0adbdb6586a5d956b85714b47d23b5474039053562c85638d0"),
            ("bound --k 92 --family four-square-4n --trace", "4dde3eb9d315d76dab921977b89a4248e96a5bdf63eb911c06f4c0aaab1d9cb9"),
            ("bound --k 7 --family four-square-4n --trace", "4a67a80dfa5b83eede2c5c25a70ccf1571c5b944b03ad49c55a410eb04f94f23"),
            ("bound --k 9 --family skew-2n --trace", "e674946383b6ef91117699f97e8998f091ec172e06849767ef3cacae46f55e27"),
            ("bound --k 4 --family skew-2n --trace", "24a984699d66e3ab1301fbc74507aec11db4062eef0b970b89f439d33a92b9dd"),
            ("bound --k 6 --family skew-4n --trace", "b3c3c9863a452e706d7bcb1acf4cf85c349d768de200fbacbce66248c991a58a"),
            ("bound --k 9 --family skew-4n --trace", "986e493a86e7b48f16d952dd7b8aa2c8890c92e0fecfa1b11be512a88805c691"),
            ("bound --k 9 --family skew-8n --trace", "fafaba2c8b09c420c8786fad09ab5f3e829fb7310b160b87d083f9ae54316dfa"),
            ("bound --k 36 --family skew-8n --trace", "b095ddb5633733a135ccc470394634064c78a364d9b06e15a0bd359d07ea81a9"),
            ("bound --k 5 --family skew-8n --trace", "51cf9aa127e2925cdb4b259d1dfd6b9d74c3c7755b02122974e96afab34c9fb3"),
            ("bound --k 92 --family four-square-4n --ks 4,6,6,2 --trace", "435deb7d23ce7a99d9376fbc264a2e1493d66e8c64ae22f53ccb299e9bbd1c57"),
            ("bound --k 9 --family skew-8n --ks 1,2,2,0 --trace", "9181bfff7a7f47f56ceacc5e10f3bbd1f60318d71915ba15b4d21004c7d0d7ae"),
            ("bound --k 6 --family skew-4n --ks 2,1,1 --trace", "f26d08b97e26056de261534d4f1a9f6b70ec01be4d226db76ce36f3fa7e2bbc2"),
            ("bound --k 10 --family two-square-2n --ks 3,1 --trace", "efac2301893551411c04948bd58b5c0b6d3f3ee26bdeb5dccf073fcff781640b"),
            ("bound --k 9 --family two-square-2n --ks 0,3", "22aa51f6846cedc3e7bb5c662d85d3ee88f82027782be3a44dc29386b2a1ae82"),
            ("bound --k 7 --family skew-4n --ks 1,1,2", "7d2d71a617a7040d81da131e8ccf889e97280047797e66f8cf56176e4b6911e7"),
            ("bound --k 10 --family two-square-2n --ks 1,2", "4cfa83754d4b6c77f36442cc84d93baace72e64f8b15d871ba0aaa009bf6f2e2"),
            ("bound --k 9 --family skew-8n --ks 1,2,2", "415f85a4b8b445eb6a8b1fb97b0c71a51d0919b6c176dc78b18505f47e5433b0"),
            ("bound --k 9 --family skew-2n --ks 1,3", "87d4d2456f64cde17efdf0952882d69bd929e54758bb2262186ec65ebb14bcd8"),
            ("bound --k 4 --family four-square-4n --ks 2,x,0,0", "24958a4adbb2c05ae33469c69a132fc0a7acb8ad249d3f9a7ca5dd0813258359"),
            ("bound --k 7 --family skew-4n", "7d2d71a617a7040d81da131e8ccf889e97280047797e66f8cf56176e4b6911e7"),
            ("bound --k 5 --family sym-square", "ef09500cba73a02ea81c5c70f220bf17eb8dea37d1dee75941e0b88da60ceda0"),
            ("exists --n 16 --k 9 --structure skew --trace", "2d28755c83428cea3889f6134b76d8f5445ce05226ee9d5471835ef32845f81e"),
            ("exists --n 78 --k 9 --structure skew --trace", "d1cef89fa307d2290951560900651558bc76c61d9ffd954ac96ee1541c778442"),
            ("exists --n 12 --k 2 --structure skew --trace", "afd48111d093b6066c9ac2f64c64e91a219897bb9d78d8f4e599cad400e3a6db"),
            ("exists --n 8 --k 4 --structure skew --trace", "73cb208d8d3ab572c609426a0584ef7200752b29032786947587f24a49a02b0c"),
            ("exists --n 96 --k 2 --structure skew --trace", "d309576c5f097f6f915fd382c2bc3819a1a82f643897f15fa60db253785586db"),
            ("exists --n 168 --k 4 --structure skew", "41121ee0b94f7824877bc2c708ca4a47000773fea76fadba207aa6bf083d7485"),
            ("exists --n 32 --k 9 --structure skew --trace", "a9ce08ef96a04a59681e212aff0897f40f6cdca8c32a64cb1b57a031a0d2b21c"),
            ("exists --n 12 --k 7 --structure skew", "1e9539e8461e09f1ba1ae4fbf38abc32ca5b5dbee1ecbc7c7342bb4e7b44dbc0"),
            ("exists --n 104 --k 9 --structure skew --trace", "f3dcce7db1e1bba161b252bd2a8471c37372f694335e85286dcdaf0d1dfdb448"),
            ("exists --n 312 --k 9 --structure skew --trace", "a9ce08ef96a04a59681e212aff0897f40f6cdca8c32a64cb1b57a031a0d2b21c"),
            ("exists --n 168 --k 8 --structure skew --trace", "007ce236b531bca7d2d3f8748706bb213511b8ddf50350e7c245f399b235cac6"),
            ("exists --n 7 --k 4 --structure symmetric --trace", "256246b2110163d1cb75ec97a85a0509deeaa423779f784b26f9d4b0321e29ea"),
            ("exists --n 16 --k 4 --structure symmetric --trace", "3bc745a56efb15585ff7fd60df10f0c802bee2ff1194aa7d8ecaadf95932d2ca"),
            ("exists --n 112 --k 4 --structure symmetric", "533889249bd9eb323174ef55d2b74840c3fe58bf08ca8dc80ecf3926400c2e1e"),
            ("exists --n 111 --k 4 --structure symmetric --trace", "8429bcdaae102018222ca7b0f684bbc082d238c8de197ee089aa79b1fcbde27b"),
            ("exists --n 78 --k 10 --trace", "2e81925fe42bd6b9a98135da74c5e115f9bfeb4fa17a04885bd4b13771f374ac"),
            ("exists --n 12 --k 4 --trace", "65d59f5e7556445a64aab743bb0d7c3ab03d6aae8d5a8462de383b57c52ee10e"),
            ("exists --n 24 --k 4 --trace", "b14b86d7e089a803eb673bfe2f7b6cc55e1d2a51d6c890386c3b177f1b0993f8"),
            ("exists --n 115 --k 4 --trace", "f6da21521f861ccae04a75050d718fd44c8e237381bbe3c731c4a696faa84648"),
            ("exists --n 8 --k 4 --trace", "af8493aa8c005e52bf45db1ea7ad175e67a2d1b9108a1735e2bb986faa854cc6"),
        ],
    )
    def test_answer_digest(self, capsys, argv, digest):
        answer = run(capsys, *argv.split())
        assert hashlib.sha256(repr(answer).encode()).hexdigest() == digest, answer

    # Digests of the answers with the note lines of circulant-weighing nodes
    # removed, recorded while the blocks still came from a run-time search:
    # whatever those notes say, the rest of each answer stays the same.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("exists --n 78 --k 9 --structure skew --trace", "863ff4613db7684c259ae3a4e711eccc89f4df4c532b46c392e1c226672ad3c9"),
            ("exists --n 104 --k 9 --structure skew --trace", "2ae0c015e07a4da5f7785feb281c13c178f420fde34b42327ff962b514896bc4"),
            ("exists --n 7 --k 4 --structure symmetric --trace", "0342aebc652bf17d68796715d6f771d496704c25d8068c9d34c124878d609128"),
            ("exists --n 78 --k 10 --trace", "2e4637fa09146268b5b8b7ab3cd4c2e5af976dd467867da0fcdc65343656df25"),
            ("exists --n 115 --k 4 --trace", "96e48012f17e6030d6539d0bf65482f3089ce3649c00a1dd721e4e39e0fce6cc"),
        ],
    )
    def test_answer_without_circulant_notes(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        kept, node_depth = [], None
        for line in err.split("\n"):
            depth = len(line) - len(line.lstrip())
            if node_depth is not None and depth == node_depth + 2 and line.lstrip().startswith("note: "):
                continue
            node_depth = depth if line.lstrip().startswith("circulant-weighing(") else None
            kept.append(line)
        answer = (code, out, "\n".join(kept))
        assert hashlib.sha256(repr(answer).encode()).hexdigest() == digest, answer


class TestNoSearchBudget:
    """A power-of-two design the provider cannot build is reported at once.
    The digests, of (exit code, stdout, stderr) as in TestCliCorpus, were
    recorded when a failed Kronecker-word search spent the whole default
    budget first, about 5 s per command; the answers are unchanged."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("bound --k 13 --family two-square-2n --trace", "dd73f1389c25d7f21f8b29f09012079e3c6960aca322e00cccd3c1bb60143120"),
            ("exists --n 128 --k 9 --structure skew", "21507df38823f0735469e22ce84c7b5d232cdbf6ab636269c373822660c2b58d"),
        ],
    )
    def test_answer_at_once(self, capsys, argv, digest):
        start = time.perf_counter()
        answer = run(capsys, *argv.split())
        assert time.perf_counter() - start < 0.5
        assert hashlib.sha256(repr(answer).encode()).hexdigest() == digest, answer


# (argv, sha256 of (exit code, stdout, stderr, sha256 of the --out file)) for
# exists past h*N: symmetric and plain queries combine the sym-square seeds,
# skew queries the seeds of the first skew family that takes k.  The --out
# path in stderr reads <out>.  Every witness is written, W(6700, 9) too: its
# 90 MB of text are emitted in row blocks.
_THRESHOLD_CORPUS = [
    ("exists --n 112 --k 4 --structure symmetric", "b4a7a05b7a7d29a3621bf7948571c39651f66200f03ca1a74eb5430c394d321b"),
    ("exists --n 113 --k 4 --structure symmetric", "e0c3446de27c8ea01d4d59247d6cf8225cbec3b8a91312954e54080c7d2ae344"),
    ("exists --n 1000 --k 4 --structure symmetric", "e54ceea62cd4d886f76daa78dfa7d0b0cdaeae47d4f89eb9812d90ad4fdef180"),
    ("exists --n 1600 --k 4 --structure symmetric", "a6ab95449d8ec4207d115deed5e971fca8aceb146f304d79178cdb4453b1a365"),
    ("exists --n 6700 --k 9 --structure symmetric", "3bbb6b8a493733397321b8abe3524e9d2181e33aca14ff3c5b8600829c48ed70"),
    ("exists --n 130 --k 4", "61368781d524969d2f684598ed1d13d0e37dba542ecf55a4231d6608525b4537"),
    ("exists --n 900 --k 4", "1f4b36e16121f6297a98d19282568be78a51ebd99f61fb560b3c8637ea6b171e"),
    ("exists --n 96 --k 1 --structure skew", "9ef0b9bce395af02b522db98897d2f3f65f9e5485d84602286345cc8a89b5919"),
    ("exists --n 1600 --k 1 --structure skew", "d97c08daa3d57569035619c4b69e269c59516fd7330abe6578412f7d61cc1a27"),
    ("exists --n 96 --k 2 --structure skew", "448066c226244741a3a99f0ebbd47420de5be21e8f3aeafbcd4f1bc578359327"),
    ("exists --n 960 --k 2 --structure skew", "829eb03aad7ff5aa24f52174868d4851c89922e2d40e5baaaf56d41a886e58df"),
    ("exists --n 100 --k 3 --structure skew", "2d5b4beb6e9aaf77f4aa81029f96f1cf78d2ff66e46d08acaa8fc44102fe73e9"),
    ("exists --n 960 --k 3 --structure skew", "4e43ea89f5a871fb190a01f12eb950e6855ec10d255821e5e00cba6ec546649c"),
    ("exists --n 168 --k 4 --structure skew", "6b48ee76cce0aec2330a6ee0a7d6b8cf60a11521579d69370805b0032a00cce6"),
    ("exists --n 1600 --k 4 --structure skew", "14b9816807ee5b2b43b25547fc1f35a14e280dcd76e030bbfdc4cb2c67050b4b"),
    ("exists --n 1344 --k 5 --structure skew", "86b695f2f588af5e9af32c505ce130e567a0035f52713ef9b695e85ebe8168dd"),
    ("exists --n 2400 --k 5 --structure skew", "1c33f2be73b6799e488612eb823fd9a6fa11480e337552c71aaca5134d07f105"),
    ("exists --n 1344 --k 6 --structure skew", "c37dc224c0581e9790fc21935106fb26d4ce1c65fd6d2187f788d8b9a4a7ed37"),
    ("exists --n 2000 --k 6 --structure skew", "8197077247ee3643b5e5e796491e665aedfaf5ea5281eff425799f351153c331"),
    ("exists --n 1344 --k 7 --structure skew", "c90f164a29ce16ffd4c5259694fa955b04eff8b244a0ef73374b15e7dcba5d4d"),
    ("exists --n 2400 --k 7 --structure skew", "856c66c73041884da3f6c63c9bc4ada11adbf682fece92239c4f6fb57c59bb05"),
    ("exists --n 2688 --k 8 --structure skew", "d96ef5ab27c6b53c64897ac0d2239691df6ce5e3e78cad14068b538e67e11450"),
    ("exists --n 624 --k 9 --structure skew", "aa3d79bb4e58edf3dad3992466ce260996fb4c84024f1defc88e8b39be74e055"),
    ("exists --n 700 --k 9 --structure skew", "093827a489b32efe228b3434cdeaefd6fc1e07ab11a910a9b511ec76f9e91e00"),
]


def _query_of(argv: str) -> Query:
    args = argv.split()
    structure = args[args.index("--structure") + 1] if "--structure" in args else "plain"
    return Query(int(args[2]), int(args[4]), structure)


class TestThresholdCorpus:
    """Witnesses past the combination threshold: the CLI answer, its --trace
    and its --out bytes stay byte-identical, and every witness of order at
    most 700 passes the dense oracle, has the requested structure and
    replays to the same matrix."""

    @pytest.mark.parametrize("argv, digest", _THRESHOLD_CORPUS)
    def test_answer_digest(self, capsys, tmp_path, argv, digest):
        args = argv.split() + ["--trace"]
        target = tmp_path / "witness.txt"
        code, out, err = run(capsys, *args, "--out", str(target))
        body = hashlib.sha256(target.read_bytes()).hexdigest()
        answer = (code, out, err.replace(str(target), "<out>"), body)
        assert out.startswith("Exists: weighing matrix"), answer
        assert hashlib.sha256(repr(answer).encode()).hexdigest() == digest, answer

    @pytest.mark.parametrize(
        "argv", [argv for argv, _ in _THRESHOLD_CORPUS if _query_of(argv).n <= 700]
    )
    def test_witness_against_oracle_and_replay(self, argv):
        query = _query_of(argv)
        witness = exists_query(query).witness
        entries = witness.matrix.entries
        assert dense_weighing_report(entries, query.k)[0]
        shape = witness.structure
        if query.structure == "symmetric":
            assert np.array_equal(entries, entries.T)
        if query.structure == "skew":
            assert np.array_equal(entries, -entries.T)
        assert (shape.symmetric, shape.skew_symmetric) == (
            bool(np.array_equal(entries, entries.T)),
            bool(np.array_equal(entries, -entries.T)),
        )
        assert replay(witness.trace).matrix == witness.matrix


class TestPrimePowerBlocks:
    """Answers that need the closed-form circulant W(133, 121) block: the
    written witness passes the dense oracle and its recipe replays to it."""

    @pytest.mark.parametrize(
        "argv, build",
        [
            ("construct cw --q 11", lambda: circulant_cw(11)),
            (
                "exists --n 133 --k 121 --structure circulant",
                lambda: exists_query(Query(133, 121, "circulant")).witness,
            ),
            (
                "exists --n 133 --k 121 --structure symmetric",
                lambda: exists_query(Query(133, 121, "symmetric")).witness,
            ),
            ("construct od --method two --ks 1,11", lambda: block_array_od(2, (1, 11))),
        ],
    )
    def test_witness_against_oracle_and_replay(self, capsys, tmp_path, argv, build):
        target = tmp_path / "witness.txt"
        code, out, err = run(capsys, *argv.split(), "--out", str(target))
        assert code == EXIT_OK, err
        matrix, claim, _ = parse_matrix_file(target.read_text())
        if isinstance(claim, ODType):
            assert dense_od_report(matrix.codes, claim.type_tuple)[0]
        else:
            assert dense_weighing_report(matrix.entries, claim.weight)[0]
        witness = build()
        assert witness.matrix == matrix
        assert replay(witness.trace).matrix == matrix


class TestExists:
    def test_witness_written_and_verifiable(self, capsys, tmp_path):
        target = tmp_path / "witness.txt"
        code, out, err = run(
            capsys,
            "exists", "--n", "8", "--k", "4", "--structure", "skew",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert out.startswith("Exists: weighing matrix W(8,4)")
        code, out, err = run(capsys, "verify", "--file", str(target))
        assert code == EXIT_OK

    def test_skew_unit_seed_order(self, capsys):
        code, out, err = run(capsys, "exists", "--n", "16", "--k", "9", "--structure", "skew")
        assert code == EXIT_OK
        assert out == "Exists: weighing matrix W(16,9)\n"

    def test_spent_budget_builds_no_word_table(self, capsys):
        # The Kronecker-word table at order 64 took about 1 s per call to
        # build before the 1 ms deadline was looked at; the answer is the same.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "exists", "--n", "512", "--k", "32", "--structure", "skew",
            "--search-ms", "1",
        )
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_ERROR
        assert out == (
            "Undecided: a design the route needs could not be built: no strategy "
            "produced OD(order=64, type=(1, 16, 16))\n"
        )

    def test_circulant_answer_ignores_the_budget(self, capsys):
        # The q = 7 block once came from a 32-chunk sign search that a 1 ms
        # budget cut short; it is now pinned data.
        code, out, err = run(
            capsys, "exists", "--n", "57", "--k", "49", "--structure", "circulant",
            "--search-ms", "1",
        )
        assert code == EXIT_OK
        assert out == "Exists: weighing matrix W(57,49)\n"

    def test_zero_diag_not_exists(self, capsys):
        code, out, err = run(
            capsys,
            "exists", "--n", "7", "--k", "4", "--structure", "symmetric", "--zero-diag",
        )
        assert code == EXIT_NEGATIVE
        assert "NotExists [symmetric-zero-diagonal-odd-order]" in out

    def test_three_squares_rule_names_the_arithmetic(self, capsys):
        code, out, err = run(
            capsys, "exists", "--n", "12", "--k", "7", "--structure", "skew"
        )
        assert code == EXIT_NEGATIVE
        assert "NotExists [skew-weight-not-three-squares]" in out

    def test_undecided_trace_renders_bound(self, capsys):
        code, out, err = run(
            capsys,
            "exists", "--n", "111", "--k", "4", "--structure", "symmetric", "--trace",
        )
        assert code == EXIT_ERROR
        assert out.startswith("Undecided:")
        assert "family sym-square" in err
        assert "N = 112" in err



# Skew queries (n <= 512, k <= 32) whose route meets a power-of-two seed the
# provider cannot build, or (n = 168, 312) the skew-8n odd order N plans,
# which differs from the order of the seed eight_block_od builds.
_SKEW_ROUTE_FAILURES = [
    (128, 9), (128, 10), (128, 11), (128, 13), (128, 14), (128, 15), (168, 8), (168, 12),
    (256, 16), (256, 17), (256, 18), (256, 19), (256, 20), (256, 21), (256, 22), (256, 25),
    (256, 26), (256, 27), (256, 29), (256, 30), (256, 31), (312, 9), (312, 18), (312, 27),
    (512, 21), (512, 22), (512, 23), (512, 24), (512, 30), (512, 32),
]


def _skew_seed_orders(limit=512):
    """(n, k) for every skew family and k <= 32 at its built odd seed order,
    its planned odd order and its power-of-two order, up to limit."""
    out = set()
    for family, spec in FAMILIES.items():
        if not family.startswith("skew-"):
            continue
        for k in range(2, 33):
            try:
                b = bound_N(k, family)
            except ExistenceError:
                continue
            built = b.h * odd_block_orders(spec.odd_roots(b.ks))[1]
            out.update((n, k) for n in (built, b.odd_order, b.pow2_order) if n <= limit)
    return out


class TestSkewQueriesAnswer:
    @pytest.mark.parametrize("n, k", sorted(set(_SKEW_ROUTE_FAILURES) | _skew_seed_orders()))
    def test_clean_answer(self, capsys, n, k):
        code, out, err = run(
            capsys, "exists", "--n", str(n), "--k", str(k), "--structure", "skew",
            "--search-ms", "1",
        )
        assert code in (EXIT_OK, EXIT_ERROR, EXIT_NEGATIVE)
        assert "Traceback" not in err
        assert out.startswith(("Exists:", "Undecided:", "NotExists ["))


class TestBound:
    def test_benchmark_value(self, capsys):
        code, out, err = run(capsys, "bound", "--k", "92", "--family", "four-square-4n")
        assert code == EXIT_OK
        assert out.strip() == "N = 1677312"

    def test_trace_prints_derivation(self, capsys):
        code, out, err = run(
            capsys, "bound", "--k", "92", "--family", "four-square-4n", "--trace"
        )
        assert code == EXIT_OK
        assert "decomposition ks = (2, 4, 6, 6)" in out

    def test_ks_override(self, capsys):
        code, out, err = run(
            capsys,
            "bound", "--k", "92", "--family", "four-square-4n", "--ks", "4,6,6,2",
        )
        assert code == EXIT_OK
        assert out.startswith("N = ")

    def test_override_rejected_for_square_family(self, capsys):
        code, out, err = run(
            capsys, "bound", "--k", "4", "--family", "sym-square", "--ks", "1,2"
        )
        assert code == EXIT_ERROR
        assert "no --ks override" in err

    @pytest.mark.parametrize("k, family", [("9", "skew-2n"), ("10", "two-square-2n")])
    def test_unit_seed_families_answer_at_once(self, capsys, k, family):
        code, out, err = run(capsys, "bound", "--k", k, "--family", family, "--trace")
        assert code == EXIT_OK
        assert out.startswith("N = 312\n")
        assert "power-of-two seed materialized at order 16" in out

    def test_invalid_weight_is_one(self, capsys):
        code, out, err = run(capsys, "bound", "--k", "5", "--family", "sym-square")
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_level_orders_multiply_past_int64(self, capsys):
        code, out, err = run(
            capsys, "bound", "--k", "999972000094001428002602", "--family", "two-square-2n",
            "--trace",
        )
        assert code == EXIT_OK
        assert out.startswith("N = 1813341581414717859088190085970633370240796327936\n")
        # q = 2999901000819 * 1000007000013
        assert "odd part q = 2999922000165004446010647\n" in out

    def test_block_array_order_past_int64_is_refused_exactly(self, capsys):
        code, out, err = run(capsys, "construct", "od", "--method", "two", "--ks", "999985999949,1")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("refusing to materialize order 5999844000330008892021294 (")

    @pytest.mark.parametrize(
        "argv",
        [
            "bound --k 14400 --family sym-square",
            "exists --n 20000 --k 14400 --structure symmetric --force",
            "bound --k 999972000094001428002601 --family sym-square",
        ],
    )
    def test_unprintable_threshold_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: threshold N = ") and err.count("\n") == 1
        assert err.endswith("has more than 4300 digits\n")

    def test_printable_threshold_keeps_its_bytes(self, capsys):
        code, out, err = run(capsys, "bound", "--k", "12100", "--family", "sym-square")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "85f77ae8496bebdea6fbf90ef9ac977edbf0ff0d885e372f9bd20bf940a0189c"
        )


class TestDecompose:
    def test_three_squares_success(self, capsys):
        code, out, err = run(capsys, "decompose", "--k", "6", "--squares", "3")
        assert code == EXIT_OK
        assert out.strip() == "6 = 1^2 + 1^2 + 2^2"

    def test_three_squares_impossible_is_two(self, capsys):
        code, out, err = run(capsys, "decompose", "--k", "7", "--squares", "3")
        assert code == EXIT_NEGATIVE
        assert "not a sum of three squares" in out

    def test_four_squares_always_works(self, capsys):
        code, out, err = run(capsys, "decompose", "--k", "7", "--squares", "4")
        assert code == EXIT_OK
        total = sum(
            int(part.split("^")[0]) ** 2 for part in out.strip().split(" = ")[1].split(" + ")
        )
        assert total == 7


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "cw", "--q", "3"),
            ("construct", "od", "--method", "skew4", "--ks", "1,1,1,1"),
            ("construct", "sym-w", "--k", "4", "--n", "115"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2


class TestConstructVerifyLoop:
    """Randomized closed loop: whatever a construct command emits, the
    verify command must accept, flags included."""

    POOL = (
        [("construct", "cw", "--q", str(q)) for q in (2, 3)]
        + [
            ("construct", "cw", "--q", str(q), "--spread", str(c))
            for q in (2, 3)
            for c in (2, 3, 5)
        ]
        + [("construct", "sym-od", "--k", str(k)) for k in range(1, 7)]
        + [
            ("construct", "od", "--method", "two", "--ks", f"{a},{b}")
            for a in (1, 2)
            for b in (1, 2)
        ]
        + [
            ("construct", "od", "--method", "gs", "--ks", ks)
            for ks in ("1,1,1,1", "2,2,2,2", "0,1,2,4", "1,0,2,0")
        ]
        + [("construct", "od", "--method", "eight", "--ks", "1,1,1,1")]
        + [("construct", "od", "--method", "skew4", "--ks", ks) for ks in ("1,1,1,1", "1,2,1,2")]
        + [
            ("construct", "sym-w", "--k", "4", "--n", str(n))
            for n in (7, 16, 112, 115, 126)
        ]
        + [("construct", "sym-w", "--k", "9", "--n", "13")]
    )

    def test_one_hundred_randomized_invocations(self, capsys, tmp_path):
        rng = random.Random(20260819)
        invocations = [rng.choice(self.POOL) for _ in range(100)]
        for index, argv in enumerate(invocations):
            target = tmp_path / f"loop{index}.txt"
            code = main(list(argv) + ["--out", str(target)])
            captured = capsys.readouterr()
            assert code == EXIT_OK, (argv, captured.err)
            code = main(["verify", "--file", str(target)])
            captured = capsys.readouterr()
            assert code == EXIT_OK, (argv, captured.out)
            assert captured.out.startswith("PASS"), (argv, captured.out)


class TestOutputDiscipline:
    def test_trace_goes_to_stderr_not_stdout(self, capsys):
        code, out, err = run(capsys, "construct", "cw", "--q", "2", "--trace")
        assert code == EXIT_OK
        parse_matrix_file(out)  # stdout alone must stay parseable
        assert "circulant-weighing" in err

    def test_unwritable_out_is_a_clean_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "w.txt"
        code, out, err = run(
            capsys, "construct", "cw", "--q", "2", "--out", str(target)
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"cannot write {target}: ")
        assert "Traceback" not in err

    def test_unwritable_exists_out_is_a_clean_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "w.txt"
        code, out, err = run(
            capsys, "exists", "--n", "8", "--k", "4", "--structure", "skew",
            "--out", str(target),
        )
        assert code == EXIT_ERROR
        assert out.startswith("Exists:")
        assert err.startswith(f"cannot write {target}: ")

    @pytest.mark.parametrize(
        "message, tail",
        [("", ""), ("Unable to allocate 2.00 GiB", ": Unable to allocate 2.00 GiB")],
    )
    def test_out_of_memory_is_a_clean_error(self, capsys, monkeypatch, message, tail):
        import odforge.cli

        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setattr(odforge.cli, "_cmd_construct_od", exhausted)
        code, out, err = run(
            capsys, "construct", "od", "--method", "skew4", "--ks", "60,60,1,1"
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error: out of memory: construct od{tail}\n"

    def test_out_file_keeps_stdout_empty(self, capsys, tmp_path):
        target = tmp_path / "w.txt"
        code, out, err = run(
            capsys, "construct", "cw", "--q", "2", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert "wrote weighing matrix W(7,4)" in err
        parse_matrix_file(target.read_text())


class TestParserReuse:
    """main builds its parser on the first call and reuses it: no call's
    outcome depends on the calls the shared parser served before it."""

    def test_sequence_matches_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        import odforge.cli

        bad = tmp_path / "bad.txt"
        bad.write_text("W 3 2\n+ + 0\n+ 0 +\n0 + +\n")  # rows 1 and 2 meet in +1
        sequence = [
            ("exists", "--n", "130", "--k", "4"),
            ("exists", "--n", "ten", "--k", "4"),
            ("bound", "--k", "9", "--family", "skew-2n", "--trace"),
            ("decompose", "--k", "310", "--squares", "4"),
            ("verify", "--file", str(bad)),
            ("exists", "--n", "1600", "--k", "4", "--structure", "skew"),
        ]

        def outcomes():
            got = []
            for argv in sequence:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err))
            return got

        shared = [outcomes(), outcomes()]
        monkeypatch.setattr(odforge.cli, "_shared_parser", odforge.cli.build_parser)
        fresh = [outcomes(), outcomes()]
        assert shared == fresh
        codes = [code for code, _, _ in fresh[0]]
        assert codes == [EXIT_OK, EXIT_ERROR, EXIT_OK, EXIT_OK, EXIT_NEGATIVE, EXIT_OK]
        assert fresh[0][1][2].endswith("argument --n: invalid int value: 'ten'\n")
        assert fresh[0][4][1].startswith("FAIL W(3,2)")

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        import odforge.cli

        assert main(["decompose", "--k", "7", "--squares", "4"]) == EXIT_OK
        monkeypatch.setattr(
            odforge.cli, "build_parser", lambda: pytest.fail("main rebuilt its parser")
        )
        assert main(["decompose", "--k", "7", "--squares", "3"]) == EXIT_NEGATIVE
        assert capsys.readouterr().out == (
            "7 = 1^2 + 1^2 + 1^2 + 2^2\n7 is not a sum of three squares\n"
        )

    _TOP_USAGE = "usage: odforge [-h] {construct,verify,exists,bound,decompose} ...\n"
    _EXISTS_USAGE = (
        "usage: odforge exists [-h] --n N --k K\n"
        "                      [--structure {plain,symmetric,skew,circulant}]\n"
        "                      [--zero-diag] [--out OUT] [--trace] [--force]\n"
    )
    _CHOICES = "(choose from 'construct', 'verify', 'exists', 'bound', 'decompose')"

    # argv -> the stderr of its usage error.  Leftovers after a known command
    # are the top-level parser's error; a missing or bad argument is the
    # subcommand's.
    _USAGE_ERRORS = {
        ("exists", "--n", "5", "--k", "3", "--bogus"): (
            _TOP_USAGE + "odforge: error: unrecognized arguments: --bogus\n"
        ),
        ("--", "7"): (
            _TOP_USAGE + f"odforge: error: argument command: invalid choice: '--' {_CHOICES}\n"
        ),
        ("exi",): (
            _TOP_USAGE + f"odforge: error: argument command: invalid choice: 'exi' {_CHOICES}\n"
        ),
        (): _TOP_USAGE + "odforge: error: the following arguments are required: command\n",
        ("construct",): (
            "usage: odforge construct [-h] {cw,sym-od,od,sym-w} ...\n"
            "odforge construct: error: the following arguments are required: what\n"
        ),
        ("construct", "od", "--method", "two", "--ks", "1,2", "--what"): (
            _TOP_USAGE + "odforge: error: unrecognized arguments: --what\n"
        ),
        ("exists", "--n", "x", "--k", "3"): (
            _EXISTS_USAGE + "odforge exists: error: argument --n: invalid int value: 'x'\n"
        ),
        ("exists", "--n", "5"): (
            _EXISTS_USAGE + "odforge exists: error: the following arguments are required: --k\n"
        ),
        ("exists", "--n", "5", "--k", "3", "extra"): (
            _TOP_USAGE + "odforge: error: unrecognized arguments: extra\n"
        ),
        ("decompose", "--k", "7", "7", "--squares", "3"): (
            _TOP_USAGE + "odforge: error: unrecognized arguments: 7\n"
        ),
    }

    @pytest.mark.parametrize("argv", sorted(_USAGE_ERRORS))
    def test_usage_errors_keep_their_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out, captured.err) == (
            EXIT_ERROR,
            "",
            self._USAGE_ERRORS[argv],
        )

    @pytest.mark.parametrize(
        "argv, usage",
        [(("-h",), _TOP_USAGE), (("exists", "-h"), _EXISTS_USAGE)],
    )
    def test_help_exits_zero_with_its_usage(self, capsys, monkeypatch, argv, usage):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        captured = capsys.readouterr()
        assert stop.value.code == EXIT_OK
        assert captured.out.startswith(usage + "\n")
        assert captured.err == ""

    def test_option_prefixes_resolve_in_the_subcommand(self, capsys):
        code, out, err = run(capsys, "exists", "--n", "5", "--k", "3", "--str", "skew")
        assert (code, err) == (EXIT_NEGATIVE, "")
        assert out.startswith("NotExists [skew-odd-order]: ")
