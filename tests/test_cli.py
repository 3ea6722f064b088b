"""Command-line interface: exit codes, output discipline, closed loops.

Every command runs in-process through main(argv); stdout must stay clean
enough to parse (matrices only), diagnostics go to stderr.
"""

import hashlib
import random

import numpy as np
import pytest

from odforge.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main
from odforge.matfile import parse_matrix_file
from odforge.matrices import ODType, WeighingType


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

    def test_undecodable_file_is_a_clean_error(self, capsys, tmp_path):
        f = tmp_path / "binary.txt"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "verify", "--file", str(f))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"cannot read {f}: ")
        assert "Traceback" not in err


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
        ],
    )
    def test_written_file_digest(self, capsys, tmp_path, method, ks, digest):
        target = tmp_path / "od.txt"
        code, out, err = run(
            capsys, "construct", "od", "--method", method, "--ks", ks, "--out", str(target)
        )
        assert code == EXIT_OK, err
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


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
