"""The command-line contract: outputs, exit codes, and byte determinism."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import goglattice
from goglattice import asm_number, n_min_exact
from goglattice.cli import main

FIG1_TRIANGLE_TEXT = "3\n2 4\n1 3 4\n1 2 3 4\n"
FIG1_ASM_TEXT = "0 0 1 0\n0 1 -1 1\n1 -1 1 0\n0 1 0 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAsmCount:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "asm-count", "--n", "4")
        assert (code, out) == (0, "42\n")

    def test_dp(self, capsys):
        code, out, _ = run(capsys, "asm-count", "--n", "6", "--method", "dp")
        assert (code, out) == (0, "7436\n")

    def test_dp_rejects_zero(self, capsys):
        code, _, err = run(capsys, "asm-count", "--n", "0", "--method", "dp")
        assert code == 1 and "error" in err


class TestEnumerate:
    def test_size_two(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        assert out == "1\n1 2\n\n2\n1 2\n"

    def test_workers_byte_identical(self, capsys):
        _, sequential, _ = run(capsys, "enumerate", "--n", "4")
        _, parallel, _ = run(capsys, "enumerate", "--n", "4", "--workers", "2")
        assert sequential == parallel

    def test_limit_is_domain_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9")
        assert code == 1 and "error" in err


class TestConvert:
    def test_triangle_to_asm(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(FIG1_TRIANGLE_TEXT))
        code, out, _ = run(capsys, "convert", "--from", "triangle", "--to", "asm")
        assert (code, out) == (0, FIG1_ASM_TEXT)

    def test_asm_to_triangle(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(FIG1_ASM_TEXT))
        code, out, _ = run(capsys, "convert", "--from", "asm", "--to", "triangle")
        assert (code, out) == (0, FIG1_TRIANGLE_TEXT)

    def test_stream_of_blocks(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("1\n1 2\n\n2\n1 2\n")
        code, out, _ = run(
            capsys, "convert", "--from", "triangle", "--to", "column-sum",
            "--input", str(src),
        )
        assert code == 0
        assert out == "1 0\n1 1\n\n0 1\n1 1\n"

    def test_invalid_input_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2 1\n"))
        code, _, err = run(capsys, "convert", "--from", "triangle", "--to", "asm")
        assert code == 1 and "error" in err


class TestMeetJoin:
    def test_meet(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n1 3\n1 2 3\n\n2\n2 3\n1 2 3\n"))
        code, out, _ = run(capsys, "meet")
        assert (code, out) == (0, "2\n1 3\n1 2 3\n")

    def test_join(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n1 3\n1 2 3\n\n2\n2 3\n1 2 3\n"))
        code, out, _ = run(capsys, "join")
        assert (code, out) == (0, "3\n2 3\n1 2 3\n")

    def test_empty_input_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run(capsys, "meet")
        assert code == 1 and "error" in err

    def test_size_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n\n1\n1 2\n"))
        code, _, err = run(capsys, "meet")
        assert code == 1 and "error" in err


class TestCensusCommand:
    def test_output_and_cache(self, capsys, tmp_path):
        code, out, _ = run(capsys, "census", "--n", "3", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == "MTCENSUS v1 n=3 total=7\n4 4\n5 1\n6 1\n7 1\n"
        assert (tmp_path / "mtcensus-n3.txt").read_text() == out

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GOG_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "census", "--n", "2")
        assert code == 0
        assert (tmp_path / "mtcensus-n2.txt").read_text() == out

    def test_reread_equals_cached(self, capsys, tmp_path):
        _, first, _ = run(capsys, "census", "--n", "4", "--cache-dir", str(tmp_path))
        _, second, _ = run(capsys, "census", "--n", "4", "--cache-dir", str(tmp_path))
        assert first == second


class TestPmin:
    def test_json_exact(self, capsys):
        code, out, _ = run(capsys, "pmin", "--n", "3", "--r", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 3,
            "r": 2,
            "n_min": "15",
            "p_min_num": "15",
            "p_min_den": "49",
            "p_min_decimal": "0.30612244898",
        }
        assert out == (
            '{"n":3,"n_min":"15","p_min_decimal":"0.30612244898",'
            '"p_min_den":"49","p_min_num":"15","r":2}\n'
        )

    def test_census_method_agrees(self, capsys):
        _, ie_out, _ = run(capsys, "pmin", "--n", "4", "--r", "2", "--json")
        _, census_out, _ = run(
            capsys, "pmin", "--n", "4", "--r", "2", "--method", "census", "--json"
        )
        assert ie_out == census_out

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "pmin", "--n", "2", "--r", "2")
        assert code == 0
        assert "n_min\t3" in out.splitlines()

    def test_workers_byte_identical(self, capsys):
        _, a, _ = run(capsys, "pmin", "--n", "7", "--r", "2", "--json")
        _, b, _ = run(capsys, "pmin", "--n", "7", "--r", "2", "--json", "--workers", "2")
        assert a == b

    @pytest.mark.parametrize("n", [60, 100])
    def test_decimal_below_float_range(self, capsys, n):
        # p_min is far below the least double here; the decimal stays exact to 12 digits
        _, out, _ = run(capsys, "pmin", "--n", str(n), "--r", "2", "--json")
        printed = Fraction(json.loads(out)["p_min_decimal"])
        exact = Fraction(n_min_exact(n, 2), asm_number(n) ** 2)
        assert abs(printed - exact) <= Fraction(1, 10**11) * exact


class TestTheoremTables:
    def test_theorem2_columns(self, capsys):
        code, out, _ = run(capsys, "theorem2", "--r", "2", "--n-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n\tn_min\tmain\tsecond\tE\ttheta_ratio_decimal"
        assert lines[2] == "3\t15\t14\t8\t-7\t-7"

    def test_theorem1_ratio_row(self, capsys):
        code, out, _ = run(capsys, "theorem1", "--r", "2", "--n-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[:2] == ["n", "n_min"]
        fields = lines[2].split("\t")
        assert fields[0] == "3" and fields[5] == "15" and fields[6] == "14"

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "theorem2", "--r", "3", "--n-max", "6")
        _, b, _ = run(capsys, "theorem2", "--r", "3", "--n-max", "6")
        assert a == b


class TestClasses:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "3", "--r", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label\tsize\tbound\tratio_decimal"
        assert lines[1].startswith("C_3\t13\t14\t")
        assert lines[-1].startswith("C_<=")


class TestSample:
    def test_seed_determinism(self, capsys):
        _, a, _ = run(capsys, "sample", "--n", "4", "--count", "5", "--seed", "42")
        _, b, _ = run(capsys, "sample", "--n", "4", "--count", "5", "--seed", "42")
        assert a == b

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "4", "--count", "5"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_bijections(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--n-max", "4")
        assert code == 0
        assert out.startswith("OK bijections checks=")

    def test_lemmas(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--n-max", "10")
        assert code == 0
        assert out.startswith("OK lemmas checks=")


class TestImport:
    def test_no_process_pool_modules(self):
        code = (
            "import sys, goglattice.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
        )
        src = str(Path(goglattice.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out == "[]\n"


class TestUsageErrors:
    def test_missing_value_names_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pmin", "--n"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["asm-count", "--n", "3", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["asm-count", "--n", "-2"])
        assert exc.value.code == 2


class TestVerifySuitesRun:
    @pytest.mark.parametrize("suite", ["bijections", "lattice", "census", "theorems"])
    def test_suites_pass_at_small_sizes(self, suite):
        from goglattice.verify import SUITES

        assert SUITES[suite](4) > 0
