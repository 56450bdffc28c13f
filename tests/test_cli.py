"""The command-line contract: outputs, exit codes, and byte determinism."""

import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import goglattice
from goglattice import (
    LimitExceeded,
    VerificationFailure,
    asm_number,
    n_min_exact,
    triangles_to_text,
    verify,
)
from goglattice import cli
from goglattice.cli import main

FIG1_TRIANGLE_TEXT = "3\n2 4\n1 3 4\n1 2 3 4\n"
FIG1_COLUMN_SUM_TEXT = "0 0 1 0\n0 1 0 1\n1 0 1 1\n1 1 1 1\n"
FIG1_ASM_TEXT = "0 0 1 0\n0 1 -1 1\n1 -1 1 0\n0 1 0 0\n"
FIG1_TEXTS = {"triangle": FIG1_TRIANGLE_TEXT, "column-sum": FIG1_COLUMN_SUM_TEXT, "asm": FIG1_ASM_TEXT}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(goglattice.__file__).resolve().parent.parent)


def cold(argv, *, flags=(), **kwargs):
    """Run `python -m goglattice.cli argv` as a cold process on this checkout's
    package, with buffered stdout and no warning filters, whatever the
    runner's environment sets."""
    env = {key: value for key, value in os.environ.items() if key not in ("PYTHONUNBUFFERED", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, *flags, "-m", "goglattice.cli", *argv], env=env, **kwargs)


class TestAsmCount:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "asm-count", "--n", "4")
        assert (code, out) == (0, "42\n")

    def test_dp(self, capsys):
        code, out, _ = run(capsys, "asm-count", "--n", "6", "--method", "dp")
        assert (code, out) == (0, "7436\n")

    @pytest.mark.parametrize("method", ["formula", "dp"])
    def test_zero_prints_one(self, capsys, method):
        code, out, err = run(capsys, "asm-count", "--n", "0", "--method", method)
        assert (code, out, err) == (0, "1\n", "")

    @pytest.mark.parametrize("n", [200, 300])
    def test_beyond_the_int_str_digit_cap(self, capsys, n):
        # A(200) has 4546 digits, past CPython's default cap of 4300
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "asm-count", "--n", str(n))
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            assert int(out) == asm_number(n)
        finally:
            sys.set_int_max_str_digits(saved)

    def test_formula_limit_names_its_knob(self, capsys):
        code, _, err = run(capsys, "asm-count", "--n", "1001")
        assert code == 1 and "raise `limit`" in err
        with pytest.raises(LimitExceeded):
            asm_number(6, limit=5)


class TestEnumerate:
    def test_size_two(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        assert out == "1\n1 2\n\n2\n1 2\n"

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

    @pytest.mark.parametrize("source", sorted(FIG1_TEXTS))
    def test_token_past_the_digit_cap_is_refused(self, capsys, monkeypatch, source):
        # `main` lifts the cap, under which int() of this token would raise;
        # the reader still refuses it, before int() spends quadratic time.
        monkeypatch.setattr("sys.stdin", io.StringIO("1 " + "7" * 4301 + "\n"))
        code, _, err = run(capsys, "convert", "--from", source, "--to", "asm")
        assert code == 1 and err.startswith("error: non-integer token in line '1 777")

    @pytest.mark.parametrize("source", sorted(FIG1_TEXTS))
    @pytest.mark.parametrize("target", sorted(FIG1_TEXTS))
    def test_every_form_pair(self, capsys, monkeypatch, source, target):
        monkeypatch.setattr("sys.stdin", io.StringIO(FIG1_TEXTS[source]))
        code, out, _ = run(capsys, "convert", "--from", source, "--to", target)
        assert (code, out) == (0, FIG1_TEXTS[target])


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
    # The census is computed on every call: `--cache-dir` and $GOG_CACHE_DIR
    # are accepted, and nothing is read or written there or in the cwd.

    def test_output_and_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        code, out, err = run(capsys, "census", "--n", "3", "--cache-dir", str(cache))
        assert (code, err) == (0, "")
        assert out == "MTCENSUS v1 n=3 total=7\n4 4\n5 1\n6 1\n7 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GOG_CACHE_DIR", str(tmp_path / "env"))
        code, out, _ = run(capsys, "census", "--n", "2")
        assert (code, out) == (0, "MTCENSUS v1 n=2 total=2\n2 1\n3 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_truncated_cache_is_rebuilt(self, capsys, tmp_path):
        # A stale or corrupt file where the cache was is neither read nor
        # modified, and nothing reaches stderr.
        _, census5, _ = run(capsys, "census", "--n", "5")
        expected = {"5": census5, "3": "MTCENSUS v1 n=3 total=7\n4 4\n5 1\n6 1\n7 1\n"}
        stale = {"mtcensus-n5.txt": census5[: len(census5) // 2], "mtcensus-n3.txt": "5\n"}
        for name, text in stale.items():
            (tmp_path / name).write_text(text)
        for n, out in expected.items():
            argv = ["census", "--n", n, "--cache-dir", str(tmp_path)]
            done = cold(argv, capture_output=True, text=True, cwd=tmp_path)
            assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
        assert {path.name: path.read_text() for path in tmp_path.iterdir()} == stale

    def test_reread_equals_cached(self, capsys, tmp_path):
        _, first, _ = run(capsys, "census", "--n", "4", "--cache-dir", str(tmp_path))
        _, second, _ = run(capsys, "census", "--n", "4", "--cache-dir", str(tmp_path))
        assert first == second

    def test_past_the_limit_names_its_knob(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "--n", "19", "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == (
            "error: census limit is 18, got n=19; raise `limit` (default CENSUS_LIMIT_DEFAULT = 18)\n"
        )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, extra, env, expected",
    [
        (
            ("enumerate", "--n", "4"), ("--workers", "2"), {},
            lambda universe: triangles_to_text(universe(4)),
        ),
        (("census", "--n", "5"), ("--workers", "2"), {}, None),
        (("pmin", "--n", "7", "--r", "2", "--json"), ("--workers", "2"), {}, None),
        (("theorem1", "--r", "2", "--n-max", "10"), ("--workers", "2"), {}, None),
        (("theorem2", "--r", "3", "--n-max", "8"), ("--workers", "2"), {}, None),
        (("census", "--n", "5"), ("--cache-dir", "cache"), {}, None),
        (("census", "--n", "5"), (), {"GOG_CACHE_DIR": "cache"}, None),
    ],
    ids=[
        "enumerate-workers", "census-workers", "pmin-workers", "theorem1-workers",
        "theorem2-workers", "census-cache-dir", "census-env-cache-dir",
    ],
)
def test_flag_with_no_effect_keeps_stdout(
    capsys, tmp_path, monkeypatch, universe, argv, extra, env, expected
):
    # `--workers`, `--cache-dir` and $GOG_CACHE_DIR are accepted for good and
    # change nothing: the same stdout, no stderr, no file written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GOG_CACHE_DIR", raising=False)
    _, plain, _ = run(capsys, *argv)
    if expected is not None:
        assert plain == expected(universe)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run(capsys, *argv, *extra) == (0, plain, "")
    assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("n", [60, 100])
    def test_decimal_below_float_range(self, capsys, n):
        # p_min is far below the least double here; the decimal stays exact to 12 digits
        _, out, _ = run(capsys, "pmin", "--n", str(n), "--r", "2", "--json")
        printed = Fraction(json.loads(out)["p_min_decimal"])
        exact = Fraction(n_min_exact(n, 2), asm_number(n) ** 2)
        assert abs(printed - exact) <= Fraction(1, 10**11) * exact


@pytest.mark.parametrize(
    "argv",
    [
        ("pmin", "--n", "60", "--r", "2", "--json"),
        ("theorem1", "--r", "2", "--n-max", "60"),
        ("theorem2", "--r", "2", "--n-max", "100"),
    ],
    ids=["pmin", "theorem1", "theorem2"],
)
def test_prints_past_the_int_str_digit_cap(argv):
    # A(60)^2 has 818 digits and N_min(100, 2) 1137: a cap of 640 must not
    # change what is printed.
    outputs = []
    for flags in ((), ("-X", "int_max_str_digits=640")):
        done = cold(argv, flags=flags, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert max(map(len, outputs[0].split())) > 640


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

    def test_frozen_tables(self, capsys):
        # Every (n, r) with r (n - 1) <= 16 (and r <= 4 at n = 1), as the
        # command printed them when it read v back out of each label.
        pairs = [(n, r) for n in range(1, 8) for r in range(1, 5 if n == 1 else 16 // (n - 1) + 1)]
        outs = []
        for n, r in pairs:
            code, out, err = run(capsys, "classes", "--n", str(n), "--r", str(r))
            assert (code, err) == (0, "")
            outs.append(out)
        digest = hashlib.sha256("".join(outs).encode()).hexdigest()
        assert len(pairs) == 42
        assert digest == "c23d83d7cd6ef45b382561318bfd946330223a4b76fcd5db5de7a5a651000b5f"

    def test_past_the_former_tuple_cap(self, capsys):
        # r(n-1) = 24 was refused while the sizes were summed over key tuples
        code, out, err = run(capsys, "classes", "--n", "7", "--r", "4")
        assert (code, err) == (0, "")
        a = asm_number(7)
        assert out.splitlines()[1].startswith(f"C_7\t{a**4 - (a - 1) ** 4}\t")


class TestSample:
    def test_seed_determinism(self, capsys):
        _, a, _ = run(capsys, "sample", "--n", "4", "--count", "5", "--seed", "42")
        _, b, _ = run(capsys, "sample", "--n", "4", "--count", "5", "--seed", "42")
        assert a == b

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "4", "--count", "5"])
        assert exc.value.code == 2

    def test_count_is_bounded(self, capsys):
        code, out, err = run(capsys, "sample", "--n", "4", "--count", "100001", "--seed", "1")
        assert (code, out) == (1, "")
        assert "raise `count_limit` (default SAMPLE_LIMIT_DEFAULT = 100000)" in err


class TestVerifyCommand:
    def test_bijections(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijections", "--n-max", "4")
        assert code == 0
        assert out.startswith("OK bijections checks=")

    def test_lemmas(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--n-max", "10")
        assert code == 0
        assert out.startswith("OK lemmas checks=")

    def test_failure_after_passing_suites(self, capsys, monkeypatch):
        streamed = []

        def counterexample(n_max):
            streamed.append(capsys.readouterr().out)
            raise VerificationFailure("lemmas: margin < 0 at n=3")

        def unreachable(n_max):
            raise AssertionError("a suite ran after the failure")

        monkeypatch.setattr(verify, "SUITES", {
            "bijections": lambda n_max: 2,
            "lattice": lambda n_max: n_max,
            "lemmas": counterexample,
            "census": unreachable,
            "theorems": unreachable,
        })
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "5")
        assert code == 1
        assert streamed == ["OK bijections checks=2\nOK lattice checks=5\n"]
        assert out == "FAIL lemmas: lemmas: margin < 0 at n=3\n"

    def test_any_domain_error_fails_the_suite(self, capsys, monkeypatch):
        def too_big(n_max):
            raise LimitExceeded(f"enumeration limit is 7, got n={n_max}")

        monkeypatch.setitem(verify.SUITES, "census", too_big)
        code, out, _ = run(capsys, "verify", "--suite", "census", "--n-max", "9")
        assert (code, out) == (1, "FAIL census: enumeration limit is 7, got n=9\n")


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

    def test_index_extension_module_loads_lazily(self):
        # `array` is imported when a successor index is built, not on import.
        code = "import sys, goglattice.cli; print('array' in sys.modules)"
        src = str(Path(goglattice.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out == "False\n"

    def _package_modules(self, code, stdin=""):
        # The `goglattice` modules a cold interpreter holds after `code`, which
        # prints nothing to stderr.
        code += "; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'goglattice'), file=sys.stderr)"
        src = str(Path(goglattice.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        return {name.removeprefix("goglattice.") for name in done.stderr.split()}

    def _modules_after_main(self, *argv, stdin=""):
        return self._package_modules(
            f"import sys; from goglattice.cli import main; main({list(argv)!r})", stdin
        )

    def test_bare_import_loads_no_submodule(self):
        assert self._package_modules("import sys, goglattice") == {"goglattice"}

    def test_asm_count_loads_only_counting(self):
        loaded = self._modules_after_main("asm-count", "--n", "12")
        assert loaded == {"goglattice", "cli", "errors", "counting"}

    def test_asm_count_loads_no_dataclasses(self):
        code = "import sys; from goglattice.cli import main; main(['asm-count', '--n', '12']); print('dataclasses' in sys.modules)"
        src = str(Path(goglattice.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.splitlines() == ["12611311859677500", "False"]

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("meet",), FIG1_TRIANGLE_TEXT),
            (("join",), FIG1_TRIANGLE_TEXT),
            (("convert", "--from", "triangle", "--to", "asm"), FIG1_TRIANGLE_TEXT),
            (("convert", "--from", "asm", "--to", "column-sum"), FIG1_ASM_TEXT),
        ],
    )
    def test_meet_and_convert_skip_the_census_modules(self, argv, stdin):
        loaded = self._modules_after_main(*argv, stdin=stdin)
        assert "triangles" in loaded
        assert not loaded & {"enumeration", "meet_census", "verify"}

    @pytest.mark.parametrize(
        "argv",
        [("pmin", "--n", "6", "--r", "2", "--json"), ("theorem2", "--r", "3", "--n-max", "8")],
    )
    def test_trivial_meet_commands_skip_enumeration(self, argv):
        loaded = self._modules_after_main(*argv)
        assert "meet_census" in loaded
        assert not loaded & {"enumeration", "lattice", "triangles", "verify"}

    def test_census_loads_only_the_gap_products(self, tmp_path):
        argv = ["census", "--n", "6", "--cache-dir", str(tmp_path)]
        loaded = self._modules_after_main(*argv)
        assert loaded == {"goglattice", "cli", "errors", "counting", "census"}
        # nor the exact-fraction modules, which only the reports use
        code = (
            f"import sys; from goglattice.cli import main; main({argv!r}); "
            "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules), file=sys.stderr)"
        )
        src = str(Path(goglattice.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stderr == "[]\n"

    # The other cold commands of the benchmark (`asm-count --n 100` and
    # `census` are pinned above), and `convert` from a matrix form: a command
    # on triangles alone loads no `matrices`, `census` or `meet_census`, and
    # the sweep commands no `census`, `triangles`, `matrices` or `enumeration`.
    @pytest.mark.parametrize(
        "argv, stdin, modules",
        [
            (("asm-count", "--n", "9", "--method", "dp"), "", {"counting", "triangles"}),
            (("convert", "--from", "triangle", "--to", "asm"), FIG1_TRIANGLE_TEXT, {"triangles", "matrices"}),
            (("convert", "--from", "asm", "--to", "triangle"), FIG1_ASM_TEXT, {"triangles", "matrices"}),
            (("convert", "--from", "triangle", "--to", "triangle"), FIG1_TRIANGLE_TEXT, {"triangles"}),
            (("meet",), FIG1_TRIANGLE_TEXT, {"triangles", "lattice"}),
            (("pmin", "--n", "14", "--r", "2", "--json"), "", {"counting", "meet_census", "_transfer"}),
            (
                ("sample", "--n", "10", "--count", "50", "--seed", "3142267078"), "",
                {"counting", "enumeration", "triangles"},
            ),
            (("theorem2", "--r", "3", "--n-max", "12"), "", {"counting", "meet_census", "_transfer"}),
        ],
        ids=[
            "asm-count-dp", "convert", "convert-from-asm", "convert-triangles-only", "meet",
            "pmin", "sample", "theorem2",
        ],
    )
    def test_cold_commands_load_exactly_their_modules(self, argv, stdin, modules):
        loaded = self._modules_after_main(*argv, stdin=stdin)
        assert loaded == {"goglattice", "cli", "errors", *modules}

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("asm-count", "--n", "100"), ""),
            (("asm-count", "--n", "9", "--method", "dp"), ""),
            (("census", "--n", "6", "--cache-dir", "{cache}"), ""),  # a miss, then a hit
            (("census", "--n", "6", "--cache-dir", "{cache}"), ""),
            (("convert", "--from", "triangle", "--to", "asm"), FIG1_TRIANGLE_TEXT),
            (("meet",), FIG1_TRIANGLE_TEXT),
            (("pmin", "--n", "14", "--r", "2", "--json"), ""),
            (("sample", "--n", "10", "--count", "50", "--seed", "3142267078"), ""),
            (("theorem2", "--r", "3", "--n-max", "12"), ""),
        ],
        ids=[
            "asm-count-100", "asm-count-dp", "census-miss", "census-hit", "convert", "meet",
            "pmin", "sample", "theorem2",
        ],
    )
    def test_commands_load_no_dataclasses(self, argv, stdin, tmp_path_factory):
        cache = str(tmp_path_factory.getbasetemp() / "census-cache")
        argv = [arg.replace("{cache}", cache) for arg in argv]
        code = (
            "import sys; from goglattice.cli import main; "
            f"main({argv!r}); print('dataclasses' in sys.modules, file=sys.stderr)"
        )
        src = str(Path(goglattice.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (0, "False\n")

    def test_no_module_imports_dataclasses(self):
        import ast

        package = Path(goglattice.__file__).resolve().parent
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                assert "dataclasses" not in names, path.name

    def test_census_help_names_the_cache_variable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--cache-dir CACHE_DIR accepted; has no effect" in out
        assert "$GOG_CACHE_DIR is ignored" in out


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

    @pytest.mark.parametrize(
        "argv, usage, message",
        [
            (
                ("asm-count", "--n", "-1"), "asm-count [-h] --n N [--method {formula,dp}]",
                "argument --n: expected a nonnegative integer, got '-1'",
            ),
            (
                ("enumerate", "--n", "0"), "enumerate [-h] --n N [--workers WORKERS]",
                "argument --n: expected a positive integer, got '0'",
            ),
            (
                ("enumerate", "--n", "x"), "enumerate [-h] --n N [--workers WORKERS]",
                "argument --n: invalid integer 'x'",
            ),
            (
                ("sample", "--n", "3", "--count", "1", "--seed", str(2**64)),
                "sample [-h] --n N --count COUNT --seed SEED",
                "argument --seed: seed '18446744073709551616' does not fit in 64 bits",
            ),
            (
                ("sample", "--n", "3", "--count", "1", "--seed", str(-(2**63) - 1)),
                "sample [-h] --n N --count COUNT --seed SEED",
                "argument --seed: seed '-9223372036854775809' does not fit in 64 bits",
            ),
        ],
        ids=["asm-count-negative", "enumerate-zero", "enumerate-not-int", "seed-high", "seed-low"],
    )
    def test_integer_argument_rejected(self, capsys, argv, usage, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        name = argv[0]
        assert capsys.readouterr() == ("", f"usage: gog {usage}\ngog {name}: error: {message}\n")


class TestInputOutputErrors:
    def test_missing_input_is_domain_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "meet", "--input", str(tmp_path / "missing"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [("asm-count", "--n", "100"), ("enumerate", "--n", "6")], ids=["asm-count", "enumerate"]
    )
    def test_closed_pipe_leaves_no_traceback(self, argv):
        # The reader is gone before anything is written.  asm-count's output
        # waits in the buffer until the command returns; enumerate's
        # overflows the buffer while the command runs.
        read, write = os.pipe()
        os.close(read)
        try:
            done = cold(argv, stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")


class TestProcessEntry:
    """`run`, which ends a cold `gog` process with `os._exit` once its output
    is flushed, against `main` called in process."""

    @pytest.mark.parametrize("n", ["4", "6"])
    def test_stream_arrives_whole(self, capsys, n):
        # n = 4's 881 bytes wait in the buffer to the end; n = 6 writes
        # chunks of 44 KB, each larger than the buffer.
        assert main(["enumerate", "--n", n]) == 0
        expected = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        done = cold(("enumerate", "--n", n), capture_output=True)
        assert done.returncode == 0
        assert hashlib.sha256(done.stdout).hexdigest() == expected

    @pytest.mark.parametrize(
        "argv, status",
        [(("--help",), 0), (("asm-count",), 2), (("enumerate", "--n", "8"), 1)],
        ids=["help", "usage-error", "domain-error"],
    )
    def test_status_and_streams_match_main(self, capsys, monkeypatch, argv, status):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        done = cold(argv, capture_output=True, text=True)
        assert (code, done.returncode, done.stdout, done.stderr) == (status, status, out, err)

    def test_script_target_is_the_main_block_entry(self):
        root = Path(cli.__file__).resolve().parents[2]
        target = re.search(r'^gog = "(.+)"$', (root / "pyproject.toml").read_text(), re.M).group(1)
        (block,) = [
            node for node in ast.parse(Path(cli.__file__).read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        (statement,) = block.body
        assert target == f"goglattice.cli:{ast.unparse(statement.value.func)}" == "goglattice.cli:run"

    def test_exits_it_cannot_end_leave_through_the_interpreter(self, monkeypatch):
        class Unflushable:
            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        def exit_now(status):
            raise AssertionError(f"os._exit({status})")

        monkeypatch.setattr(os, "_exit", exit_now)
        monkeypatch.setattr(sys, "argv", ["gog", "--help"])
        monkeypatch.setattr(sys, "stdout", Unflushable())
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0

        def leave(argv=None):
            raise SystemExit("stopped")

        monkeypatch.setattr(cli, "main", leave)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == "stopped"


class TestVerifySuitesRun:
    @pytest.mark.parametrize("suite", ["bijections", "lattice", "census", "theorems"])
    def test_suites_pass_at_small_sizes(self, suite):
        from goglattice.verify import SUITES

        assert SUITES[suite](4) > 0

    def test_lemmas_stop_at_their_cap(self):
        from goglattice.verify import LEMMAS_N_MAX, verify_lemmas

        start = time.perf_counter()
        assert verify_lemmas(10**6) == verify_lemmas(LEMMAS_N_MAX)
        assert time.perf_counter() - start < 10
