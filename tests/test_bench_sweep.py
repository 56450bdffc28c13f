"""The bench scripts under scripts/ on tiny sets of cases."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMED = {"wall_s", "peak_rss_mib", "reference_s"}  # summarized in every row beside the case's own timings


def load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # bench_index imports bench_sweep
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def check_rows(report, bench, runs, labels, timings):
    assert set(report) == {"bench", "call", "python", "platform", "cpus", "runs", "cases"}
    assert (report["bench"], report["runs"]) == (bench, runs)
    assert len(report["cases"]) == len(timings)
    for row, label, keys in zip(report["cases"], labels, timings):
        assert {key: row[key] for key in label} == label
        assert set(row) == set(label) | keys | TIMED | {"kept_mib"}
        for key in keys | TIMED:
            summary = row[key]
            assert set(summary) == {"min", "median", "max", "samples"}
            assert len(summary["samples"]) == runs
            assert 0 < summary["min"] <= summary["median"] <= summary["max"]
        assert row["kept_mib"] > 0


def test_writes_one_row_per_case(tmp_path, capsys, monkeypatch):
    script = load("bench_sweep", monkeypatch)
    output = tmp_path / "BENCH_sweep.json"
    assert script.main(["--runs", "2", "--case", "3,2", "--case", "4,3", "--output", str(output)]) == 0
    timings = [{"first_s", "repeat_s"}] * 2
    check_rows(json.loads(output.read_text()), "sweep", 2, [{"n": 3, "r": 2}, {"n": 4, "r": 3}], timings)
    assert capsys.readouterr().out.splitlines()[0].startswith("(3, 2)\tfirst ")


def test_index_writes_one_row_per_case(tmp_path, capsys, monkeypatch):
    script = load("bench_index", monkeypatch)
    output = tmp_path / "BENCH_index.json"
    cases = ["--case", "index", "--case", "round-trip", "--case", "rank", "--case", "tuple"]
    argv = ["--n", "5", "--runs", "2", *cases, "--output", str(output)]
    assert script.main(argv) == 0
    labels = [{"case": "index"}, {"case": "round-trip"}, {"case": "rank"}, {"case": "tuple"}]
    report = json.loads(output.read_text())
    timed = [{"first_s"}] + [{"first_s", "repeat_s"}] * 3
    check_rows(report, "index", 2, labels, timed)
    assert "at n = 5 " in report["call"]
    assert capsys.readouterr().out.splitlines()[1].startswith("round-trip\tfirst ")


def test_enumerate_writes_one_row_per_case(tmp_path, capsys, monkeypatch):
    script = load("bench_enumerate", monkeypatch)
    output = tmp_path / "BENCH_enumerate.json"
    argv = ["--n", "3", "--n", "4", "--runs", "2", "--case", "text", "--output", str(output)]
    assert script.main(argv) == 0
    labels = [{"case": "text", "n": 3}, {"case": "text", "n": 4}]
    check_rows(json.loads(output.read_text()), "enumerate", 2, labels, [{"first_s", "repeat_s"}] * 2)
    assert capsys.readouterr().out.splitlines()[1].startswith("text n=4\tfirst ")


def test_cli_writes_one_row_per_command(tmp_path, capsys, monkeypatch):
    script = load("bench_cli", monkeypatch)
    output = tmp_path / "BENCH_cli.json"
    assert script.main(["--runs", "1", "--group", "asm-count-100", "--output", str(output)]) == 0
    report = json.loads(output.read_text())
    assert set(report) == {"bench", "call", "python", "platform", "cpus", "runs", "cases"}
    assert (report["bench"], report["runs"]) == ("cli", 1)
    labels = [
        {"group": "reference", "index": 0, "argv": ["-c", "pass"]},
        {"group": "asm-count-100", "index": 0, "argv": ["-m", "goglattice.cli", "asm-count", "--n", "100"]},
    ]
    assert [{key: row.pop(key) for key in label} for row, label in zip(report["cases"], labels)] == labels
    for row in report["cases"]:
        assert set(row) == TIMED
        for summary in row.values():
            assert summary["samples"] == [summary["min"]] == [summary["median"]] == [summary["max"]]
            assert summary["min"] > 0
    assert capsys.readouterr().out.splitlines()[1].startswith("asm-count-100#0\twall ")


def test_failing_child_names_its_case(monkeypatch):
    script = load("bench_sweep", monkeypatch)
    with pytest.raises(RuntimeError) as failed:
        script.measure([("index", 5)], 1, script.child('import sys\nsys.exit("boom")\n'))
    assert "boom" in str(failed.value)
    assert "('index', 5)" in str(failed.value)


# Prints the child's bytecode settings and where it imported the package
# from.
BYTECODE_CHILD = """
import json, os, sys
import goglattice.enumeration
package = os.path.dirname(goglattice.__file__)
cached = os.path.exists(os.path.join(package, "__pycache__"))
print(json.dumps({"prefix": sys.pycache_prefix, "dont_write": sys.flags.dont_write_bytecode, "package": package, "cached": cached}))
"""


def test_child_compiles_from_source(tmp_path, monkeypatch):
    script = load("bench_sweep", monkeypatch)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    printed = []

    def sample(src, case, traced):
        out, figures = script.run(["-c", BYTECODE_CHILD], src, case)
        printed.append(json.loads(out))
        return figures

    script.measure([()], 1, sample, traced=False)
    [row] = printed
    assert row["prefix"] is None  # the standard library loads from its own cache
    assert row["dont_write"] == 1
    package = Path(row["package"])
    assert ROOT not in package.parents
    assert not row["cached"]
    assert not package.exists()  # the copy is removed after the script's runs
