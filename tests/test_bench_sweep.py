"""scripts/bench_sweep.py and scripts/bench_index.py on tiny sets of cases."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMED = {"peak_rss_mib", "reference_s"}  # summarized in every row beside the case's own timings


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


# Prints the child's bytecode settings and what its cache directory holds
# once the package is imported.
BYTECODE_CHILD = """
import json, os, sys
import goglattice.enumeration
prefix = sys.pycache_prefix
print(json.dumps({"dont_write": sys.flags.dont_write_bytecode, "prefix": prefix, "held": os.listdir(prefix)}))
"""


def test_child_compiles_from_source(monkeypatch):
    script = load("bench_sweep", monkeypatch)
    row = script._child(BYTECODE_CHILD, (), False)
    assert row["dont_write"] == 1
    assert row["held"] == []
    assert not Path(row["prefix"]).exists()  # a fresh directory per child, removed after it
