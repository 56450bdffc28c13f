"""scripts/bench_sweep.py on a tiny set of cases."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_writes_one_row_per_case(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_sweep", ROOT / "scripts" / "bench_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    output = tmp_path / "BENCH_sweep.json"
    assert script.main(["--runs", "2", "--case", "3,2", "--case", "4,3", "--output", str(output)]) == 0
    report = json.loads(output.read_text())
    assert set(report) == {"bench", "call", "python", "platform", "cpus", "runs", "cases"}
    assert (report["bench"], report["runs"]) == ("sweep", 2)
    assert [(row["n"], row["r"]) for row in report["cases"]] == [(3, 2), (4, 3)]
    for row in report["cases"]:
        assert set(row) == {"n", "r", "first_s", "repeat_s", "peak_rss_mib", "kept_mib"}
        for key in ("first_s", "repeat_s", "peak_rss_mib"):
            summary = row[key]
            assert set(summary) == {"min", "median", "max", "samples"}
            assert len(summary["samples"]) == 2
            assert 0 < summary["min"] <= summary["median"] <= summary["max"]
        assert row["kept_mib"] > 0
    assert capsys.readouterr().out.splitlines()[0].startswith("(3, 2)\tfirst ")
