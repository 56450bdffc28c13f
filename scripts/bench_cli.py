"""Time cold `gog` processes and write BENCH_cli.json.

The commands are those of the cli-cold pool in perfbench/data/expected.json,
read and never written: each runs as `python -m goglattice.cli ARG...` with
its stdin, and its stdout is checked against the pool's frozen sha256.  A
bare `python -c pass` runs beside them as the reference, the interpreter's
own start and exit.  Each command runs in RUNS fresh processes through the
runner of `bench_sweep.py`, which compiles the package from source.  A row
records the command's wall time from spawn to exit, its peak RSS and the
reference kernel's time.  Run from the repository root:

    python scripts/bench_cli.py [--runs RUNS] [--group NAME ...] [--output PATH]

The groups default to the whole pool with RUNS = 10, about 20 s on 2
vCPUs, and PATH to BENCH_cli.json.  The file has the layout of
BENCH_sweep.json, with the command's group, index in its group and argv
in place of (n, r), and no kept memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from bench_sweep import ROOT, measure, run, show, write_report

OUTPUT = ROOT / "BENCH_cli.json"
POOL = ROOT / "perfbench" / "data" / "expected.json"
REFERENCE = {"group": "reference", "index": 0, "argv": ["-c", "pass"], "stdin": None, "sha256": None}
RUNS = 10


def commands(pool: dict, groups: list[str]) -> list[dict]:
    """The reference, then each command of the pool's `groups`: its group,
    index, argv after the interpreter, stdin and frozen stdout sha256."""
    rows = [REFERENCE]
    for group in groups:
        for index, spec in enumerate(pool[group]):
            argv = ["-m", "goglattice.cli", *spec["argv"]]
            rows.append({"group": group, "index": index, "argv": argv, "stdin": spec["stdin"], "sha256": spec["sha256"]})
    return rows


def _cold(src: Path, command: dict, traced: bool) -> dict:
    # A run's working directory is a fresh temporary one, so `{cache}`
    # becomes an empty directory in it.
    label = f"{command['group']}#{command['index']}"
    argv = [arg.replace("{cache}", "census") for arg in command["argv"]]
    out, figures = run(argv, src, label, (command["stdin"] or "").encode())
    if command["sha256"] is not None and hashlib.sha256(out).hexdigest() != command["sha256"]:
        raise RuntimeError(f"{label}: stdout differs from the frozen output")
    return figures


def main(argv: list[str]) -> int:
    pool = json.loads(POOL.read_text())["cli_cold"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--group", choices=sorted(pool), action="append", dest="groups", metavar="NAME")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs needs at least 1, got {args.runs}")
    cases = commands(pool, args.groups or sorted(pool))
    rows = [
        {**{key: command[key] for key in ("group", "index", "argv")}, **row}
        for command, row in zip(cases, measure(cases, args.runs, _cold, traced=False))
    ]
    call = "one cold process from spawn to exit, compiling the package from source"
    write_report(args.output, "cli", call, args.runs, rows)
    show([f"{row['group']}#{row['index']}" for row in rows], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
