"""Time cold `gog` processes and write BENCH_cli.json.

The commands are those of the cli-cold pool in perfbench/data/expected.json,
read and never written: each runs as `python -m goglattice.cli ARG...` with
its stdin, and its stdout is checked against the pool's frozen sha256.  A
bare `python -c pass` runs beside them as the reference, the interpreter's
own start and exit.  Each command runs in RUNS fresh processes, taken
round-robin as the runner of `bench_sweep.py` takes its cases.  Every
process compiles the package from source: it imports a copy of
`src/goglattice` made without `__pycache__`, and writes no bytecode.  The
standard library loads from its own cache, as it does for a user; an empty
PYTHONPYCACHEPREFIX, as that runner's children have, would compile it too,
and `python -c pass` would take 190-280 ms in place of about 40.  A row
records the command's wall time from spawn to exit and its peak RSS, read
with `wait4`.  Run from the repository root:

    python scripts/bench_cli.py [--runs RUNS] [--group NAME ...] [--output PATH]

The groups default to the whole pool with RUNS = 10, about 20 s on 2
vCPUs, and PATH to BENCH_cli.json.  The file has the layout of
BENCH_sweep.json, with the command's group, index in its group and argv
in place of (n, r), and no reference kernel or kept memory: the reference
is the `python -c pass` row.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_sweep import ROOT, _summary, write_report

OUTPUT = ROOT / "BENCH_cli.json"
POOL = ROOT / "perfbench" / "data" / "expected.json"
REFERENCE = {"group": "reference", "index": 0, "argv": ["-c", "pass"], "stdin": None, "sha256": None}
RUNS = 10

# argv: report path, then the command.  Runs the command on this process's
# stdin, stdout and stderr, writes "<wall s> <max RSS KiB>" to the report and
# exits with the command's status.  A process's max RSS starts from its
# parent's RSS when it is spawned, so this launcher runs with -S and only
# builtin modules, below any command, and the figure it reports is the
# command's own.
LAUNCH = """
import os, sys, time
report, argv = sys.argv[1], sys.argv[2:]
started = time.perf_counter()
_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ), 0)
wall = time.perf_counter() - started
with open(report, "w") as out:
    out.write(f"{wall!r} {usage.ru_maxrss // 1024 if sys.platform == 'darwin' else usage.ru_maxrss}")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def commands(pool: dict, groups: list[str]) -> list[dict]:
    """The reference, then each command of the pool's `groups`: its group,
    index, argv after the interpreter, stdin and frozen stdout sha256."""
    rows = [REFERENCE]
    for group in groups:
        for index, spec in enumerate(pool[group]):
            argv = ["-m", "goglattice.cli", *spec["argv"]]
            rows.append({"group": group, "index": index, "argv": argv, "stdin": spec["stdin"], "sha256": spec["sha256"]})
    return rows


def _run(command: dict, src: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        for name in ("PYTHONPYCACHEPREFIX", "GOG_CACHE_DIR"):
            env.pop(name, None)
        report = Path(tmp) / "report"
        argv = [arg.replace("{cache}", str(Path(tmp) / "census")) for arg in command["argv"]]
        done = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCH, str(report), sys.executable, *argv],
            input=(command["stdin"] or "").encode(), capture_output=True, check=True, env=env, cwd=tmp,
        )
        wall, kib = report.read_text().split()
    if command["sha256"] is not None and hashlib.sha256(done.stdout).hexdigest() != command["sha256"]:
        raise RuntimeError(f"{command['group']}#{command['index']}: stdout differs from the frozen output")
    return {"wall_s": float(wall), "peak_rss_mib": int(kib) / 1024}


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
    timed: list[list[dict]] = [[] for _ in cases]
    with tempfile.TemporaryDirectory() as src:
        package = ROOT / "src" / "goglattice"
        shutil.copytree(package, Path(src) / package.name, ignore=shutil.ignore_patterns("__pycache__"))
        for _ in range(args.runs):
            for samples, command in zip(timed, cases):
                samples.append(_run(command, Path(src)))
    rows = [
        {
            **{key: command[key] for key in ("group", "index", "argv")},
            **{key: _summary([sample[key] for sample in samples]) for key in samples[0]},
        }
        for command, samples in zip(cases, timed)
    ]
    call = "one cold process from spawn to exit, compiling the package from source"
    write_report(args.output, "cli", call, args.runs, rows)
    for row in rows:
        print(
            f"{row['group']}#{row['index']}\twall {row['wall_s']['median'] * 1e3:.1f} ms"
            f"\tpeak RSS {row['peak_rss_mib']['median']:.1f} MiB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
