"""Time `n_min_exact` at the sweep's gate set and write BENCH_sweep.json.

Each case (n, r) runs in RUNS fresh interpreters, taken round-robin: run
i of every case before run i + 1 of any, so that a machine that drifts
between passes moves every case alike.  A run times a first call, which
builds the program for r and fills A(n) and P(n), then a repeat.  One
more fresh interpreter per case traces allocations with `tracemalloc`
through both calls and records the memory they keep: the program, its
kernels and the caches of A and P.  Run from the repository root:

    python scripts/bench_sweep.py [--runs RUNS] [--case N,R ...] [--output PATH]

The cases default to GATES with RUNS = 10, about a minute on 2 vCPUs, and
PATH to BENCH_sweep.json.  The file records the interpreter, the platform
and the CPU count, and for each case the samples of every timing and RSS
with their minimum, median and maximum.

`measure` is the runner of this script and of `bench_index.py`,
`bench_enumerate.py` and `bench_cli.py`.  Every interpreter it starts
imports one copy of the checkout's `src/goglattice`, made without
`__pycache__` once per script run, and writes no bytecode, so it compiles
the package from source while the standard library loads from its own
cache, as it does for a user.  A run records the interpreter's wall time
from spawn to exit (`wall_s`) and its peak RSS, read with `wait4`
(`peak_rss_mib`).  Times are raw wall clock, and a shared machine's speed
drifts between passes far more than two trees differ, so each run also
times a fixed reference kernel that does not touch the package, just
before and just after the interpreter, and records the mean
(`reference_s`): two passes compare by their times over their reference
times, or by alternating their runs.  Uses only the standard library;
`os.wait4` makes it Unix-only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_sweep.json"
# The gates of the sweep (tests/data/sweep_digests.json): the largest n the
# transfer limit admits for r = 2..6; for n = 2..6, the largest r admitted
# when the limit counted 25,000 states; and the corners n = 1 and r = 1.
GATES = [
    (223, 2), (90, 3), (47, 4), (30, 5), (22, 6), (3, 222),
    (2, 24999), (4, 51), (5, 25), (6, 16), (1, 5), (30, 1),
]
RUNS = 10

# argv: n, r, traced.
CHILD = """
import sys
from goglattice.meet_census import n_min_exact
n, r = map(int, sys.argv[1:3])
def call():
    n_min_exact(n, r)
calls = {"first_s": call, "repeat_s": call}
"""

# Appended to every CHILD, which sets up its case and defines `calls`, an
# ordered map from each timing key to a zero-argument callable; the last
# argument is the traced flag (0 or 1).  Prints one JSON object: the time
# of each call, in order, or when traced the memory kept after them all.
TAIL = """
import gc, json, sys, time
if int(sys.argv[-1]):
    import tracemalloc
    # Empties the free lists, so that every object the calls keep is
    # allocated, and counted, after tracing starts.
    gc.collect()
    tracemalloc.start()
    for call in calls.values():
        call()
    gc.collect()
    print(json.dumps({"kept_mib": tracemalloc.get_traced_memory()[0] / 2**20}))
else:
    times = {}
    for key, call in calls.items():
        start = time.perf_counter()
        call()
        times[key] = time.perf_counter() - start
    print(json.dumps(times))
"""

# argv: report path, then the command.  Runs the command on this process's
# stdin, stdout and stderr, writes "<wall s> <max RSS KiB> <reference s>"
# to the report and exits with the command's status.  A process's max RSS
# starts from its parent's RSS when it is spawned, so this launcher runs
# with -S and only builtin modules, below any command, and the figure it
# reports is the command's own.  The reference is the mean of two timings,
# each the median of five runs of a fixed kernel (the one of
# perfbench/run.py): one taken just before the command starts and one just
# after it exits, as perfbench/run.py scales its setup times.
LAUNCH = """
import gc, os, sys, time
def kernel():
    started = time.perf_counter()
    table = {}
    for i in range(20_000):
        key = (i & 255, (i >> 8) & 15)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - started
def reference():
    return sorted(kernel() for _ in range(5))[2]
gc.disable()
report, argv = sys.argv[1], sys.argv[2:]
before = reference()
started = time.perf_counter()
_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ), 0)
wall = time.perf_counter() - started
kib = usage.ru_maxrss // 1024 if sys.platform == "darwin" else usage.ru_maxrss
with open(report, "w") as out:
    out.write(f"{wall!r} {kib} {(before + reference()) / 2!r}")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run(argv: list[str], src: Path, label: object, stdin: bytes = b"") -> tuple[bytes, dict]:
    """Run `python ARGV` once through LAUNCH, on `stdin`, importing the
    package from `src` and writing no bytecode, in a fresh temporary working
    directory.  Returns its stdout and its wall time, peak RSS and reference
    time.  A failing run raises RuntimeError naming `label`, with the
    run's stderr."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCH, "report", sys.executable, *argv],
            input=stdin, capture_output=True, env=env, cwd=tmp,
        )
        if done.returncode:
            raise RuntimeError(f"{label}: exit status {done.returncode}\n{done.stderr.decode(errors='replace')}")
        wall, kib, reference = (Path(tmp) / "report").read_text().split()
    return done.stdout, {"wall_s": float(wall), "peak_rss_mib": int(kib) / 1024, "reference_s": float(reference)}


def child(code: str) -> Callable[[Path, tuple, bool], dict]:
    """The sample of a CHILD `code` for `measure`: runs `code` with TAIL
    appended, the case's items and the traced flag as arguments, and
    returns the JSON object it prints beside the run's figures."""
    def sample(src: Path, case: tuple, traced: bool) -> dict:
        out, figures = run(["-c", code + TAIL, *map(str, case), str(int(traced))], src, case)
        return {**json.loads(out), **figures}
    return sample


def _summary(samples: list[float]) -> dict:
    return {
        "min": min(samples), "median": statistics.median(samples), "max": max(samples),
        "samples": samples,
    }


def measure(cases: list, runs: int, sample: Callable[[Path, object, bool], dict], traced: bool = True) -> list[dict]:
    """One row per case.  `sample(src, case, traced)` runs the case once in
    a fresh interpreter through `run`, with `src` the directory holding the
    package's copy, and returns its figures: timings, or when traced the
    memory kept as `kept_mib`.  Each case runs in `runs` timed
    interpreters, round-robin, so that run i of every case comes before run
    i + 1 of any; then, if `traced`, in one traced interpreter.  A row
    summarizes each figure of the timed runs and holds the kept memory."""
    timed: list[list[dict]] = [[] for _ in cases]
    with tempfile.TemporaryDirectory() as src:
        package = ROOT / "src" / "goglattice"
        shutil.copytree(package, Path(src) / package.name, ignore=shutil.ignore_patterns("__pycache__"))
        for _ in range(runs):
            for samples, case in zip(timed, cases):
                samples.append(sample(src, case, False))
        rows = [{key: _summary([figures[key] for figures in samples]) for key in samples[0]} for samples in timed]
        if traced:
            for row, case in zip(rows, cases):
                row["kept_mib"] = sample(src, case, True)["kept_mib"]
    return rows


def write_report(path: Path, bench: str, call: str, runs: int, cases: list[dict]) -> None:
    """Write the cases' rows to `path` under the interpreter, the platform
    and the CPU count."""
    report = {
        "bench": bench,
        "call": call,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "runs": runs,
        "cases": cases,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")


def show(labels: list[str], rows: list[dict]) -> None:
    """Print each row's medians on one line after its label."""
    for label, row in zip(labels, rows):
        times = "".join(f"\t{key[:-2]} {row[key]['median']:.4f} s" for key in row if key.endswith("_s") and key != "reference_s")
        kept = f"\tkept {row['kept_mib']:.3f} MiB" if "kept_mib" in row else ""
        rss, reference = row["peak_rss_mib"]["median"], row["reference_s"]["median"]
        print(f"{label}{times}\tpeak RSS {rss:.1f} MiB{kept}\treference {reference * 1e3:.2f} ms")


def _case(text: str) -> tuple[int, int]:
    n, r = map(int, text.split(","))
    return n, r


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--case", type=_case, action="append", dest="cases", metavar="N,R")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs needs at least 1, got {args.runs}")
    cases = args.cases or GATES
    rows = [{"n": n, "r": r, **row} for (n, r), row in zip(cases, measure(cases, args.runs, child(CHILD)))]
    call = "n_min_exact(n, r) in a fresh interpreter: a first call, then a repeat"
    write_report(args.output, "sweep", call, args.runs, rows)
    show([f"({n}, {r})" for n, r in cases], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
