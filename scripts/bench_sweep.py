"""Time `n_min_exact` at the sweep's gate set and write BENCH_sweep.json.

Each case (n, r) runs in RUNS fresh interpreters, taken round-robin: run
i of every case before run i + 1 of any, so that a machine that drifts
between passes moves every case alike.  A run times a first call, which
builds the program for r and fills A(n) and P(n), then a repeat, and its
peak RSS is read with `wait4`.  One more fresh interpreter
per case traces allocations with `tracemalloc` through a single call and
records the memory the call keeps: the program, its kernels and
the caches of A and P.  Run from the repository root:

    python scripts/bench_sweep.py [--runs RUNS] [--case N,R ...] [--output PATH]

The cases default to GATES with RUNS = 10, about a minute on 2 vCPUs, and
PATH to BENCH_sweep.json.  The package is imported from `src/` of the
checkout holding this script, and every interpreter compiles it from
source, reading and writing no bytecode cache.  The file records the
interpreter, the platform and the CPU count, and for each case the
samples of every timing and RSS with their minimum, median and maximum.
Times are raw wall clock, and a shared machine's speed drifts between
passes far more than two trees differ, so each run also times a fixed
reference kernel that does not touch the package, just before and just
after the interpreter, and records the mean (`reference_s`): two passes
compare by their times over their reference times, or by alternating
their runs.  Uses only the standard library; `os.wait4` makes it
Unix-only.

`measure` is the runner; `bench_index.py` times the successor index with
it, and `bench_enumerate.py` enumeration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
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

# argv: n, r, traced.  Prints one JSON object.
CHILD = """
import json, sys, time
from goglattice.meet_census import n_min_exact
n, r, traced = map(int, sys.argv[1:])
if traced:
    import gc, tracemalloc
    tracemalloc.start()
    n_min_exact(n, r)
    gc.collect()
    print(json.dumps({"kept_mib": tracemalloc.get_traced_memory()[0] / 2**20}))
else:
    start = time.perf_counter()
    n_min_exact(n, r)
    first = time.perf_counter() - start
    start = time.perf_counter()
    n_min_exact(n, r)
    print(json.dumps({"first_s": first, "repeat_s": time.perf_counter() - start}))
"""

# A process's max RSS starts from its parent's RSS when it is spawned, so
# a CHILD is spawned by this launcher, run with -S and only builtin modules,
# which stays below any CHILD.  It prints CHILD's max RSS in KiB after
# CHILD's own line, then the mean of two reference times, each the median
# of five timings of a fixed kernel (the one of perfbench/run.py): one
# taken just before CHILD starts and one just after it exits, as
# perfbench/run.py scales its setup times.
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
before = reference()
argv = [sys.executable, "-c", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
if os.waitstatus_to_exitcode(status):
    sys.exit(1)
print(usage.ru_maxrss // 1024 if sys.platform == "darwin" else usage.ru_maxrss)
print((before + reference()) / 2)
"""


def _child(child: str, case: tuple, traced: bool) -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # The child reads and writes no bytecode cache, the tree's or any other,
    # so every run of every tree compiles the package from source: a
    # `__pycache__` left in one tree moved its peak RSS by over 1 MiB.
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCH, child, *map(str, case), str(int(traced))],
            capture_output=True, text=True, check=True, env=env,
        )
    line, kib, reference = done.stdout.splitlines()
    return {**json.loads(line), "peak_rss_mib": int(kib) / 1024, "reference_s": float(reference)}


def _summary(samples: list[float]) -> dict:
    return {
        "min": min(samples), "median": statistics.median(samples), "max": max(samples),
        "samples": samples,
    }


def measure(child: str, cases: list[tuple], runs: int) -> list[dict]:
    """One row per case for the code `child`, which takes the case's items
    and a traced flag (0 or 1) as arguments and prints one JSON object: its
    timings, or when traced the memory it kept as `kept_mib`.  Each case
    runs in `runs` timed interpreters, round-robin, so that run i of every
    case comes before run i + 1 of any; then in one traced interpreter.  A
    row summarizes each timing, the peak RSS and the reference time, and
    holds the kept memory."""
    timed: list[list[dict]] = [[] for _ in cases]
    for _ in range(runs):
        for samples, case in zip(timed, cases):
            samples.append(_child(child, case, False))
    rows = []
    for samples, case in zip(timed, cases):
        row = {key: _summary([sample[key] for sample in samples]) for key in samples[0]}
        row["kept_mib"] = _child(child, case, True)["kept_mib"]
        rows.append(row)
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
    rows = [{"n": n, "r": r, **row} for (n, r), row in zip(cases, measure(CHILD, cases, args.runs))]
    call = "n_min_exact(n, r) in a fresh interpreter: a first call, then a repeat"
    write_report(args.output, "sweep", call, args.runs, rows)
    for row in rows:
        print(
            f"({row['n']}, {row['r']})\tfirst {row['first_s']['median']:.4f} s"
            f"\trepeat {row['repeat_s']['median']:.4f} s"
            f"\tpeak RSS {row['peak_rss_mib']['median']:.1f} MiB\tkept {row['kept_mib']:.2f} MiB"
            f"\treference {row['reference_s']['median'] * 1e3:.2f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
