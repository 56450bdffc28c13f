"""Time enumeration at sizes n and write BENCH_enumerate.json.

The cases, each at every size n and timed in fresh interpreters by the
round-robin runner of `bench_sweep.py`:

- list: `list(enumerate_triangles(n))`, every triangle built from rows
  whose pairs the walk checked, each pair once per walk;
- text: `triangles_to_text(enumerate_triangles(n))`, the stdout of
  `gog enumerate --n n`.

A run times a first call (`first_s`), which builds the successor index and
fills the verified-pair set, then a repeat, and its peak RSS holds one
call's result.  A case's traced interpreter makes both calls under
`tracemalloc` and drops their results, so `kept_mib` is what enumeration
keeps: the index and the verified pairs.  Run from the repository root:

    python scripts/bench_enumerate.py [--n N ...] [--runs RUNS] [--case NAME ...] [--output PATH]

The sizes default to 5, 6 and 7, where 7 is the default limit of
enumeration, and may be 1 to 7; the cases default to both with RUNS = 10,
about two minutes on 2 vCPUs, and PATH to BENCH_enumerate.json.  The file
has the layout of BENCH_sweep.json, with the case's name and n in place of
(n, r).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_sweep import ROOT, measure, write_report

OUTPUT = ROOT / "BENCH_enumerate.json"
CASES = ["list", "text"]
SIZES = [5, 6, 7]
RUNS = 10

# argv: case, n, traced.  Prints one JSON object.
CHILD = """
import json, sys, time
from goglattice.enumeration import enumerate_triangles
from goglattice.triangles import triangles_to_text
case, n, traced = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
def call():
    if case == "list":
        return list(enumerate_triangles(n))
    return triangles_to_text(enumerate_triangles(n))
if traced:
    import gc, tracemalloc
    tracemalloc.start()
    call()
    call()
    gc.collect()
    print(json.dumps({"kept_mib": tracemalloc.get_traced_memory()[0] / 2**20}))
else:
    times = {}
    for key in ("first_s", "repeat_s"):
        start = time.perf_counter()
        call()
        times[key] = time.perf_counter() - start
    print(json.dumps(times))
"""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, action="append", dest="sizes")
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--case", choices=CASES, action="append", dest="cases")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs needs at least 1, got {args.runs}")
    sizes = args.sizes or SIZES
    if not all(1 <= n <= 7 for n in sizes):
        parser.error(f"--n needs 1 to 7, the default limit of enumeration, got {sizes}")
    cases = [(case, n) for case in args.cases or CASES for n in sizes]
    rows = [{"case": case, "n": n, **row} for (case, n), row in zip(cases, measure(CHILD, cases, args.runs))]
    call = "enumeration at size n in a fresh interpreter: a first call, then a repeat"
    write_report(args.output, "enumerate", call, args.runs, rows)
    for row in rows:
        print(
            f"{row['case']} n={row['n']}\tfirst {row['first_s']['median']:.4f} s"
            f"\trepeat {row['repeat_s']['median']:.4f} s"
            f"\tpeak RSS {row['peak_rss_mib']['median']:.1f} MiB\tkept {row['kept_mib']:.3f} MiB"
            f"\treference {row['reference_s']['median'] * 1e3:.2f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
