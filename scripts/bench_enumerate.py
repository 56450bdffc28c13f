"""Time enumeration at sizes n and write BENCH_enumerate.json.

The cases, each at every size n and timed in fresh interpreters by the
round-robin runner of `bench_sweep.py`:

- list: `list(enumerate_triangles(n))`, every triangle built from edges
  of the successor index that the walk checked, each edge once per index;
- text: `triangles_to_text(enumerate_triangles(n))`, the stdout of
  `gog enumerate --n n`.

A run times a first call (`first_s`), which builds the successor index and
checks and flags each of its edges, then a repeat, which checks none, and
its peak RSS holds one call's result.  A case's traced interpreter makes
both calls under `tracemalloc` and drops their results, so `kept_mib` is
what enumeration keeps: the index and its edge flags.  Run from the
repository root:

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

from bench_sweep import ROOT, child, measure, show, write_report

OUTPUT = ROOT / "BENCH_enumerate.json"
CASES = ["list", "text"]
SIZES = [5, 6, 7]
RUNS = 10

# argv: case, n, traced.
CHILD = """
import sys
from goglattice.enumeration import enumerate_triangles
from goglattice.triangles import triangles_to_text
case, n = sys.argv[1], int(sys.argv[2])
def call():
    if case == "list":
        return list(enumerate_triangles(n))
    return triangles_to_text(enumerate_triangles(n))
calls = {"first_s": call, "repeat_s": call}
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
    rows = [{"case": case, "n": n, **row} for (case, n), row in zip(cases, measure(cases, args.runs, child(CHILD)))]
    call = "enumeration at size n in a fresh interpreter: a first call, then a repeat"
    write_report(args.output, "enumerate", call, args.runs, rows)
    show([f"{case} n={n}" for case, n in cases], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
