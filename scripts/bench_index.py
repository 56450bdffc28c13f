"""Time the successor index at size n and write BENCH_index.json.

The cases, each timed in fresh interpreters by the round-robin runner of
`bench_sweep.py`:

- index: the cold `_index(n)` build (`first_s`), the work of a first
  `completions_count`;
- sample: with the index built, `sample_uniform(n, 1000, 2024)`: a first
  call (`first_s`), which makes room for the index's block marks and fills
  those of the rows it reaches, then a repeat;
- round-trip: with the index built, `rank(unrank(n, k)) == k` for 1000
  fixed k: a first pass, which fills marks likewise, then a repeat;
- rank: `rank(t)` of the 1000 triangles unranked from those k, through an
  index built again after them, so that the first pass fills marks by
  rank alone, then a repeat;
- tuple: with the index built, the query of perfbench's sample workload
  for seeds 0..999: `sample_uniform(n, 3, seed)`, each triangle ranked and
  unranked, and the meet and join of the three: a first pass, which also
  checks the edges its picks take, then a repeat.

A case's traced interpreter starts `tracemalloc` after the untimed index
build, so `kept_mib` is the index for `index`, and the block marks and
edge flags for the others.  Run from the repository root:

    python scripts/bench_index.py [--n N] [--runs RUNS] [--case NAME ...] [--output PATH]

N defaults to 12, the size BENCH_index.json reports, and may be 1 to 16,
the index's cap.  The cases default to all five with RUNS = 10, about
a minute on 2 vCPUs at n = 12, and PATH to BENCH_index.json.  The
file has the layout of BENCH_sweep.json, with the case's name in place of
(n, r), and names n in its `call`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_sweep import ROOT, child, measure, show, write_report

OUTPUT = ROOT / "BENCH_index.json"
CASES = ["index", "sample", "round-trip", "rank", "tuple"]
N = 12
RUNS = 10

# argv: case, n, traced.
CHILD = """
import random, sys
from goglattice.enumeration import _INDEXES, _index, rank, sample_uniform, unrank
from goglattice.lattice import join, meet
case, n = sys.argv[1], int(sys.argv[2])
if case == "index":
    calls = {"first_s": lambda: _index(n)}
else:
    draw = random.Random(2024).randrange
    ks = [draw(_index(n).counts[0]) for _ in range(1000)]
    def sample():
        sample_uniform(n, 1000, 2024, limit=n)
    def round_trip():
        if any(rank(unrank(n, k, limit=n), limit=n) != k for k in ks):
            sys.exit("rank(unrank(n, k)) != k")
    def ranks():
        if [rank(t, limit=n) for t in ts] != ks:
            sys.exit("rank(unrank(n, k)) != k")
    def tuples():
        for seed in range(1000):
            ts = sample_uniform(n, 3, seed, limit=n)
            if [unrank(n, rank(t, limit=n), limit=n) for t in ts] != ts:
                sys.exit("unrank(rank(t)) != t")
            meet(ts), join(ts)
    if case == "rank":
        ts = [unrank(n, k, limit=n) for k in ks]
        del _INDEXES[n]
        _index(n)
    call = {"sample": sample, "round-trip": round_trip, "rank": ranks, "tuple": tuples}[case]
    calls = {"first_s": call, "repeat_s": call}
"""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--case", choices=CASES, action="append", dest="cases")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs needs at least 1, got {args.runs}")
    if not 1 <= args.n <= 16:
        parser.error(f"--n needs 1 to 16, the successor index's cap, got {args.n}")
    cases = args.cases or CASES
    rows = [{"case": case, **row} for case, row in zip(cases, measure([(case, args.n) for case in cases], args.runs, child(CHILD)))]
    call = f"the successor index at n = {args.n} in a fresh interpreter: a first call, then a repeat"
    write_report(args.output, "index", call, args.runs, rows)
    show([row["case"] for row in rows], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
