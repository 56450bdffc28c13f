"""Run the benchmark on seeds 1-10 and summarise the spread of each metric.

    python3 perfbench/repeat.py [--record]

Runs `run.py` once per (workload, seed) for every workload in
`BENCHMARK.json`, one run at a time, with its run length, and prints for
every end-to-end metric the median of the runs and the quartile spread,
(q3 - q1) / median, next to the metric's bound; for the scaled metrics it
prints the same for the raw values of the `raw {...}` line.  `--record`
appends the medians and spreads, raw and scaled, with provenance, to
`trajectory.json` as one point of the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = list(range(1, 11))


def median_and_spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    summary = {}
    provenance = None
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raws: dict[str, list[float]] = {}
        for seed in SEEDS:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            lines = subprocess.run(command, capture_output=True, text=True, check=True, cwd=ROOT).stdout.splitlines()
            provenance = json.loads(lines[0].split(" ", 1)[1])
            raw = json.loads(lines[-2].split(" ", 1)[1])
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in raw.items():
                raws.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items())
                  + " | raw " + " ".join(f"{n}={v:.5g}" for n, v in raw.items()))
        summary[workload] = {}
        for name, bound in bounds.items():
            row = median_and_spread(values[name])
            if name in raws:
                row.update({f"raw_{k}": v for k, v in median_and_spread(raws[name]).items()})
            summary[workload][name] = row
            flag = "" if row["spread"] < bound / 3 else "  <-- above a third of the bound"
            unscaled = f"  raw spread {row['raw_spread']:.4f}" if "raw_spread" in row else ""
            print(f"{workload:13} {name:13} median {row['median']:<12.6g} spread {row['spread']:7.4f}"
                  f"  bound {bound}{unscaled}{flag}")
        for name in ("query_scale", "setup_scale"):
            summary[workload][name] = median_and_spread(raws[name])
    if args.record:
        for key in ("workload", "seed", "seconds", "trace"):
            provenance.pop(key)
        point = {**provenance, "started": started, "run_seconds": bench["run_seconds"], "seeds": SEEDS,
                 "workloads": summary}
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
