"""The goglattice benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from `workloads.py` (enumerate, trivial-meet, sample,
cli-cold) as a closed loop with one client for S seconds, checks every
query's output, and prints a human-readable report followed, as the last
line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:

- setup_s: the least, over seven fresh processes, of the time from process
  start until the workload is ready for its first query (importing
  `goglattice` and filling the caches its queries read; for cli-cold,
  importing `goglattice.cli` as every cold `gog` child does);
- work_per_s: completed work per second of query time, in the workload's
  own unit (triangles, N_min values, tuples or commands), as the median over
  windows of about a second;
- query_p50_s and query_tail_s: the median query time (for cli-cold, the
  wall time of the `gog` process), and the highest sample with at least ten
  samples beyond it (its percentile and the sample count are printed in the
  report);
- peak_rss_mb: `getrusage` max RSS of this process, or for cli-cold the
  largest max RSS that `wait4` gave for a `gog` child (see `spawn.py`).

setup_s and the query times (work_per_s, query_p50_s) are reported at a
reference machine speed.  On a shared machine the speed of the same code
drifts by up to 80 % within minutes, in every statistic of a run, while the
ratio of a time to the time of a fixed reference that does not touch
`goglattice` moves far less.  The reference is `reference_kernel`, a fixed interpreter
kernel run with the collector off (so the package's heap does not enter
it), for in-process queries and for setup; for cli-cold queries, which are
process starts, it is `reference_start`, the start of a bare interpreter,
which tracks them where the kernel did not.  The run times the reference
between queries, at least a quarter second apart, and scales each query's
time by the reference's nominal time over the mean of the reference times
just before and after it; so a change of speed within a run moves the
queries it slows and the reference alike.  A setup time is scaled by the
kernel just before its process starts and just after it is ready.  A change
to the package moves the scaled times as it moves the raw ones.  The line
before the JSON result, `raw {...}`, holds the unscaled values and the
scales.

query_tail_s is printed in the report but left out of the JSON result: on a
shared machine a burst of interference that slows ten queries moves it by
up to a factor of two between runs (sample: 0.013 s to 0.032 s over ten
seeds), far beyond any bound a regression gate could use.

fail_frac, the share of queries that raised or failed their check, is
printed in the report and carried by `attempted` and `failed`; any failure
makes the exit status 1.

With `--trace 1` the run is split in two halves: an untraced half here, and
a traced half in a fresh process (`--role traced`) with the wrappers of
`tracer.py` installed, which writes its spans and aggregates to
`perfbench/out/`.  The metrics are then the per-layer ones listed in
`tracer.PER_LAYER`, totalled over the traced half (raw times), plus
`trace.overhead_frac`: untraced work_per_s over traced work_per_s, minus 1.

The package is imported from `src/` of the checkout holding this file;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics
from workloads import CHILD_TIMEOUT_S, ROOT, SPAWN, SRC, WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
PROBE_KERNELS = 7  # kernel timings before and after each setup process
MIN_QUERIES = 11  # the tail needs ten samples beyond it
WINDOW_S = 1.0
REFERENCE_EVERY_S = 0.25
KERNEL_NOMINAL_S = 0.005  # the kernel's time on a quiet 2-vCPU Xeon
START_NOMINAL_S = 0.04  # a bare interpreter's start on the same machine
UNIT = {"setup_s": "s", "work_per_s": "1/s", "query_p50_s": "s", "peak_rss_mb": "MiB"}  # the JSON result


def provenance(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_start(env: dict, report: Path) -> float:
    """Seconds for a bare interpreter to start and exit, timed as `gog`
    children are, by `spawn.py`."""
    command = [sys.executable, "-S", str(SPAWN), str(report), sys.executable, "-c", "pass"]
    subprocess.run(command, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return float(report.read_text().split()[0])


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of integer, tuple and dict work."""
    gc.disable()
    try:
        started = perf_counter()
        table: dict = {}
        for i in range(20_000):
            key = (i & 255, (i >> 8) & 15)
            table[key] = table.get(key, 0) + i * i
        return perf_counter() - started
    finally:
        gc.enable()


class Outcome:
    def __init__(self, nominal: float) -> None:
        self.nominal = nominal  # the reference's time at the reference speed
        self.samples: list[float] = []  # query times
        self.local: list[float] = []  # reference time around each query
        self.refs: list[float] = []  # reference times
        self.rounds: list[tuple[int, int, int]] = []  # (first query, end query, work done) per round
        self.attempted = 0
        self.failed = 0

    def add_ref(self, ref: float) -> None:
        """Record a reference time; the queries since the previous one get
        the mean of the two as the machine speed around them."""
        local = (self.refs[-1] + ref) / 2 if self.refs else ref
        self.local.extend([local] * (len(self.samples) - len(self.local)))
        self.refs.append(ref)

    def scaled(self) -> list[float]:
        """Query times at the reference speed."""
        return [q * self.nominal / r for q, r in zip(self.samples, self.local)]

    def scale(self) -> float:
        return statistics.median(self.nominal / r for r in self.local)

    def work_per_s(self, times: list[float]) -> float:
        """Median over windows of whole rounds holding at least WINDOW_S of
        query time of the work completed per second of query time; a burst
        of interference then moves one window, not the run's figure."""
        rates, busy, work = [], 0.0, 0
        for first, end, done in self.rounds:
            busy += sum(times[first:end])
            work += done
            if busy >= WINDOW_S:
                rates.append(work / busy)
                busy, work = 0.0, 0
        return statistics.median(rates or [work / busy])


def measure(workload, seed: int, seconds: float, tracer: Tracer | None = None) -> Outcome:
    """Run whole rounds of queries until `seconds` have passed.  Time the
    reference (the kernel in process, a bare interpreter start for cold
    processes) before the first query, after any query that ends
    REFERENCE_EVERY_S or more after the last reference, and at the end."""
    rng = random.Random(seed)
    if workload.in_process:
        reference, out = reference_kernel, Outcome(KERNEL_NOMINAL_S)
    else:
        reference, out = functools.partial(reference_start, workload.env, workload.tmp / "reference.txt"), Outcome(START_NOMINAL_S)
    out.add_ref(reference())
    next_ref = perf_counter() + REFERENCE_EVERY_S
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or out.attempted < MIN_QUERIES:
        first, work = len(out.samples), 0
        for query in workload.round(rng):
            out.attempted += 1
            if tracer is not None:
                tracer.enter("query", coarse=True)
            started = perf_counter()
            try:
                output = workload.run(query)
                ok = True
            except Exception:  # a failed query is counted, and the loop goes on
                ok = False
                traceback.print_exc()
            finally:
                elapsed = perf_counter() - started
                if tracer is not None:
                    tracer.exit()
            if ok and not workload.in_process:
                elapsed = workload.wall
            out.samples.append(elapsed)
            if perf_counter() >= next_ref:
                out.add_ref(reference())
                next_ref = perf_counter() + REFERENCE_EVERY_S
            if ok:
                try:
                    work += workload.check(query, output)
                    continue
                except CheckFailed as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
            out.failed += 1
        out.rounds.append((first, len(out.samples), work))
    out.add_ref(reference())
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples beyond it, and its percentile."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def child(role: str, args: argparse.Namespace, seconds: float) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{role} process exited {done.returncode}")
    return done


def setup_seconds(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Process start to ready in fresh processes, raw and scaled by the mean
    of the kernel times just before the process starts (here) and after it
    is ready (in the probe, which reports the monotonic clock reading at
    which it became ready and its median kernel time after that)."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = statistics.median(reference_kernel() for _ in range(PROBE_KERNELS))
        started = perf_counter()
        ready, after = map(float, child("probe", args, 0).stdout.split()[-2:])
        raw.append(ready - started)
        scaled.append(raw[-1] * KERNEL_NOMINAL_S / ((before + after) / 2))
    return raw, scaled


def role_probe(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    ready = perf_counter()
    workload.close()
    kernel = statistics.median(reference_kernel() for _ in range(PROBE_KERNELS))
    print(f"ready {ready!r} {kernel!r}")
    return 0


def role_traced(args: argparse.Namespace) -> int:
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, tracer)
    if workload.in_process:
        tracer.install()
    try:
        tracer.enter("setup", coarse=True)
        workload.setup()
        tracer.exit()
        outcome = measure(workload, args.seed, args.seconds, tracer)
    finally:
        workload.close()
    records = tracer.records()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"provenance": provenance(args), **records}))
    print(json.dumps({
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "work_per_s": outcome.work_per_s(outcome.scaled()),
        "metrics": layer_metrics(records),
    }))
    return 0


def role_main(args: argparse.Namespace) -> int:
    workload_cls = WORKLOADS[args.workload]
    print(f"provenance {json.dumps(provenance(args), sort_keys=True)}")
    if args.trace:
        seconds = args.seconds / 2
        workload = workload_cls(args.seed)
        try:
            workload.setup()
            outcome = measure(workload, args.seed, seconds)
        finally:
            workload.close()
        traced = json.loads(child("traced", args, seconds).stdout.splitlines()[-1])
        metrics = traced["metrics"]
        overhead = outcome.work_per_s(outcome.scaled()) / traced["work_per_s"] - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        for name, metric in metrics.items():
            print(f"{name:32} {metric['value']:<14.6g} {metric['unit']}")
        attempted = outcome.attempted + traced["attempted"]
        failed = outcome.failed + traced["failed"]
    else:
        workload = workload_cls(args.seed)
        try:
            workload.setup()
            outcome = measure(workload, args.seed, args.seconds)
        finally:
            workload.close()
        if workload.in_process:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            peak_rss_mb = workload.peak_rss_kib / 1024
        raw_setups, setups = setup_seconds(args)
        scaled = outcome.scaled()
        scale = outcome.scale()
        raw_tail_s, _ = tail(outcome.samples)
        tail_s, pct = tail(scaled)
        raw = {
            "setup_s": min(raw_setups),
            "work_per_s": outcome.work_per_s(outcome.samples),
            "query_p50_s": statistics.median(outcome.samples),
            "query_tail_s": raw_tail_s,
        }
        metrics = {
            "setup_s": min(setups),
            "work_per_s": outcome.work_per_s(scaled),
            "query_p50_s": statistics.median(scaled),
            "query_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"least of {len(setups)} fresh processes",
            "work_per_s": f"{workload.unit}/s",
            "query_tail_s": f"p{pct:.1f} of {len(outcome.samples)} queries, 10 beyond",
        }
        print(f"scale {scale:.4f}: median over queries; reference median "
              f"{statistics.median(outcome.refs) * 1e3:.3f} ms over {len(outcome.refs)} samples, "
              f"nominal {outcome.nominal * 1e3:g} ms")
        for name, value in metrics.items():
            unscaled = f"raw {raw[name]:<12.6g}" if name in raw else " " * 16
            print(f"{name:14} {value:<14.6g} {UNIT.get(name, 's'):5} {unscaled} {notes.get(name, '')}")
        fail_frac = outcome.failed / outcome.attempted
        print(f"{'fail_frac':14} {fail_frac:<14.6g} ratio {outcome.failed} of {outcome.attempted} failed")
        setup_scale = statistics.median(s / r for s, r in zip(setups, raw_setups))
        print("raw " + json.dumps({**raw, "query_scale": scale, "setup_scale": setup_scale}))
        metrics = {name: {"value": value, "unit": UNIT[name]} for name, value in metrics.items() if name in UNIT}
        attempted, failed = outcome.attempted, outcome.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="goglattice benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "traced"), default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "goglattice" / "__init__.py").is_file():
        print(f"perfbench: no goglattice package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    role = {"main": role_main, "probe": role_probe, "traced": role_traced}[args.role]
    return role(args)


if __name__ == "__main__":
    sys.exit(main())
