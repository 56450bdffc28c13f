"""The four benchmark workloads.

Each workload is a closed loop with one client.  It is driven in rounds: a
round is a list of queries drawn from the workload seed, and it holds every
query kind in fixed proportion, so a run's median and tail do not depend on
how many rounds fit into it.  A workload

- `setup()`s: imports `goglattice` and fills the caches its queries read;
- `run(query)`s one query and returns its raw output;
- `check(query, output)`s that output against independent or frozen values
  and returns the work it completed, in the workload's unit, or raises
  `CheckFailed`.

Only public `goglattice` functions are called, always through their module
attribute, so the layer wrappers in `tracer.py` see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "data" / "expected.json"
TRAJECTORY = ROOT / "tests" / "data" / "theorem_trajectory.json"
LAUNCHER = HERE / "launcher.py"
SPAWN = HERE / "spawn.py"
WORK_DIR = HERE / "_work"
CHILD_TIMEOUT_S = 150


class CheckFailed(Exception):
    """A query's output disagrees with the expected output."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def child_env() -> dict:
    """Environment for `gog` children: this checkout's package, and no
    inherited census cache directory."""
    env = {k: v for k, v in os.environ.items() if k != "GOG_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _module(name: str):
    return importlib.import_module(f"goglattice.{name}")


class Enumerate:
    """`gog enumerate` in process: all size-6 triangles as text."""

    unit = "triangles"
    in_process = True
    n = 6

    def __init__(self, seed: int, tracer=None) -> None:
        pass

    def setup(self) -> None:
        self.enumeration = _module("enumeration")
        self.triangles = _module("triangles")
        self.count = load_expected()["enumerate"]["count"]
        self.bottom = " ".join(str(v) for v in range(1, self.n + 1))

    def round(self, rng: random.Random) -> list:
        return [self.n]

    def run(self, n: int) -> str:
        return self.triangles.triangles_to_text(self.enumeration.enumerate_triangles(n))

    def check(self, n: int, text: str) -> int:
        require(text.endswith("\n"), "stream does not end with a newline")
        blocks = text[:-1].split("\n\n")
        require(len(blocks) == self.count, f"{len(blocks)} triangles, expected A({n}) = {self.count}")
        previous: list[int] = []
        for block in blocks:
            lines = block.split("\n")
            require(len(lines) == n and lines[-1] == self.bottom, f"malformed triangle {block!r}")
            reading = [int(v) for v in block.split()]
            require(reading > previous, f"stream not strictly lexicographic at {block!r}")
            previous = reading
        return len(blocks)

    def close(self) -> None:
        pass


class TrivialMeet:
    """`gog theorem1/theorem2` in process: `theorem_report(16, r)`."""

    unit = "N_min values"
    in_process = True
    n_max = 16
    rs = (2, 3, 4)

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.meet_census = _module("meet_census")
        _module("counting").asm_number(self.n_max)
        # Expected (n_min, E) per (r, n): the tests' frozen trajectory where it
        # reaches, the benchmark's own frozen values beyond it.
        expected = {}
        for r, rows in load_expected()["trivial_meet"].items():
            for n, row in rows.items():
                expected[int(r), int(n)] = (int(row["n_min"]), int(row["E"]))
        for r, rows in json.loads(TRAJECTORY.read_text()).items():
            for row in rows:
                expected[int(r), row["n"]] = (int(row["n_min"]), int(row["E"]))
        self.expected = expected

    def round(self, rng: random.Random) -> list:
        start = self.seed % len(self.rs)
        return [self.rs[(start + i) % len(self.rs)] for i in range(len(self.rs))]

    def run(self, r: int) -> list:
        return self.meet_census.theorem_report(self.n_max, r)

    def check(self, r: int, reports: list) -> int:
        require([rep.n for rep in reports] == list(range(2, self.n_max + 1)), "wrong rows")
        for rep in reports:
            got = (rep.n_min, rep.error_term)
            want = self.expected[r, rep.n]
            require(got == want, f"(n={rep.n}, r={r}): (n_min, E) = {got}, expected {want}")
        return len(reports)

    def close(self) -> None:
        pass


class Sample:
    """One exactly uniform 3-tuple at n = 12, ranked, unranked and combined."""

    unit = "tuples"
    in_process = True
    n = 12
    r = 3

    def __init__(self, seed: int, tracer=None) -> None:
        pass

    def setup(self) -> None:
        self.enumeration = _module("enumeration")
        self.lattice = _module("lattice")
        self.total = int(load_expected()["sample"]["asm_number"])
        filled = self.enumeration.completions_count(self.enumeration.TrianglePrefix(self.n, 0, ()))
        require(filled == self.total, f"completion DP gives A({self.n}) = {filled}")
        self.minimal = _module("triangles").extremal_triangle(self.n, "min")
        order = self.lattice.OrderRelation
        self.at_most = (order.LESS, order.EQUAL)

    def round(self, rng: random.Random) -> list:
        return [rng.getrandbits(32)]

    def run(self, seed: int) -> tuple:
        enumeration, lattice = self.enumeration, self.lattice
        ts = enumeration.sample_uniform(self.n, self.r, seed)
        ranks = [enumeration.rank(t) for t in ts]
        back = [enumeration.unrank(self.n, k) for k in ranks]
        low = lattice.meet(ts)
        high = lattice.join(ts)
        trivial = lattice.is_trivial(ts, "meet")
        below = [lattice.compare(low, t) for t in ts]
        above = [lattice.compare(t, high) for t in ts]
        return ts, ranks, back, low, trivial, below, above

    def check(self, seed: int, output: tuple) -> int:
        ts, ranks, back, low, trivial, below, above = output
        require(len(ts) == self.r and all(t.n == self.n for t in ts), "wrong sample shape")
        require(all(0 <= k < self.total for k in ranks), f"rank outside [0, A(n)): {ranks}")
        require(back == ts, "unrank(rank(t)) != t")
        require(all(rel in self.at_most for rel in below), f"meet not below operands: {below}")
        require(all(rel in self.at_most for rel in above), f"operands not below join: {above}")
        require(trivial == (low == self.minimal), "is_trivial disagrees with meet == minimum")
        return 1

    def close(self) -> None:
        pass


class CliCold:
    """One cold `gog` process per query, one child at a time.

    Timed runs spawn the plain `python -m goglattice.cli`; a traced run spawns
    `launcher.py`, which installs the layer wrappers first and reports them.
    Either is started through `spawn.py`, whose wall time and max RSS of the
    `gog` process become the query's time (`wall`) and its part of the peak
    RSS (`peak_rss_kib`).  Census caches live in a temporary directory under
    `_work/` that this workload creates and removes; `GOG_CACHE_DIR` is
    cleared for the children.
    """

    unit = "commands"
    in_process = False

    def __init__(self, seed: int, tracer=None) -> None:
        self.tracer = tracer
        self.tmp: Path | None = None

    def setup(self) -> None:
        # Ready as a cold `gog` child is ready to run its command.
        _module("cli")
        self.groups = load_expected()["cli_cold"]
        WORK_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
        self.env = child_env()
        self.caches = 0
        self.wall = 0.0
        self.peak_rss_kib = 0

    def round(self, rng: random.Random) -> list:
        names = sorted(self.groups)
        rng.shuffle(names)
        # The hit re-reads the directory the miss of this round wrote.
        miss, hit = names.index("census-miss"), names.index("census-hit")
        if hit < miss:
            names[hit], names[miss] = names[miss], names[hit]
        return [(name, rng.randrange(len(self.groups[name]))) for name in names]

    def _argv(self, name: str, spec: dict) -> list[str]:
        if name == "census-miss":
            self.caches += 1
        cache = str(self.tmp / f"census-{self.caches}")
        return [arg.replace("{cache}", cache) for arg in spec["argv"]]

    def run(self, query: tuple) -> tuple:
        name, index = query
        spec = self.groups[name][index]
        argv = self._argv(name, spec)
        stdin = spec["stdin"].encode() if spec["stdin"] is not None else b""
        if self.tracer is None:
            command = [sys.executable, "-m", "goglattice.cli", *argv]
        else:
            stats = self.tmp / "stats.json"
            command = [sys.executable, str(LAUNCHER), str(stats), *argv]
        report = self.tmp / "spawn.txt"
        command = [sys.executable, "-S", str(SPAWN), str(report), *command]
        # A new session, so that a timeout kills the `gog` process too.
        with subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=self.tmp, start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(stdin, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        done = subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)
        wall, rss_kib = report.read_text().split()
        report.unlink()
        self.wall = float(wall)
        self.peak_rss_kib = max(self.peak_rss_kib, int(rss_kib))
        if self.tracer is not None:
            self._merge(stats, self.wall, len(done.stdout))
        return done

    def _merge(self, stats: Path, wall: float, stdout_bytes: int) -> None:
        child = json.loads(stats.read_text())
        stats.unlink()
        self.tracer.merge(child)
        self.tracer.count("cli.process_overhead_s", wall - child["counters"]["cli.main_s"])
        self.tracer.count("cli.stdout_bytes", stdout_bytes)

    def check(self, query: tuple, done: subprocess.CompletedProcess) -> int:
        name, index = query
        spec = self.groups[name][index]
        require(done.returncode == 0, f"{name} exited {done.returncode}: {done.stderr[-300:]!r}")
        digest = hashlib.sha256(done.stdout).hexdigest()
        require(
            digest == spec["sha256"] and len(done.stdout) == spec["bytes"],
            f"{name}#{index} stdout differs from the frozen output",
        )
        return 1

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass  # another run still uses it


WORKLOADS = {
    "enumerate": Enumerate,
    "trivial-meet": TrivialMeet,
    "sample": Sample,
    "cli-cold": CliCold,
}
