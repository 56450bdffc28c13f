"""Regenerate `data/expected.json`, the benchmark's frozen expected outputs.

    python3 perfbench/freeze.py

The values in the committed file were produced by the code at the commit that
introduced the benchmark, and each was cross-checked here against an
independent route where one is cheap.  Rerun this only to add inputs, never
to make a failing check pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tempfile

from workloads import EXPECTED, SRC, TRAJECTORY, WORK_DIR, Sample, TrivialMeet, child_env, require

sys.path.insert(0, str(SRC))

from goglattice import (  # noqa: E402
    asm_number,
    asm_number_dp,
    n_min_census,
    sample_uniform,
    theorem_report,
    triangles_to_text,
)

POOL = 8  # inputs per seeded command group
POOL_SEED = 1401


def trivial_meet() -> dict:
    frozen = json.loads(TRAJECTORY.read_text())
    out = {}
    for r in TrivialMeet.rs:
        known = {row["n"]: row for row in frozen.get(str(r), [])}
        rows = {}
        for rep in theorem_report(TrivialMeet.n_max, r):
            if rep.n in known:
                got = (str(rep.n_min), str(rep.error_term))
                require(got == (known[rep.n]["n_min"], known[rep.n]["E"]), f"trajectory differs at {r, rep.n}")
                continue
            if rep.n <= 6:
                require(rep.n_min == n_min_census(rep.n, r), f"census oracle differs at {r, rep.n}")
            rows[str(rep.n)] = {"n_min": str(rep.n_min), "E": str(rep.error_term)}
        out[str(r)] = rows
    return out


def cli_groups() -> dict:
    rng = random.Random(POOL_SEED)
    seeds = [rng.getrandbits(32) for _ in range(POOL)]
    groups = {
        "asm-count-100": [(["asm-count", "--n", "100"], None)],
        "asm-count-dp": [(["asm-count", "--n", "9", "--method", "dp"], None)],
        "pmin": [(["pmin", "--n", "14", "--r", "2", "--json"], None)],
        "theorem2": [(["theorem2", "--r", "3", "--n-max", "12"], None)],
        "sample": [(["sample", "--n", "10", "--count", "50", "--seed", str(s)], None) for s in seeds],
        "convert": [
            (["convert", "--from", "triangle", "--to", "asm"], triangles_to_text(sample_uniform(8, 12, s)))
            for s in seeds
        ],
        "meet": [(["meet"], triangles_to_text(sample_uniform(10, 6, s))) for s in seeds],
        "census-miss": [(["census", "--n", "6", "--cache-dir", "{cache}"], None)],
        "census-hit": [(["census", "--n", "6", "--cache-dir", "{cache}"], None)],
    }
    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="freeze-", dir=WORK_DIR)
    try:
        out = {}
        for name, entries in groups.items():  # census-miss runs before census-hit
            out[name] = []
            for argv, stdin in entries:
                argv_run = [a.replace("{cache}", f"{tmp}/census") for a in argv]
                done = subprocess.run(
                    [sys.executable, "-m", "goglattice.cli", *argv_run],
                    input=(stdin or "").encode(),
                    capture_output=True,
                    env=child_env(),
                    cwd=tmp,
                    check=True,
                )
                out[name].append(
                    {
                        "argv": argv,
                        "stdin": stdin,
                        "sha256": hashlib.sha256(done.stdout).hexdigest(),
                        "bytes": len(done.stdout),
                    }
                )
        require(out["census-miss"][0]["sha256"] == out["census-hit"][0]["sha256"], "census hit differs from miss")
        return out
    finally:
        shutil.rmtree(tmp)


def main() -> None:
    for n in (6, Sample.n):
        require(asm_number(n) == asm_number_dp(n), f"A({n}) formula and DP differ")
    expected = {
        "enumerate": {"count": asm_number(6)},
        "trivial_meet": trivial_meet(),
        "sample": {"asm_number": str(asm_number(Sample.n))},
        "cli_cold": cli_groups(),
    }
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":
    main()
