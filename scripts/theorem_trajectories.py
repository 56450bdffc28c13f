"""Write the Theorem 1 and Theorem 2 trajectories of N_min(n, r) to JSON.

For each r in SIZES, one transfer-matrix sweep gives N_min(n, r) for
n = 2..SIZES[r].  Each row records, as decimals rounded to DIGITS
significant digits,

    ratio_minus_1 = N_min / (r A(n)^(r-1)) - 1          (Theorem 1: tends to 0)
    theta_ratio   = E / (A(n-2) A(n)^(r-2))             (Theorem 2's error E)

with E = N_min - r A(n)^(r-1) - 2r(r-1) A(n-1) A(n)^(r-2).  The file is a
record, never asserted; tests/data/theorem_trajectory.json holds the exact
frozen rows for n <= 14.  Run from the repository root (about 0.5 s):

    PYTHONPATH=src python scripts/theorem_trajectories.py [OUTPUT]

OUTPUT defaults to data/theorem_trajectories.json.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from goglattice.meet_census import theorem_report

SIZES = {2: 150, 3: 70, 4: 30, 5: 22}  # each within the default transfer limit
DIGITS = 40
OUTPUT = Path(__file__).resolve().parent.parent / "data" / "theorem_trajectories.json"


def _decimal(value: Fraction) -> str:
    with localcontext() as context:
        context.prec = DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def trajectory(n_max: int, r: int) -> list[dict]:
    """The rows for n = 2..n_max at fixed r."""
    return [
        {
            "n": rep.n,
            "ratio_minus_1": _decimal(rep.theorem1_ratio - 1),
            "theta_ratio": _decimal(rep.theta_ratio),
        }
        for rep in theorem_report(n_max, r)
    ]


def main(argv: list[str]) -> int:
    output = Path(argv[0]) if argv else OUTPUT
    rows = {str(r): trajectory(n_max, r) for r, n_max in SIZES.items()}
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
