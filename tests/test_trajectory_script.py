"""scripts/theorem_trajectories.py against the frozen exact trajectory."""

import importlib.util
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FROZEN = json.loads((ROOT / "tests" / "data" / "theorem_trajectory.json").read_text())


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "theorem_trajectories", ROOT / "scripts" / "theorem_trajectories.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(text: str, exact: Fraction, digits: int) -> bool:
    # a decimal rounded to `digits` significant digits
    return abs(Fraction(Decimal(text)) - exact) <= abs(exact) / 10 ** (digits - 1)


@pytest.mark.parametrize("r", sorted(FROZEN))
def test_rows_match_the_frozen_trajectory(script, r):
    frozen = FROZEN[r]
    rows = script.trajectory(frozen[-1]["n"], int(r))
    assert [row["n"] for row in rows] == [row["n"] for row in frozen]
    for row, want in zip(rows, frozen):
        ratio = Fraction(int(want["ratio_num"]), int(want["ratio_den"]))
        theta = Fraction(int(want["theta_num"]), int(want["theta_den"]))
        assert _close(row["ratio_minus_1"], ratio - 1, script.DIGITS)
        assert _close(row["theta_ratio"], theta, script.DIGITS)


def test_main_writes_every_size(script, tmp_path, monkeypatch):
    monkeypatch.setattr(script, "SIZES", {2: 5, 4: 3})
    output = tmp_path / "out" / "trajectories.json"
    assert script.main([str(output)]) == 0
    written = json.loads(output.read_text())
    assert written == {"2": script.trajectory(5, 2), "4": script.trajectory(3, 4)}
    assert [row["n"] for row in written["2"]] == [2, 3, 4, 5]
