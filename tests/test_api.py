"""The package namespace: every public name of the eager namespace, now
imported on first use."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import goglattice

SRC = str(Path(goglattice.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parent.parent / "README.md"

# The names the package exported when it imported every module eagerly, by
# home module.  Frozen: a name may be added, never dropped or moved.
EXPORTED = {
    "counting": (
        "LemmaMargins", "asm_number", "asm_number_dp", "bleher_fokin_estimate", "eta",
        "lemma_margins",
    ),
    "enumeration": (
        "CensusTable", "RunHistogram", "TrianglePrefix", "build_census", "completions_count",
        "enumerate_triangles", "load_or_build_census", "rank", "sample_uniform", "unrank",
    ),
    "errors": (
        "BadBottomRow", "EmptyInput", "FormatError", "GogError", "IndexOutOfRange",
        "InterlacingViolated", "LimitExceeded", "NotAColumnSumMatrix", "NotAnASM",
        "NotAPermutation", "RowOutOfRange", "ShapeMismatch", "SizeMismatch", "SizeTooSmall",
        "StrictIncreaseViolated", "TriangleError", "VerificationFailure",
    ),
    "lattice": ("OrderRelation", "compare", "is_trivial", "join", "meet"),
    "meet_census": (
        "ClassSizes", "MeetCensusReport", "RunHistogramReport", "avoid_count", "class_bound",
        "class_sizes", "decompose", "n_min_census", "n_min_exact", "p_extreme",
        "primitive_counts", "reversed_census", "run_histogram_report", "theorem_report",
    ),
    "triangles": (
        "AlternatingSignMatrix", "ColumnSumMatrix", "MonotoneTriangle", "Permutation",
        "RowSet", "extremal_triangle", "interlacing_successors", "max_consecutive_run",
        "near_minimal_triangle", "parse_asms", "parse_column_sums", "parse_triangles",
        "perm_to_triangle", "triangle_to_text", "triangles_to_text", "validate_triangle",
    ),
}
SUBMODULES = ("cli", "counting", "enumeration", "errors", "lattice", "meet_census", "triangles", "verify")


def cold(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this checkout."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("home, name", [(home, name) for home, names in EXPORTED.items() for name in names])
def test_exported_name_resolves_to_its_home_object(home, name):
    assert name in goglattice.__all__
    assert getattr(goglattice, name) is getattr(importlib.import_module(f"goglattice.{home}"), name)


def test_exported_names_resolve_cold():
    # Each name resolves on first use in a process that has loaded nothing.
    code = (
        "import importlib, goglattice\n"
        f"for home, names in {EXPORTED!r}.items():\n"
        "    for name in names:\n"
        "        assert getattr(goglattice, name) is getattr("
        "importlib.import_module('goglattice.' + home), name), name\n"
        "print('ok')\n"
    )
    assert cold(code) == "ok\n"


def test_submodules_resolve_after_bare_import():
    code = f"import goglattice\nprint(*(getattr(goglattice, m).__name__ for m in {SUBMODULES!r}))"
    assert cold(code).split() == [f"goglattice.{m}" for m in SUBMODULES]


def test_plain_rows_load_no_triangles():
    # eta and avoid_count tell a RowSet apart without importing `triangles`,
    # and count one passed in once it is loaded as they count a tuple.
    code = (
        "import sys\n"
        "from goglattice import avoid_count, eta\n"
        "counts = eta(5, (1, 3)), avoid_count(5, (1, 3))\n"
        "print('goglattice.triangles' in sys.modules, counts)\n"
        "from goglattice import RowSet\n"
        "rows = RowSet.from_members(5, (1, 3))\n"
        "print(eta(5, rows), avoid_count(5, rows))\n"
    )
    assert cold(code) == "False (4, 377)\n4 377\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        goglattice.no_such_name
    assert not hasattr(goglattice, "_n_min_sweep")
    with pytest.raises(ImportError):
        from goglattice import no_such_name  # noqa: F401


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from goglattice import *", namespace)
    assert set(goglattice.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(goglattice, name) for name in goglattice.__all__)


def test_dir_lists_names_and_submodules():
    listed = dir(goglattice)
    assert set(goglattice.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_readme_library_sketch_runs_cold():
    text = README.read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S).group(1)
    assert cold(sketch + "print('ok')\n") == "ok\n"
