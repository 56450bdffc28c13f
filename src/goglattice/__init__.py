"""Exact combinatorics of the monotone-triangle lattice.

Monotone triangles (strictly increasing rows, interlacing adjacent rows,
bottom row 1..n) form a lattice under entry-wise comparison and are in
bijection with alternating-sign matrices.  This package provides the
validated domain objects and bijections, exact arbitrary-precision counting
of the lattice and of its distinguished-row structure, exhaustive
enumeration with ranking and exact uniform sampling, and the count of
r-tuples with trivial meet or join, by a transfer-matrix sweep over
primitive blocks with inclusion-exclusion and census oracles, together with
the second-order decomposition of that count.

Everything is exact: counts are Python ints, probabilities are
`fractions.Fraction`, and decimals only ever appear as presentation.

Importing the package loads none of its modules.  Each public name below,
and each submodule (`goglattice.counting`, ...), is imported on first use
and then kept in the package namespace, so a cold `gog` command compiles
only the modules it runs.
"""

import sys as _sys

_EXPORTS = {
    "counting": (
        "LemmaMargins", "asm_number", "asm_number_dp", "bleher_fokin_estimate", "eta",
        "lemma_margins",
    ),
    "enumeration": (
        "TrianglePrefix", "build_census", "completions_count", "enumerate_triangles", "rank",
        "sample_uniform", "unrank",
    ),
    "errors": (
        "BadBottomRow", "EmptyInput", "FormatError", "GogError", "IndexOutOfRange",
        "InterlacingViolated", "LimitExceeded", "NotAColumnSumMatrix", "NotAnASM",
        "NotAPermutation", "RowOutOfRange", "ShapeMismatch", "SizeMismatch", "SizeTooSmall",
        "StrictIncreaseViolated", "TriangleError", "VerificationFailure",
    ),
    "lattice": ("OrderRelation", "compare", "is_trivial", "join", "meet"),
    "meet_census": (
        "CensusTable", "ClassSizes", "MeetCensusReport", "RunHistogram", "RunHistogramReport",
        "avoid_count", "class_bound", "class_sizes", "decompose", "gap_product_census",
        "load_or_build_census", "n_min_census", "n_min_exact", "p_extreme", "primitive_counts",
        "reversed_census", "run_histogram_report", "theorem_report",
    ),
    "triangles": (
        "AlternatingSignMatrix", "ColumnSumMatrix", "MonotoneTriangle", "Permutation",
        "RowSet", "extremal_triangle", "interlacing_successors", "max_consecutive_run",
        "near_minimal_triangle", "parse_asms", "parse_column_sums", "parse_triangles",
        "perm_to_triangle", "triangle_to_text", "triangles_to_text", "validate_triangle",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "verify")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, unlike `importlib.import_module`, is timed by `-X importtime`.
    submodule = f"{__name__}.{module or name}"
    __import__(submodule)
    value = _sys.modules[submodule]
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
