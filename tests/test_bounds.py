"""The bound contract: every limit past which a call is refused names the knob
that raises it and the knob's default, and only `errors` words it."""

import ast
from pathlib import Path

import pytest

import goglattice
from goglattice import (
    LimitExceeded,
    RowSet,
    TrianglePrefix,
    asm_number,
    asm_number_dp,
    avoid_count,
    bleher_fokin_estimate,
    build_census,
    class_bound,
    class_sizes,
    compare,
    completions_count,
    decompose,
    enumerate_triangles,
    eta,
    extremal_triangle,
    gap_product_census,
    interlacing_successors,
    is_trivial,
    join,
    lemma_margins,
    load_or_build_census,
    meet,
    n_min_census,
    n_min_exact,
    near_minimal_triangle,
    p_extreme,
    primitive_counts,
    rank,
    reversed_census,
    run_histogram_report,
    sample_uniform,
    theorem_report,
    unrank,
    validate_triangle,
)
from goglattice.cli import main

PACKAGE = Path(goglattice.__file__).resolve().parent

FORMULA = "FORMULA_LIMIT_DEFAULT = 1000"
DP = "DP_LIMIT_DEFAULT = 12"
ENUM = "ENUM_LIMIT_DEFAULT = 7"
CENSUS = "CENSUS_LIMIT_DEFAULT = 18"
TRANSFER = "TRANSFER_LIMIT_DEFAULT = 77000000"
SAMPLE = "SAMPLE_LIMIT_DEFAULT = 100000"

# One row per public entry point with a raisable bound: the call just past
# its default (a callable, or `gog` arguments), the knob and its default.
PAST_THE_DEFAULT = {
    "asm_number": (lambda: asm_number(1001), "limit", FORMULA),
    "asm_number_dp": (lambda: asm_number_dp(13), "limit", DP),
    "enumerate_triangles": (lambda: enumerate_triangles(8), "limit", ENUM),
    "build_census": (lambda: build_census(8), "limit", ENUM),
    "reversed_census": (lambda: reversed_census(8), "limit", ENUM),
    "n_min_census": (lambda: n_min_census(8, 2), "limit", ENUM),
    "n_min_census-census": (lambda: n_min_census(8, 2, census=gap_product_census(8)), "limit", ENUM),
    "class_sizes": (lambda: class_sizes(8, 2), "limit", ENUM),
    "completions_count": (lambda: completions_count(TrianglePrefix(13, 0, ())), "limit", DP),
    "rank": (lambda: rank(extremal_triangle(13, "min")), "limit", DP),
    "unrank": (lambda: unrank(13, 0), "limit", DP),
    "sample_uniform": (lambda: sample_uniform(13, 1, 0), "limit", DP),
    "sample_uniform-count": (lambda: sample_uniform(3, 100_001, 0), "count_limit", SAMPLE),
    "gap_product_census": (lambda: gap_product_census(19), "limit", CENSUS),
    "load_or_build_census": (lambda: load_or_build_census(19), "limit", CENSUS),
    "run_histogram_report": (lambda: run_histogram_report(19), "limit", CENSUS),
    "n_min_exact": (lambda: n_min_exact(224, 2), "limit", TRANSFER),
    "p_extreme": (lambda: p_extreme(48, 4, "min"), "limit", TRANSFER),
    "theorem_report": (lambda: theorem_report(91, 3), "limit", TRANSFER),
    "gog-enumerate": (("enumerate", "--n", "8"), "limit", ENUM),
    "gog-pmin-census": (("pmin", "--n", "8", "--r", "2", "--method", "census"), "limit", ENUM),
}


@pytest.mark.parametrize("call, knob, default", PAST_THE_DEFAULT.values(), ids=PAST_THE_DEFAULT)
def test_limit_message_ends_with_its_knob_and_default(capsys, call, knob, default):
    tail = f"; raise `{knob}` (default {default})"
    if callable(call):
        with pytest.raises(LimitExceeded) as exc:
            call()
        assert str(exc.value).endswith(tail)
    else:
        assert main(list(call)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.endswith(f"{tail}\n")


def test_only_errors_constructs_limit_exceeded():
    # A new limit goes through `errors.bound_error`, so its message keeps the
    # contract above.  Catching `LimitExceeded` is fine; calling or raising
    # it is not.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            target = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
            if "LimitExceeded" in (getattr(target, "id", None), getattr(target, "attr", None)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_checked_routes_build_unchecked_triangles():
    # `MonotoneTriangle._checked` checks nothing, so only a route whose rows
    # are already known valid may use it: checked index edges, or the meet
    # or join of triangles.  A new caller is added here on purpose.
    def uses(node):
        return isinstance(node, ast.Attribute) and node.attr == "_checked"

    found, anywhere = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        anywhere += sum(map(uses, ast.walk(tree)))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.stem}.{function.name}" for node in _own_nodes(function) if uses(node)]
    assert len(found) == anywhere  # none at module level or in a lambda
    assert sorted(found) == [
        "enumeration.enumerate_triangles",
        "enumeration.sample_uniform",
        "enumeration.unrank",
        "lattice._entrywise",
    ]


def _own_nodes(function):
    """The nodes of a function's body outside nested function and class bodies."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_function_assigns_a_local_it_never_reads():
    # A name read anywhere in the function, nested scopes included, counts
    # as read; `_` is the name for a value that is thrown away.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node for node in ast.walk(function) if isinstance(node, ast.Name)]
            read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
            for node in _own_nodes(function):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    if node.id != "_" and node.id not in read:
                        found.append(f"{path.name}:{node.lineno} {node.id}")
    assert found == []


def test_no_global_or_nonlocal_statement():
    # Module state is mutated in place, never rebound from inside a function.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []


def test_every_slot_is_read():
    # A `__slots__` name that no module of the package reads back is a field
    # kept for nothing.  A read from another module counts.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    slots = [
        (f"{name}:{cls.name}", slot.value)
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        and any(getattr(target, "id", None) == "__slots__" for target in stmt.targets)
        for slot in stmt.value.elts
    ]
    assert len(slots) >= 13  # `_SuccessorIndex` and `Program` at least
    assert [f"{where}.{slot}" for where, slot in slots if slot not in read] == []


# One row per entry point with a size, count or seed argument: a float, a
# bool, a str or None in its place is refused before any work, with the
# argument named.
NOT_A_SIZE = {
    "enumerate_triangles": (lambda: enumerate_triangles(2.0), "n", "float 2.0"),
    "unrank": (lambda: unrank(3.0, 0), "n", "float 3.0"),
    "TrianglePrefix": (lambda: TrianglePrefix(3.0, 0, ()), "n", "float 3.0"),
    "asm_number": (lambda: asm_number(2.0), "n", "float 2.0"),
    "asm_number-str": (lambda: asm_number("3"), "n", "str '3'"),
    "asm_number_dp": (lambda: asm_number_dp(2.0), "n", "float 2.0"),
    "n_min_exact-n": (lambda: n_min_exact(3.0, 2), "n", "float 3.0"),
    "n_min_exact-r": (lambda: n_min_exact(3, 2.0), "r", "float 2.0"),
    "n_min_exact-bool": (lambda: n_min_exact(True, 2), "n", "bool True"),
    "p_extreme": (lambda: p_extreme(3, True, "min"), "r", "bool True"),
    "theorem_report": (lambda: theorem_report(4.0, 2), "n_max", "float 4.0"),
    "theorem_report-r": (lambda: theorem_report(4, 2.0), "r", "float 2.0"),
    "gap_product_census": (lambda: gap_product_census(3.0), "n", "float 3.0"),
    "run_histogram_report": (lambda: run_histogram_report(5.0), "n", "float 5.0"),
    "sample_uniform": (lambda: sample_uniform(True, 2, 1), "n", "bool True"),
    "sample_uniform-count": (lambda: sample_uniform(3, True, 1), "count", "bool True"),
    "sample_uniform-seed": (lambda: sample_uniform(3, 2, None), "seed", "NoneType None"),
    "sample_uniform-seed-float": (lambda: sample_uniform(3, 2, 1.5), "seed", "float 1.5"),
    "sample_uniform-seed-str": (lambda: sample_uniform(3, 2, "x"), "seed", "str 'x'"),
    "sample_uniform-seed-bool": (lambda: sample_uniform(3, 2, True), "seed", "bool True"),
    "build_census": (lambda: build_census(3.0), "n", "float 3.0"),
    "reversed_census": (lambda: reversed_census(3.0), "n", "float 3.0"),
    "n_min_census-r": (lambda: n_min_census(3, 2.0), "r", "float 2.0"),
    "class_sizes": (lambda: class_sizes(3.0, 2), "n", "float 3.0"),
    "class_sizes-r": (lambda: class_sizes(3, 2.0), "r", "float 2.0"),
    "TrianglePrefix-level": (lambda: TrianglePrefix(3, 1.0, (2,)), "level", "float 1.0"),
    "interlacing_successors": (lambda: next(interlacing_successors((), 3.0)), "n", "float 3.0"),
    "validate_triangle": (lambda: validate_triangle(2.0, ((1,), (1, 2))), "n", "float 2.0"),
    "extremal_triangle": (lambda: extremal_triangle(3.0, "min"), "n", "float 3.0"),
    "extremal_triangle-bool": (lambda: extremal_triangle(True, "min"), "n", "bool True"),
    "near_minimal_triangle": (lambda: near_minimal_triangle(3.0, "top"), "n", "float 3.0"),
    "avoid_count": (lambda: avoid_count(3.0, ()), "n", "float 3.0"),
    "avoid_count-row": (lambda: avoid_count(3, [1.0]), "row", "float 1.0"),
    "primitive_counts": (lambda: primitive_counts(3.0), "m_max", "float 3.0"),
    "lemma_margins": (lambda: lemma_margins(3.0), "n_max", "float 3.0"),
    "RowSet": (lambda: RowSet(3.0, 1), "n", "float 3.0"),
    "RowSet-mask": (lambda: RowSet(3, 1.0), "mask", "float 1.0"),
    "RowSet-bool": (lambda: RowSet(3, True), "mask", "bool True"),
    "RowSet-row": (lambda: RowSet.from_members(3, [1.0]), "row", "float 1.0"),
    "RowSet-row-bool": (lambda: RowSet.from_members(3, [True]), "row", "bool True"),
    "eta": (lambda: eta(3.0, ()), "n", "float 3.0"),
    "eta-bool": (lambda: eta(True, ()), "n", "bool True"),
    "eta-row": (lambda: eta(3, [1.5]), "row", "float 1.5"),
    "eta-row-bool": (lambda: eta(3, [1, True]), "row", "bool True"),
    "bleher_fokin_estimate": (lambda: bleher_fokin_estimate(3.0), "n", "float 3.0"),
    "class_bound": (lambda: class_bound(3.0, 2, 3), "n", "float 3.0"),
    "class_bound-r": (lambda: class_bound(3, 2.0, 3), "r", "float 2.0"),
    "class_bound-bool": (lambda: class_bound(3, True, 3), "r", "bool True"),
    "class_bound-v": (lambda: class_bound(3, 2, 3.0), "v", "float 3.0"),
    "decompose": (lambda: decompose(3.0, 2, 15), "n", "float 3.0"),
    "decompose-r": (lambda: decompose(3, 2.0, 15), "r", "float 2.0"),
}
# The entry points whose refusal is worded by the function they call first.
DELEGATES = {
    "p_extreme": "n_min_exact", "gap_product_census": "census", "run_histogram_report": "census",
}


@pytest.mark.parametrize("key", NOT_A_SIZE)
def test_size_must_be_an_exact_int(key):
    call, name, got = NOT_A_SIZE[key]
    what = key.split("-")[0]
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == f"{DELEGATES.get(what, what)} needs an int {name}, got {got}"


class Lookalike:
    """A triangle's `n` and `rows`, with rows that no check passed: row 1
    does not interlace row 2."""

    n = 3
    rows = ((3,), (1, 2), (1, 2, 3))


T3 = extremal_triangle(3, "min")
# One row per entry point that takes triangles: anything else in a
# triangle's place is refused with a TypeError, never read as one.
NOT_A_TRIANGLE = {
    "compare": (lambda: compare(T3, T3.rows), "tuple"),
    "compare-first": (lambda: compare(T3.rows, T3), "tuple"),
    "meet": (lambda: meet([T3, T3.rows]), "tuple"),
    "meet-lookalike": (lambda: meet([T3, Lookalike()]), "Lookalike"),
    "meet-lookalike-alone": (lambda: meet([Lookalike()]), "Lookalike"),
    "join": (lambda: join([T3.rows]), "tuple"),
    "join-lookalike": (lambda: join([Lookalike(), T3]), "Lookalike"),
    "is_trivial": (lambda: is_trivial([T3, T3.rows], "meet"), "tuple"),
    "rank": (lambda: rank(T3.rows), "tuple"),
}


@pytest.mark.parametrize("key", NOT_A_TRIANGLE)
def test_operand_must_be_a_triangle(key):
    call, got = NOT_A_TRIANGLE[key]
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == f"{key.split('-')[0]} needs a MonotoneTriangle, got {got}"


class PrefixLookalike:
    """A prefix's `n` and `row`, with a row that no check passed."""

    def __init__(self, row):
        self.n, self.level, self.row = 3, len(row), row


# Anything but a `TrianglePrefix` in a prefix's place is refused with a
# TypeError, never read as one: not a decreasing row (read as the id of
# (1, 2)), nor one past [n], nor a tuple.
NOT_A_PREFIX = {
    "decreasing": (PrefixLookalike((2, 1)), "PrefixLookalike"),
    "past-n": (PrefixLookalike((5,)), "PrefixLookalike"),
    "tuple": ((3, 1, (2,)), "tuple"),
}


@pytest.mark.parametrize("key", NOT_A_PREFIX)
def test_completions_count_needs_a_prefix(key):
    prefix, got = NOT_A_PREFIX[key]
    with pytest.raises(TypeError) as exc:
        completions_count(prefix)
    assert str(exc.value) == f"completions_count needs a TrianglePrefix, got {got}"
