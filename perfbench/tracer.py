"""Counting and timing wrappers around the public functions of each layer.

`Tracer.install()` rebinds the public functions of the `goglattice` modules,
at every module attribute where callers look them up, to wrappers that live
here.  The package itself is not edited.  Two kinds of record are kept in
memory and written out once, at the end of a run:

- coarse calls (queries, the completion-DP fill, census build/read/write,
  `theorem_report`, `n_min_exact`) become spans carrying their name, start,
  end, parent span and the successor rows yielded while they were open;
- every wrapped call, coarse or fine (successor rows, triangle
  constructions, lattice operations, ...), is aggregated by name into a call
  count, a total time and a self time (total minus the wrapped calls it made).

Generators are timed per `next()`, so the time a consumer spends between two
items is never charged to the generator.  All times are `time.perf_counter`
seconds, which on Linux is the system-wide monotonic clock, so spans written
by child processes line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

MODULES = ("triangles", "counting", "enumeration", "lattice", "meet_census", "cli")

# (module, attribute, record name, coarse?) for plain functions.
CALLS = (
    ("triangles", "triangle_to_text", "triangles.text", False),
    ("triangles", "triangles_to_text", "triangles.text", False),
    ("triangles", "matrix_to_text", "triangles.text", False),
    ("triangles", "matrices_to_text", "triangles.text", False),
    ("counting", "asm_number", "counting.asm_number", False),
    ("counting", "asm_number_dp", "counting.asm_number_dp", False),
    ("enumeration", "completions_count", "enumeration.completions_fill", True),
    ("enumeration", "sample_uniform", "enumeration.sample", False),
    ("enumeration", "rank", "enumeration.rank", False),
    ("enumeration", "unrank", "enumeration.unrank", False),
    ("enumeration", "build_census", "enumeration.census_build", True),
    ("enumeration", "load_or_build_census", "enumeration.census", True),
    ("lattice", "meet", "lattice.meet", False),
    ("lattice", "join", "lattice.join", False),
    ("lattice", "compare", "lattice.compare", False),
    ("lattice", "is_trivial", "lattice.is_trivial", False),
    ("meet_census", "n_min_exact", "meet_census.n_min_exact", True),
    ("meet_census", "decompose", "meet_census.decompose", False),
    ("meet_census", "theorem_report", "meet_census.theorem_report", True),
)

# Generator functions: timed per item.
ITERATORS = (
    ("triangles", "interlacing_successors", "triangles.successor"),
    ("enumeration", "enumerate_triangles", "enumeration.enumerate"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, rows]
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.rows = 0  # rows yielded by interlacing_successors
        self._stack: list[list] = []  # [name, start, child_s, span index]
        self._open: list[int] = []  # indices of the open spans

    # -- recording ---------------------------------------------------------

    def enter(self, name: str, coarse: bool = False) -> None:
        index = None
        if coarse:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, 0.0, 0.0, parent, self.rows])
            self._open.append(index)
        self._stack.append([name, perf_counter(), 0.0, index])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        elapsed = end - start
        record = self.aggregates.get(name)
        if record is None:
            record = self.aggregates[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        if index is not None:
            span = self.spans[index]
            span[1], span[2], span[4] = start, end, self.rows - span[4]
            self._open.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge(self, child: dict) -> None:
        """Fold in the records a traced child process wrote; its root spans
        become children of the span open here."""
        offset = len(self.spans)
        parent = self._open[-1] if self._open else None
        for name, start, end, up, rows in child["spans"]:
            self.spans.append([name, start, end, parent if up is None else up + offset, rows])
        for name, (calls, total, own) in child["aggregates"].items():
            record = self.aggregates.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, value in child["counters"].items():
            self.count(name, value)
        self.rows += child["rows"]

    def records(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": self.aggregates,
            "counters": self.counters,
            "rows": self.rows,
        }

    # -- wrappers ----------------------------------------------------------

    def _timed(self, func, name: str, coarse: bool):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            enter(name, coarse)
            try:
                return func(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _timed_iter(self, func, name: str, rows: bool):
        tracer = self
        enter, exit_ = self.enter, self.exit

        def items(it):
            while True:
                enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_()
                if rows:
                    tracer.rows += 1
                yield item

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return items(func(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Rebind every public layer function wherever the package binds it."""
        package = importlib.import_module("goglattice")
        modules = [package] + [importlib.import_module(f"goglattice.{m}") for m in MODULES]
        by_name = {m: sys.modules[f"goglattice.{m}"] for m in MODULES}

        def rebind(original, wrapper) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for module, attr, name, coarse in CALLS:
            original = getattr(by_name[module], attr)
            rebind(original, self._timed(original, name, coarse))
        for module, attr, name in ITERATORS:
            original = getattr(by_name[module], attr)
            rebind(original, self._timed_iter(original, name, name == "triangles.successor"))

        triangle = by_name["triangles"].MonotoneTriangle
        triangle.__init__ = self._timed(triangle.__init__, "triangles.construct", False)
        table = by_name["enumeration"].CensusTable
        table.write = self._timed(table.write, "enumeration.census_write", True)
        read = table.__dict__["read"].__func__
        table.read = classmethod(self._timed(read, "enumeration.census_read", True))


PER_LAYER = (
    # (metric, unit, source): source is (aggregate, field) with field 0 calls,
    # 1 total seconds, 2 self seconds; or a counter name.
    ("triangles.successor_rows", "count", "rows"),
    ("triangles.successor_s", "s", ("triangles.successor", 1)),
    ("triangles.construct_calls", "count", ("triangles.construct", 0)),
    ("triangles.construct_s", "s", ("triangles.construct", 1)),
    ("triangles.text_s", "s", ("triangles.text", 2)),
    ("enumeration.enumerate_self_s", "s", ("enumeration.enumerate", 2)),
    ("enumeration.completions_fill_s", "s", ("enumeration.completions_fill", 1)),
    ("enumeration.completions_rows", "count", "fill_rows"),
    ("enumeration.sample_s", "s", ("enumeration.sample", 1)),
    ("enumeration.rank_s", "s", ("enumeration.rank", 1)),
    ("enumeration.unrank_s", "s", ("enumeration.unrank", 1)),
    ("enumeration.census_build_s", "s", ("enumeration.census_build", 1)),
    ("enumeration.census_write_s", "s", ("enumeration.census_write", 1)),
    ("enumeration.census_read_s", "s", ("enumeration.census_read", 1)),
    ("enumeration.census_hits", "count", ("enumeration.census_read", 0)),
    ("enumeration.census_misses", "count", ("enumeration.census_build", 0)),
    ("lattice.meet_s", "s", ("lattice.meet", 1)),
    ("lattice.meet_calls", "count", ("lattice.meet", 0)),
    ("lattice.join_s", "s", ("lattice.join", 1)),
    ("lattice.join_calls", "count", ("lattice.join", 0)),
    ("lattice.compare_s", "s", ("lattice.compare", 1)),
    ("lattice.compare_calls", "count", ("lattice.compare", 0)),
    ("lattice.is_trivial_s", "s", ("lattice.is_trivial", 1)),
    ("lattice.is_trivial_calls", "count", ("lattice.is_trivial", 0)),
    ("counting.asm_number_s", "s", ("counting.asm_number", 1)),
    ("counting.asm_number_calls", "count", ("counting.asm_number", 0)),
    ("counting.asm_number_dp_s", "s", ("counting.asm_number_dp", 1)),
    ("meet_census.n_min_exact_s", "s", ("meet_census.n_min_exact", 1)),
    ("meet_census.n_min_exact_calls", "count", ("meet_census.n_min_exact", 0)),
    ("meet_census.decompose_s", "s", ("meet_census.decompose", 1)),
    ("cli.import_s", "s", "cli.import_s"),
    ("cli.main_s", "s", "cli.main_s"),
    ("cli.process_overhead_s", "s", "cli.process_overhead_s"),
    ("cli.stdout_bytes", "count", "cli.stdout_bytes"),
    ("trace.queries", "count", "queries"),
)


def layer_metrics(records: dict) -> dict[str, dict]:
    """Per-layer metrics, totalled over everything the traced run did."""
    aggregates = records["aggregates"]
    derived = {
        "rows": records["rows"],
        "fill_rows": sum(s[4] for s in records["spans"] if s[0] == "enumeration.completions_fill"),
        "queries": sum(1 for s in records["spans"] if s[0] == "query"),
    }
    out = {}
    for metric, unit, source in PER_LAYER:
        if isinstance(source, tuple):
            name, field = source
            value = aggregates.get(name, (0, 0.0, 0.0))[field]
        else:
            value = derived[source] if source in derived else records["counters"].get(source, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
