"""Exhaustive enumeration, ranking, exact sampling, and the row census.

The canonical enumeration order is lexicographic on the reading sequence
(rows top to bottom, left to right), so rank 0 is the minimal triangle and
rank A(n)-1 the maximal one.  Everything here walks one row-by-row tree: a
row's children are the rows that can sit directly below it, in
lexicographic order.  That tree is held once per n as a successor index.
A row is any subset of [n] and its id is its bitmask (bit v-1 for entry v),
so ids are dense, the empty top row is id 0 and the forced bottom row
1, ..., n is id 2^n - 1.  The ids of each row's successors lie in one flat
`array("H")`, in enumeration order and by row id, and the completion counts
(the ways to finish a triangle below a row, which depend only on that row
because interlacing constrains adjacent rows only) are a list of Python
ints indexed by id (A(14) exceeds 2^63).  The index is built once per n:
each row's successors follow from those of the row without its last entry,
and since a successor's id exceeds its row's, one sweep down the ids sums
the counts.  The `"H"` ids cap the index at n <= 16.

Enumeration and the census go through the tree depth first with one flat
walker (`_walk`), whose stack holds iterators over segments of the index
and which yields the row ids of each triangle; a row at level n-1 has one
successor, the bottom row, so the deepest level needs no stack frame.
Enumeration maps the ids to the index's shared row tuples, and every
triangle is still built through `MonotoneTriangle` and fully validated; the
census reads the distinguished rows off the ids (row i is 1, ..., i iff its
id is 2^i - 1).  Ranking, unranking and uniform sampling go down one path of
the tree, weighted by the completion counts, each step a scan of the row's
segment in C: `pick` accumulates the counts and bisects for the successor
whose block of completions holds an index, and a rank step sums the counts
before the successor's position.

The census maps each exact distinguished-row set (as a bitmask, bit i-1 for
row i) to the number of triangles realizing it, and persists to a text file:

    MTCENSUS v1 n=<n> total=<decimal A(n)>
    <bitmask-hex> <decimal count>          (ascending bitmask)

Default limits keep desk-scale runtimes: enumeration and the census up to
n = 7 (218,348 triangles); the successor index, and with it ranking,
unranking, completion counts and sampling, up to n = 12; and 100,000
samples per `sample_uniform` call.
"""

from __future__ import annotations

import os
import random
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import eq
from pathlib import Path
from typing import Iterator, Sequence

from .counting import DP_LIMIT_DEFAULT, ENUM_LIMIT_DEFAULT, asm_number
from .errors import FormatError, IndexOutOfRange, LimitExceeded, StrictIncreaseViolated, ShapeMismatch
from .triangles import MonotoneTriangle, _mask_max_run

INDEX_MAX_N = 16  # successor ids are array("H") items, so 2^n <= 65536
SAMPLE_LIMIT_DEFAULT = 100_000  # samples per call; at n = 12 about 13 s and 140 MiB
CACHE_ENV = "GOG_CACHE_DIR"


@dataclass(frozen=True)
class TrianglePrefix:
    """The top `level` rows of a size-n triangle, identified by the last row."""

    n: int
    level: int
    row: tuple[int, ...]

    def __post_init__(self) -> None:
        row = tuple(self.row)
        object.__setattr__(self, "row", row)
        if not 0 <= self.level <= self.n:
            raise ShapeMismatch(f"level {self.level} outside [0, {self.n}]")
        if len(row) != self.level:
            raise ShapeMismatch(f"prefix row has {len(row)} entries, expected {self.level}")
        for a, b in zip(row, row[1:]):
            if a >= b:
                raise StrictIncreaseViolated(f"prefix row not strictly increasing: {row}")
        if row and (row[0] < 1 or row[-1] > self.n):
            raise ShapeMismatch(f"prefix row entries outside [1, {self.n}]: {row}")


_BIT = [0] + [1 << v for v in range(INDEX_MAX_N)]  # _BIT[v]: the id bit of entry v


def _id(row: tuple[int, ...]) -> int:
    return sum(map(_BIT.__getitem__, row))


def _rows_by_mask(first: int, last: int) -> list[tuple[int, ...]]:
    """The rows with entries in first..last, indexed by their bitmask (bit 0
    for entry `first`)."""
    rows: list[tuple[int, ...]] = [()]
    for v in range(first, last + 1):
        rows += [row + (v,) for row in rows]
    return rows


class _SuccessorIndex:
    """For every row of a size-n triangle, by id: its completion count and
    the ids of its interlacing successors in enumeration order."""

    __slots__ = ("counts", "edges", "ends", "low", "high")

    def __init__(self, n: int) -> None:
        # Imported here, so that a process that never builds an index (every
        # `gog` command but `sample`) does not load the extension module.
        from array import array

        size = 1 << n
        bits = _BIT[1 : n + 1]
        # Row i's successors are edges[ends[i]:ends[i + 1]].  Those of the
        # empty row are (1,), ..., (n,).  Those of a row with last entry b are
        # the successors p of the row without b that end at or below b, in
        # order, each followed by every entry from b (from b + 1 if p ends at
        # b) to n; the row without b has a smaller id, so its run is in place.
        self.edges = edges = array("H", bits)
        self.ends = ends = array("L", [0]) * (size + 1)
        ends[1] = n
        for i in range(1, size):
            b = i.bit_length()
            top = 1 << (b - 1)  # the bit of entry b
            end = top << 1  # p < end: p ends at or below b
            from_b, past_b = bits[b - 1 :], bits[b:]
            edges.extend([
                p + bit
                for p in self.successors(i ^ top)
                if p < end
                for bit in (from_b if p < top else past_b)
            ])
            ends[i + 1] = len(edges)
        # A successor has a larger id than its row (compare them entry for
        # entry from the last one down), so one sweep down the ids counts all.
        self.counts = counts = [0] * size
        counts[-1] = 1  # the forced bottom row
        for i in range(size - 2, -1, -1):
            counts[i] = sum(map(counts.__getitem__, self.successors(i)))
        self.low = _rows_by_mask(1, min(n, 8))
        self.high = _rows_by_mask(9, n)

    def row(self, i: int) -> tuple[int, ...]:
        return self.low[i & 0xFF] + self.high[i >> 8]

    def rows(self) -> list[tuple[int, ...]]:
        """Every row, by id."""
        if len(self.high) == 1:  # n <= 8
            return self.low
        return list(map(self.row, range(len(self.counts))))

    def successors(self, i: int) -> Sequence[int]:
        return self.edges[self.ends[i] : self.ends[i + 1]]

    def pick(self, i: int, k: int) -> tuple[int, int]:
        """The successor of row i whose block of completions holds index k,
        in the enumeration order below row i, and k less the completions
        skipped to reach it.  Needs 0 <= k < counts[i]."""
        succ = self.successors(i)
        ends = list(accumulate(map(self.counts.__getitem__, succ), initial=0))
        j = bisect_right(ends, k) - 1
        return succ[j], k - ends[j]

    def skipped(self, i: int, j: int) -> int:
        """The completions below row i that come before those of its successor j."""
        succ = self.successors(i)
        return sum(map(self.counts.__getitem__, succ[: succ.index(j)]))


_INDEXES: dict[int, _SuccessorIndex] = {}  # n -> index, filled once per process


def _index(n: int) -> _SuccessorIndex:
    index = _INDEXES.get(n)
    if index is None:
        index = _INDEXES[n] = _SuccessorIndex(n)
    return index


def _check_index_cap(n: int) -> None:
    if n > INDEX_MAX_N:
        raise LimitExceeded(f"the successor index holds n <= {INDEX_MAX_N}, got n={n}")


def _check_index_size(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise LimitExceeded(
            f"{what} limit is {limit}, got n={n}; raise `limit` "
            f"(default DP_LIMIT_DEFAULT = {DP_LIMIT_DEFAULT}, at most {INDEX_MAX_N})"
        )
    _check_index_cap(n)


def completions_count(prefix: TrianglePrefix, limit: int = DP_LIMIT_DEFAULT) -> int:
    """Ways to extend the prefix down to the forced bottom row.

    At level 0 this equals A(n), independently of the product formula.

    >>> completions_count(TrianglePrefix(3, 1, (2,)))
    3
    """
    _check_index_size(prefix.n, limit, "completions_count")
    return _index(prefix.n).counts[_id(prefix.row)]


def _walk(n: int) -> Iterator[list[int]]:
    """Depth first through the row tree, in enumeration order: yield the row
    ids of each size-n triangle as one list, which the walk goes on to reuse."""
    successors = _index(n).successors
    ids = [(1 << n) - 1] * n  # the bottom row is forced
    # Every row at this level has one successor: the bottom row.  (At n = 1
    # the level is -1, and the one row is the bottom row.)
    last = n - 2
    stack: list[Iterator[int]] = []  # the rows left at levels 0 .. len(stack) - 1
    i = 0  # the empty top row
    while True:
        run = successors(i)
        if len(stack) < last:
            stack.append(iter(run))
        else:
            for i in run:
                ids[last] = i
                yield ids
        # Step the deepest level that has rows left; stop when none has.
        while stack:
            i = next(stack[-1], None)
            if i is not None:
                ids[len(stack) - 1] = i
                break
            stack.pop()
        else:
            return


def _check_enum_size(n: int, limit: int, what: str) -> None:
    if n < 1:
        raise ValueError(f"{what} needs n >= 1, got {n}")
    if n > limit:
        raise LimitExceeded(f"enumeration limit is {limit}, got n={n}")
    _check_index_cap(n)


def enumerate_triangles(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> Iterator[MonotoneTriangle]:
    """All size-n triangles in reading-sequence lexicographic order."""
    _check_enum_size(n, limit, "enumerate_triangles")
    row = _index(n).rows().__getitem__
    return (MonotoneTriangle(tuple(map(row, ids))) for ids in _walk(n))


def rank(t: MonotoneTriangle, limit: int = DP_LIMIT_DEFAULT) -> int:
    """Position of t in the enumeration order; rank of the minimal triangle is 0."""
    _check_index_size(t.n, limit, "rank")
    index = _index(t.n)
    r = 0
    prev = 0
    for row in t.rows:
        i = _id(row)
        r += index.skipped(prev, i)
        prev = i
    return r


def unrank(n: int, k: int, limit: int = DP_LIMIT_DEFAULT) -> MonotoneTriangle:
    """The triangle at position k of the enumeration order, 0 <= k < A(n)."""
    if n < 1:
        raise ValueError(f"unrank needs n >= 1, got {n}")
    _check_index_size(n, limit, "unrank")
    index = _index(n)
    total = index.counts[0]
    if not 0 <= k < total:
        raise IndexOutOfRange(f"rank {k} outside [0, {total})")
    rows: list[tuple[int, ...]] = []
    i = 0
    for _ in range(n):
        i, k = index.pick(i, k)
        rows.append(index.row(i))
    return MonotoneTriangle(tuple(rows))


def sample_uniform(
    n: int,
    count: int,
    seed: int,
    limit: int = DP_LIMIT_DEFAULT,
    count_limit: int = SAMPLE_LIMIT_DEFAULT,
) -> list[MonotoneTriangle]:
    """Exactly uniform samples from the size-n triangles, deterministic in seed.

    Each row is chosen sequentially with probability proportional to the
    completion count below it, so no rejection and no rounding occur: one
    `randrange(completions of the previous row)` per level picks the row.
    """
    if n < 1:
        raise ValueError(f"sample_uniform needs n >= 1, got {n}")
    if count < 1:
        raise ValueError(f"sample_uniform needs count >= 1, got {count}")
    if count > count_limit:
        raise LimitExceeded(
            f"sampling count limit is {count_limit}, got count={count}; raise `count_limit` "
            f"(default SAMPLE_LIMIT_DEFAULT = {SAMPLE_LIMIT_DEFAULT})"
        )
    _check_index_size(n, limit, "sampling")
    index = _index(n)
    counts = index.counts
    randrange = random.Random(seed).randrange
    out = []
    for _ in range(count):
        rows: list[tuple[int, ...]] = []
        i = 0
        for _ in range(n):
            i = index.pick(i, randrange(counts[i]))[0]
            rows.append(index.row(i))
        out.append(MonotoneTriangle(tuple(rows)))
    return out


# ---------------------------------------------------------------------------
# Distinguished-row census


@dataclass
class RunHistogram:
    """Triangle counts bucketed by the longest consecutive distinguished block."""

    n: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def at_most(self, length: int) -> int:
        return sum(c for run, c in self.counts.items() if run <= length)


@dataclass
class CensusTable:
    """Exact-set counts: mask of the distinguished rows -> number of triangles.

    Every key has bit n-1 set (the bottom row is always distinguished) and
    the values partition the size-n triangles.
    """

    n: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def containment_count(self, mask: int) -> int:
        """Triangles whose distinguished set contains every row in `mask`."""
        return sum(c for m, c in self.counts.items() if m & mask == mask)

    def avoid_count(self, mask: int) -> int:
        """Triangles whose distinguished set avoids every row in `mask`."""
        return sum(c for m, c in self.counts.items() if m & mask == 0)

    def run_histogram(self) -> RunHistogram:
        hist: dict[int, int] = {}
        for mask, c in self.counts.items():
            run = _mask_max_run(mask)
            hist[run] = hist.get(run, 0) + c
        return RunHistogram(self.n, dict(sorted(hist.items())))

    def to_text(self) -> str:
        lines = [f"MTCENSUS v1 n={self.n} total={self.total()}"]
        for mask in sorted(self.counts):
            lines.append(f"{mask:x} {self.counts[mask]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CensusTable":
        lines = text.splitlines()
        if not lines:
            raise FormatError("empty census file")
        head = lines[0].split()
        if (
            len(head) != 4
            or head[0] != "MTCENSUS"
            or head[1] != "v1"
            or not head[2].startswith("n=")
            or not head[3].startswith("total=")
        ):
            raise FormatError(f"bad census header: {lines[0]!r}")
        try:
            n = int(head[2][2:])
            total = int(head[3][6:])
        except ValueError as exc:
            raise FormatError(f"bad census header: {lines[0]!r}") from exc
        if n < 1:
            raise FormatError(f"bad census size n={n} in {lines[0]!r}")
        counts: dict[int, int] = {}
        previous = -1
        for line in lines[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"bad census line: {line!r}")
            try:
                mask = int(parts[0], 16)
                count = int(parts[1])
            except ValueError as exc:
                raise FormatError(f"bad census line: {line!r}") from exc
            if mask <= previous:
                raise FormatError(f"census masks not ascending at {line!r}")
            if count <= 0:
                raise FormatError(f"nonpositive census count at {line!r}")
            if mask >> n:
                raise FormatError(f"mask {mask:#x} has rows outside [1, {n}]")
            if not mask >> (n - 1) & 1:
                raise FormatError(f"mask {mask:#x} lacks the bottom row {n}")
            previous = mask
            counts[mask] = count
        if sum(counts.values()) != total:
            raise FormatError(
                f"census counts sum to {sum(counts.values())}, header says {total}"
            )
        # P(m) >= 1 for every gap m, so every distinguished set occurs; this
        # also keeps a forged header from forcing A(n) for a large n.
        if len(counts) != 1 << (n - 1):
            raise FormatError(f"census for n={n} lacks some of the 2^{n - 1} distinguished sets")
        if total != asm_number(n):
            raise FormatError(f"census total {total} is not A({n}) = {asm_number(n)}")
        return cls(n, counts)

    def write(self, path: Path | str) -> None:
        """Write atomically: a reader sees the old file or the whole new one."""
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(self.to_text())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def read(cls, path: Path | str) -> "CensusTable":
        return cls.from_text(Path(path).read_text())


def build_census(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> CensusTable:
    """Exact distinguished-set census of the size-n triangles."""
    _check_enum_size(n, limit, "build_census")
    # Row i is distinguished iff it is 1, ..., i, whose id is 2^i - 1.
    stairs = [(1 << i) - 1 for i in range(1, n + 1)]
    bits = [1 << i for i in range(n)]
    counts: dict[int, int] = {}
    for ids in _walk(n):
        mask = sum(compress(bits, map(eq, ids, stairs)))
        counts[mask] = counts.get(mask, 0) + 1
    return CensusTable(n, dict(sorted(counts.items())))


# ---------------------------------------------------------------------------
# On-disk persistence


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """CLI flag, then the GOG_CACHE_DIR environment variable, then ./.cache."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path(".cache")


def census_path(cache_dir: Path, n: int) -> Path:
    return cache_dir / f"mtcensus-n{n}.txt"


def load_or_build_census(
    n: int,
    cache_dir: str | os.PathLike | None = None,
    limit: int = ENUM_LIMIT_DEFAULT,
) -> CensusTable:
    """Read the census from the cache if present, otherwise build and persist.

    The file is derived from n alone, so one that does not parse, or that
    holds a census for another n, is treated as a miss: it is rebuilt and
    replaced, with a warning that names it.
    """
    directory = resolve_cache_dir(cache_dir)
    path = census_path(directory, n)
    if path.is_file():
        try:
            table = CensusTable.read(path)
        except (FormatError, UnicodeDecodeError) as exc:
            problem = str(exc)
        else:
            if table.n == n:
                return table
            problem = f"it holds a census for n={table.n}"
        warnings.warn(f"rebuilding the census cache {path}: {problem}", stacklevel=2)
    table = build_census(n, limit=limit)
    directory.mkdir(parents=True, exist_ok=True)
    table.write(path)
    return table
