"""Exhaustive enumeration, ranking, exact sampling, and the row census.

The canonical enumeration order is lexicographic on the reading sequence
(rows top to bottom, left to right), so rank 0 is the minimal triangle and
rank A(n)-1 the maximal one.  Everything here walks one row-by-row tree,
whose children are the `interlacing_successors` of a row.  Enumeration and
the census go through it depth first with one flat walker (`_walk`) that
keeps an explicit stack of successor streams.  Ranking, unranking and
uniform sampling go down one path of it, weighted by completion counts: the
number of ways to finish a triangle depends only on the last fixed row,
because interlacing is a constraint between adjacent rows only, so one
table per n, keyed by the row itself and seeded with the forced bottom row,
holds every count, and `_pick` chooses the row whose block of completions
holds a given index.

The census maps each exact distinguished-row set (as a bitmask, bit i-1 for
row i) to the number of triangles realizing it, and persists to a text file:

    MTCENSUS v1 n=<n> total=<decimal A(n)>
    <bitmask-hex> <decimal count>          (ascending bitmask)

Default limits keep desk-scale runtimes: enumeration up to n = 7 (218,348
triangles), completion-count DP and sampling up to n = 12.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import compress
from operator import eq
from pathlib import Path
from typing import Iterator

from .counting import DP_LIMIT_DEFAULT, asm_number
from .errors import FormatError, IndexOutOfRange, LimitExceeded, StrictIncreaseViolated, ShapeMismatch
from .triangles import MonotoneTriangle, _mask_max_run, interlacing_successors

ENUM_LIMIT_DEFAULT = 7
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


_COMPLETIONS: dict[int, dict[tuple[int, ...], int]] = {}  # n -> {row: count}; idempotent fill


def _completions(n: int, row: tuple[int, ...]) -> int:
    table = _COMPLETIONS.get(n)
    if table is None:
        table = _COMPLETIONS[n] = {tuple(range(1, n + 1)): 1}  # the forced bottom row

    def count(row: tuple[int, ...]) -> int:
        cached = table.get(row)
        if cached is None:
            cached = table[row] = sum(map(count, interlacing_successors(row, n)))
        return cached

    return count(row)


def _filled(n: int) -> dict[tuple[int, ...], int]:
    """The completion table for size n with every row counted."""
    _completions(n, ())
    return _COMPLETIONS[n]


def completions_count(prefix: TrianglePrefix) -> int:
    """Ways to extend the prefix down to the forced bottom row.

    At level 0 this equals A(n), independently of the product formula.

    >>> completions_count(TrianglePrefix(3, 1, (2,)))
    3
    """
    return _completions(prefix.n, prefix.row)


def _pick(n: int, prev: tuple[int, ...], k: int) -> tuple[tuple[int, ...], int]:
    """The successor of `prev` whose block of completions holds index k, in
    the enumeration order below `prev`, and k less the completions skipped
    to reach it.  Needs 0 <= k < completions of `prev`, already counted."""
    table = _COMPLETIONS[n]
    for cand in interlacing_successors(prev, n):
        c = table[cand]
        if k < c:
            return cand, k
        k -= c
    raise IndexOutOfRange(f"index beyond the completions of row {prev}")


def _walk(n: int) -> Iterator[list[tuple[int, ...]]]:
    """Depth first through the row tree, in enumeration order: yield the rows
    of each size-n triangle as one list, which the walk goes on to reuse."""
    rows: list[tuple[int, ...]] = []
    stack = [interlacing_successors((), n)]
    while stack:
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
            if rows:
                rows.pop()
        elif len(stack) == n:
            rows.append(row)
            yield rows
            rows.pop()
        else:
            rows.append(row)
            stack.append(interlacing_successors(row, n))


def _check_enum_size(n: int, limit: int, what: str) -> None:
    if n < 1:
        raise ValueError(f"{what} needs n >= 1, got {n}")
    if n > limit:
        raise LimitExceeded(f"enumeration limit is {limit}, got n={n}")


def enumerate_triangles(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> Iterator[MonotoneTriangle]:
    """All size-n triangles in reading-sequence lexicographic order."""
    _check_enum_size(n, limit, "enumerate_triangles")
    return (MonotoneTriangle(tuple(rows)) for rows in _walk(n))


def rank(t: MonotoneTriangle) -> int:
    """Position of t in the enumeration order; rank of the minimal triangle is 0."""
    n = t.n
    table = _filled(n)
    r = 0
    prev: tuple[int, ...] = ()
    for target in t.rows:
        for cand in interlacing_successors(prev, n):
            if cand == target:
                break
            r += table[cand]
        prev = target
    return r


def unrank(n: int, k: int) -> MonotoneTriangle:
    """The triangle at position k of the enumeration order, 0 <= k < A(n)."""
    if n < 1:
        raise ValueError(f"unrank needs n >= 1, got {n}")
    total = _filled(n)[()]
    if not 0 <= k < total:
        raise IndexOutOfRange(f"rank {k} outside [0, {total})")
    rows: list[tuple[int, ...]] = []
    prev: tuple[int, ...] = ()
    for _ in range(n):
        prev, k = _pick(n, prev, k)
        rows.append(prev)
    return MonotoneTriangle(tuple(rows))


def sample_uniform(
    n: int, count: int, seed: int, limit: int = DP_LIMIT_DEFAULT
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
    if n > limit:
        raise LimitExceeded(f"sampling limit is {limit}, got n={n}")
    table = _filled(n)
    randrange = random.Random(seed).randrange
    out = []
    for _ in range(count):
        rows: list[tuple[int, ...]] = []
        prev: tuple[int, ...] = ()
        for _ in range(n):
            prev = _pick(n, prev, randrange(table[prev]))[0]
            rows.append(prev)
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
    stairs = [tuple(range(1, i + 1)) for i in range(1, n + 1)]
    bits = [1 << i for i in range(n)]
    counts: dict[int, int] = {}
    for rows in _walk(n):
        mask = sum(compress(bits, map(eq, rows, stairs)))
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
    """Read the census from the cache if present, otherwise build and persist."""
    directory = resolve_cache_dir(cache_dir)
    path = census_path(directory, n)
    if path.is_file():
        table = CensusTable.read(path)
        if table.n != n:
            raise FormatError(f"{path} holds a census for n={table.n}, expected {n}")
        return table
    table = build_census(n, limit=limit)
    directory.mkdir(parents=True, exist_ok=True)
    table.write(path)
    return table
