"""Exhaustive enumeration, ranking, exact sampling, and the row census.

The canonical enumeration order is lexicographic on the reading sequence
(rows top to bottom, left to right), so rank 0 is the minimal triangle and
rank A(n)-1 the maximal one.  Ranking, unranking, and uniform sampling all
walk the same row-by-row tree, weighted by memoized completion counts: the
number of ways to finish a triangle depends only on the last fixed row,
because interlacing is a constraint between adjacent rows only.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .counting import asm_number
from .errors import FormatError, IndexOutOfRange, LimitExceeded, StrictIncreaseViolated, ShapeMismatch
from .triangles import MonotoneTriangle, _mask_max_run, interlacing_successors

ENUM_LIMIT_DEFAULT = 7
DP_LIMIT_DEFAULT = 12
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


def _row_mask(row: tuple[int, ...]) -> int:
    mask = 0
    for v in row:
        mask |= 1 << (v - 1)
    return mask


_COMPLETIONS: dict[tuple[int, int], int] = {}  # (n, row bitmask) -> count; idempotent fill


def _completions(n: int, row: tuple[int, ...]) -> int:
    if len(row) == n:
        return 1
    key = (n, _row_mask(row))
    cached = _COMPLETIONS.get(key)
    if cached is None:
        cached = sum(_completions(n, succ) for succ in interlacing_successors(row, n))
        _COMPLETIONS[key] = cached
    return cached


def completions_count(prefix: TrianglePrefix) -> int:
    """Ways to extend the prefix down to the forced bottom row.

    At level 0 this equals A(n), independently of the product formula.

    >>> completions_count(TrianglePrefix(3, 1, (2,)))
    3
    """
    return _completions(prefix.n, prefix.row)


def enumerate_triangles(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> Iterator[MonotoneTriangle]:
    """All size-n triangles in reading-sequence lexicographic order."""
    if n < 1:
        raise ValueError(f"enumerate_triangles needs n >= 1, got {n}")
    if n > limit:
        raise LimitExceeded(f"enumeration limit is {limit}, got n={n}")
    return _enumerate_from(n, range(1, n + 1))


def _enumerate_from(n: int, tops: Iterable[int]) -> Iterator[MonotoneTriangle]:
    rows: list[tuple[int, ...]] = []

    def descend(level: int, row: tuple[int, ...]) -> Iterator[MonotoneTriangle]:
        rows.append(row)
        if level == n:
            yield MonotoneTriangle(tuple(rows))
        else:
            for succ in interlacing_successors(row, n):
                yield from descend(level + 1, succ)
        rows.pop()

    for top in tops:
        yield from descend(1, (top,))


def _enum_worker(args: tuple[int, tuple[int, ...]]) -> list[MonotoneTriangle]:
    n, tops = args
    return list(_enumerate_from(n, tops))


def enumerate_triangles_partitioned(
    n: int, workers: int, limit: int = ENUM_LIMIT_DEFAULT
) -> Iterator[MonotoneTriangle]:
    """Same stream as `enumerate_triangles`, partitioned by top-row value
    across a process pool and merged back in ascending top order."""
    if workers <= 1:
        yield from enumerate_triangles(n, limit)
        return
    if n < 1:
        raise ValueError(f"enumerate_triangles needs n >= 1, got {n}")
    if n > limit:
        raise LimitExceeded(f"enumeration limit is {limit}, got n={n}")
    jobs = [(n, (top,)) for top in range(1, n + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for batch in pool.map(_enum_worker, jobs):
            yield from batch


def rank(t: MonotoneTriangle) -> int:
    """Position of t in the enumeration order; rank of the minimal triangle is 0."""
    n = t.n
    r = 0
    prev: tuple[int, ...] = ()
    for level in range(1, n + 1):
        target = t.rows[level - 1]
        for cand in interlacing_successors(prev, n):
            if cand == target:
                break
            r += _completions(n, cand)
        prev = target
    return r


def unrank(n: int, k: int) -> MonotoneTriangle:
    """The triangle at position k of the enumeration order, 0 <= k < A(n)."""
    if n < 1:
        raise ValueError(f"unrank needs n >= 1, got {n}")
    total = _completions(n, ())
    if not 0 <= k < total:
        raise IndexOutOfRange(f"rank {k} outside [0, {total})")
    rows: list[tuple[int, ...]] = []
    prev: tuple[int, ...] = ()
    for _ in range(n):
        for cand in interlacing_successors(prev, n):
            c = _completions(n, cand)
            if k < c:
                rows.append(cand)
                prev = cand
                break
            k -= c
    return MonotoneTriangle(tuple(rows))


def sample_uniform(
    n: int, count: int, seed: int, limit: int = DP_LIMIT_DEFAULT
) -> list[MonotoneTriangle]:
    """Exactly uniform samples from the size-n triangles, deterministic in seed.

    Each row is chosen sequentially with probability proportional to the
    completion count below it, so no rejection and no rounding occur.
    """
    if n < 1:
        raise ValueError(f"sample_uniform needs n >= 1, got {n}")
    if count < 1:
        raise ValueError(f"sample_uniform needs count >= 1, got {count}")
    if n > limit:
        raise LimitExceeded(f"sampling limit is {limit}, got n={n}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows: list[tuple[int, ...]] = []
        prev: tuple[int, ...] = ()
        for _ in range(n):
            u = rng.randrange(_completions(n, prev))
            for cand in interlacing_successors(prev, n):
                c = _completions(n, cand)
                if u < c:
                    rows.append(cand)
                    prev = cand
                    break
                u -= c
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


def _census_counts(n: int, tops: Iterable[int]) -> dict[int, int]:
    stairs = tuple(tuple(range(1, i + 1)) for i in range(n + 1))
    counts: dict[int, int] = {}

    def descend(level: int, row: tuple[int, ...], mask: int) -> None:
        if level == n:
            counts[mask] = counts.get(mask, 0) + 1
            return
        for succ in interlacing_successors(row, n):
            bit = 1 << level if succ == stairs[level + 1] else 0
            descend(level + 1, succ, mask | bit)

    for top in tops:
        descend(1, (top,), 1 if top == 1 else 0)
    return counts


def _census_worker(args: tuple[int, tuple[int, ...]]) -> dict[int, int]:
    return _census_counts(*args)


def build_census(
    n: int, limit: int = ENUM_LIMIT_DEFAULT, workers: int = 1
) -> CensusTable:
    """Exact distinguished-set census of the size-n triangles."""
    if n < 1:
        raise ValueError(f"build_census needs n >= 1, got {n}")
    if n > limit:
        raise LimitExceeded(f"enumeration limit is {limit}, got n={n}")
    if workers <= 1:
        counts = _census_counts(n, range(1, n + 1))
    else:
        jobs = [(n, (top,)) for top in range(1, n + 1)]
        counts = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for partial in pool.map(_census_worker, jobs):
                for mask, c in partial.items():
                    counts[mask] = counts.get(mask, 0) + c
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
    workers: int = 1,
) -> CensusTable:
    """Read the census from the cache if present, otherwise build and persist."""
    directory = resolve_cache_dir(cache_dir)
    path = census_path(directory, n)
    if path.is_file():
        table = CensusTable.read(path)
        if table.n != n:
            raise FormatError(f"{path} holds a census for n={table.n}, expected {n}")
        return table
    table = build_census(n, limit=limit, workers=workers)
    directory.mkdir(parents=True, exist_ok=True)
    table.write(path)
    return table
