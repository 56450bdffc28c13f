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
ints indexed by id (A(14) exceeds 2^63).  The index is built once per n,
by the first entry: a row (u, W), with u its first entry, has as
successors each l <= u followed by a suffix of W's successors, those that
start at u or later (past u for l = u).  W's successors fall into blocks
by first entry, all but the last of one length, blk[W], so the suffix
starts at a multiple of blk[W], and a row's run is at most u shifted
copies of runs already built.  Each copy adds l's id bit to every id of
the suffix at once, as 16-bit lanes of one Python int; the bit is clear in
each of them, so no lane carries into the next.  Since a successor's id
exceeds its row's, one sweep down the ids sums the counts.  The `"H"` ids
cap the index at n <= 16.

Enumeration and the census go through the tree depth first with one flat
walker (`_walk`), whose stack holds iterators over segments of the index.
For each level the walk keeps the tuple of the rows above it on the
current path, one concatenation per step, so rows 1, ..., n-2 are one
prefix shared by every triangle below them.  A row at level n-1 has one
successor, the bottom row, so the triangles below a prefix are it plus
each tail (row n-1, bottom row) of its row n-2.  The walk yields each
prefix with its tails, which are made once per walk: a triangle costs one
concatenation, and the deepest level needs no stack frame.  Validation is
per edge, not per triangle, once per index, per edge: the index keeps one
flag per edge, set once the pair (row, successor) has passed the pair
rule of the full check.  The walk checks a row's unflagged edges before it
goes below that row, and a pick checks the one edge it takes.  The first
pick, rank or walk makes the flags, about 260 KiB at n = 12, so counting
alone makes none, and first checks, in one pass, that every successor id
names a row of [n].  A triangle that enumeration, `unrank` or
`sample_uniform` builds is n checked edges down from the empty top row:
its rows have 1, ..., n entries, each pair passes the pair rule, and the
last row, n increasing entries of [n], is 1, ..., n.  So they build their
triangles through `MonotoneTriangle._checked`, which checks nothing more,
from the objects of the index's one row table, `rows` (row i is
rows[i]; 0.35 MiB at n = 12).  The census compares each row of a prefix
with its key row, and tallies the tails of a row n-2 by theirs once per
walk: the key row i is 1, ..., i for the distinguished row i, and
n-i+1, ..., n for the row at its maximum that `census.reversed_census`
counts.

Ranking, unranking and uniform sampling go down one path of the tree,
weighted by the completion counts (the recursive method of Nijenhuis and
Wilf).  A row with more than 16 successors has marks, the completions of
its first 16, 32, ... successors (a one-level cousin of Fenwick's
cumulative-frequency table), filled by the row's first pick or rank in
one accumulation of its counts.  A pick bisects the row's marks for the
block of 16 successors that holds the index and steps through that
block's counts, subtracting each from the index until one exceeds what is
left, so it reads at most 16 counts and builds no list; a row with at
most 16 successors is one block.  A rank step adds the mark before the
successor's block to at most 15 counts.  Room for the marks, about
130 KiB at n = 12, is made by the first row that fills them, so counting
alone makes none; they are `array("Q")` items while A(n) < 2^64, and
Python ints past it (n >= 14).

The census maps each exact distinguished-row set (as a bitmask, bit i-1 for
row i) to the number of triangles realizing it.  Its production route, the
gap products f(D), and its text format live in `census`, and the
names `CensusTable`, `RunHistogram` and `load_or_build_census` resolve here
to those objects.  `build_census`, the walk, is the census
oracle.

Default limits keep desk-scale runtimes: enumeration and `build_census` up
to n = 7 (218,348 triangles); the successor index, and with it ranking,
unranking, completion counts and sampling, up to n = 12; and 100,000
samples per `sample_uniform` call.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from itertools import accumulate, compress, islice
from operator import eq
from typing import TYPE_CHECKING, Iterator, Sequence

from .counting import DP_LIMIT_DEFAULT, ENUM_LIMIT_DEFAULT
from .errors import IndexOutOfRange, ShapeMismatch, bound_error
from .triangles import (
    MonotoneTriangle,
    Rows,
    _Frozen,
    _check_pair,
    _check_row,
    _is_int,
    _triangle,
)

if TYPE_CHECKING:
    from .census import CensusTable

INDEX_MAX_N = 16  # successor ids are array("H") items, so 2^n <= 65536
_BLOCK = 16  # successors per cumulative mark of the successor index
SAMPLE_LIMIT_DEFAULT = 100_000  # samples per call; at n = 12 about 5.5 s and 141 MiB

# The census lives in `census`.  These names resolve here to its objects on
# first use, so that enumerating or sampling does not load it.
_FROM_CENSUS = ("CensusTable", "RunHistogram", "load_or_build_census")


def __getattr__(name: str):
    if name not in _FROM_CENSUS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import census

    return getattr(census, name)


class TrianglePrefix(_Frozen):
    """The top `level` rows of a size-n triangle, identified by the last row."""

    n: int
    level: int
    row: tuple[int, ...]

    def __init__(self, n: int, level: int, row: Sequence[int]) -> None:
        row = tuple(row)
        if type(level) is not int:
            raise bound_error("TrianglePrefix", "level", level, 0)
        row = _check_row("TrianglePrefix", n, row)
        if not 0 <= level <= n:
            raise ShapeMismatch(f"level {level} outside [0, {n}]")
        if len(row) != level:
            raise ShapeMismatch(f"prefix row has {len(row)} entries, expected {level}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "row", row)


_BIT = [0] + [1 << v for v in range(INDEX_MAX_N)]  # _BIT[v]: the id bit of entry v


def _id(row: tuple[int, ...]) -> int:
    return sum(map(_BIT.__getitem__, row))


def _rows_by_mask(n: int) -> list[tuple[int, ...]]:
    """The rows of [n], indexed by their id."""
    rows: list[tuple[int, ...]] = [()]
    for v in range(1, n + 1):
        rows += [row + (v,) for row in rows]
    return rows


class _SuccessorIndex:
    """For every row of a size-n triangle, by id: the row, its completion
    count and the ids of its interlacing successors in enumeration order;
    once a pick or rank step has needed them, its block marks; and, from
    the first pick, rank or walk, a flag per edge that has passed its
    check."""

    __slots__ = ("counts", "edges", "ends", "rows", "marks", "flags")

    def __init__(self, n: int) -> None:
        # Imported here, so that a process that never builds an index (every
        # `gog` command but `sample`) does not load the extension module.
        from array import array

        size = 1 << n
        order = sys.byteorder
        # Row i's successors are edges[ends[i]:ends[i + 1]], in lex order.
        # Those of the empty row are (1,), ..., (n,).  A nonempty row is
        # (u, W), with u its first entry and W the row without it, whose id
        # is smaller, so W's run is in place.  Row i's successors are each
        # l = 1, ..., u followed by every successor of W that starts at u or
        # later (past u if l = u).  By first entry, W's run falls into blocks
        # of one length, blk[W] (1 for the empty row), but the last: what
        # follows a first entry below W's own does not depend on it.  And u
        # is below W's first entry, so those are suffixes of the run, from
        # (u - 1) blk[W] and from u blk[W].  The first is blk[i] long, the
        # length of row i's blocks for l < u.  Each copy adds l's bit to
        # every id of its suffix at once, as 16-bit lanes of one int: each
        # of those ids starts past l, so the bit is clear in it and no lane
        # carries into the next.
        self.edges = edges = array("H", _BIT[1 : n + 1])
        self.ends = ends = array("L", [0]) * (size + 1)
        ends[1] = n
        blk = array("L", [1]) * size
        for i in range(1, size):
            w = i & (i - 1)  # W
            bit_u = i ^ w
            u, d = bit_u.bit_length(), blk[w]
            # W's successors from u on, the first of them in the lowest lane.
            s, b = ends[w] + (u - 1) * d, ends[w + 1]
            blk[i] = k = b - s
            run = int.from_bytes(edges[s:b], order)
            ones = ((1 << 16 * k) - 1) // 0xFFFF  # 1 in each lane
            for bit_l in _BIT[1:u]:
                edges.frombytes((run + ones * bit_l).to_bytes(2 * k, order))
            # l = u: without the d lanes of W's successors that start at u.
            last = (run >> 16 * d) + (ones >> 16 * d) * bit_u
            edges.frombytes(last.to_bytes(2 * (k - d), order))
            ends[i + 1] = len(edges)
        # A successor has a larger id than its row (compare them entry for
        # entry from the last one down), so one sweep down the ids counts all.
        self.counts = counts = [0] * size
        counts[-1] = 1  # the forced bottom row
        for i in range(size - 2, -1, -1):
            counts[i] = sum(map(counts.__getitem__, edges[ends[i] : ends[i + 1]]))
        self.rows = _rows_by_mask(n)
        self.marks = None  # see _fill
        self.flags = None  # see _make_flags

    def _fill(self, i: int) -> Sequence[int]:
        """Fill row i's marks, after making room for every row's marks on
        first use, and return the marks.

        The completions of a row's successors before edges[p], for p =
        a + _BLOCK, a + 2 _BLOCK, ... below b, where edges[a:b] are its
        successors, are its marks, at marks[p // _BLOCK]: from a // _BLOCK + 1
        on, without gaps, and before the next row's, which start past
        b // _BLOCK.  Once filled, a row's marks are never 0, since each sums
        _BLOCK counts or more.  A mark is below the row's count, so it fits
        in a "Q" item when A(n) does.
        """
        marks = self.marks
        if marks is None:
            from array import array

            size = len(self.edges) // _BLOCK + 1
            wide = self.counts[0] >> 64  # A(n) past a "Q" item
            marks = self.marks = [0] * size if wide else array("Q", bytes(8 * size))
        a, b = self.ends[i], self.ends[i + 1]
        sums = accumulate(map(self.counts.__getitem__, self.edges[a : b - 1]))
        for at, mark in enumerate(islice(sums, _BLOCK - 1, None, _BLOCK), a // _BLOCK + 1):
            marks[at] = mark
        return marks

    def _make_flags(self) -> bytearray:
        """Zeros for every edge's flag, made on the first pick, rank or
        walk, once every successor id is known to name a row of [n], so that
        no count is read past the rows: flags[p] is set once `_check` has
        passed edges[p]."""
        j = max(self.edges)  # one pass in C
        if j >= len(self.counts):
            raise ShapeMismatch(f"successor id {j} names no row of the index")
        self.flags = bytearray(len(self.edges))
        return self.flags

    def _check(self, i: int, p: int) -> None:
        """Raise unless row edges[p], a successor of row i, passes the pair
        rule below row i; then flag it."""
        _check_pair(self.rows[i], self.rows[self.edges[p]])
        self.flags[p] = 1

    def checked(self, i: int) -> Sequence[int]:
        """The successors of row i, each edge checked unless it is flagged."""
        a, b = self.ends[i], self.ends[i + 1]
        flags = self.flags or self._make_flags()
        if flags.find(0, a, b) >= 0:
            for p in range(a, b):
                if not flags[p]:
                    self._check(i, p)
        return self.edges[a:b]

    def successors(self, i: int) -> Sequence[int]:
        return self.edges[self.ends[i] : self.ends[i + 1]]

    def pick(self, i: int, k: int) -> tuple[int, int]:
        """The successor of row i whose run of completions holds index k,
        in the enumeration order below row i, and k less the completions
        skipped to reach it.  Needs a row i with successors, so not the
        bottom row, and 0 <= k < counts[i].  The edge taken is checked
        unless it is flagged.

        The pick bisects the row's marks, filled on its first use, for the
        block of _BLOCK successors that holds k, then steps through that
        block's counts until one exceeds what is left of k; a row with at
        most _BLOCK successors, which has no marks, is one block.  Either
        way the position taken is inside row i's run, whatever the counts."""
        ends, edges, counts = self.ends, self.edges, self.counts
        a, b = ends[i], ends[i + 1]
        flags = self.flags or self._make_flags()
        lo = a // _BLOCK + 1
        hi = lo + (b - a - 1) // _BLOCK  # row i's marks are marks[lo:hi]
        if hi > lo:
            marks = self.marks
            if not (marks and marks[lo]):
                marks = self._fill(i)
            block = bisect_right(marks, k, lo, hi)
            if block > lo:
                k -= marks[block - 1]
                a += (block - lo) * _BLOCK
            b = min(a + _BLOCK, b)
        p = a
        for j in edges[a : b - 1]:
            c = counts[j]
            if k < c:
                break
            k -= c
            p += 1
        if not flags[p]:
            self._check(i, p)
        return edges[p], k

    def skipped(self, i: int, j: int) -> int:
        """The completions below row i that come before those of its successor
        j: the mark of the blocks before j's, filled on the row's first use,
        plus fewer than _BLOCK counts."""
        if self.flags is None:
            self._make_flags()  # so that no count is read past the rows
        edges = self.edges
        a = self.ends[i]
        at = edges.index(j, a, self.ends[i + 1])
        start = at - (at - a) % _BLOCK
        before = 0
        if start > a:
            marks = self.marks
            if not (marks and marks[a // _BLOCK + 1]):
                marks = self._fill(i)
            before = marks[start // _BLOCK]
        return before + sum(map(self.counts.__getitem__, edges[start:at]))


_INDEXES: dict[int, _SuccessorIndex] = {}  # n -> index, filled once per process


def _index(n: int) -> _SuccessorIndex:
    index = _INDEXES.get(n)
    if index is None:
        if n > INDEX_MAX_N:  # a cap that no `limit` raises
            raise bound_error("the successor index", "n", n, 1, INDEX_MAX_N)
        index = _INDEXES[n] = _SuccessorIndex(n)
    return index


def completions_count(prefix: TrianglePrefix, limit: int = DP_LIMIT_DEFAULT) -> int:
    """Ways to extend the prefix down to the forced bottom row.

    At level 0 this equals A(n), independently of the product formula.

    >>> completions_count(TrianglePrefix(3, 1, (2,)))
    3
    """
    if not isinstance(prefix, TrianglePrefix):  # only its constructor checks the row
        raise TypeError(f"completions_count needs a TrianglePrefix, got {type(prefix).__name__}")
    if not 1 <= prefix.n <= limit:
        raise bound_error("completions_count", "n", prefix.n, 1, limit, f"{DP_LIMIT_DEFAULT=}")
    return _index(prefix.n).counts[_id(prefix.row)]


def _walk(n: int) -> Iterator[tuple[Rows, tuple[Rows, ...]]]:
    """Depth first through the row tree, in enumeration order: for each path
    of rows 1, ..., n - 2, yield those rows and the tails (row n - 1, bottom
    row) below them, so that the size-n triangles are each prefix plus each
    of its tails.  At n = 1 the prefix is empty and the one tail is the
    bottom row.

    Every edge the walk reads is checked once per index, per edge (see
    `_SuccessorIndex.checked`), before the walk yields anything below it,
    so every adjacent pair of a triangle made from the walk has passed the
    pair rule, whatever the index holds.  Row 1 is checked as the row below
    the empty top row, which makes it one entry long, and the bottom row is
    the successor of a row n - 1, so it is 1, ..., n.  The rows are
    objects of the index's row table, exact tuples of exact ints."""
    index = _index(n)
    rows, checked = index.rows, index.checked
    if n == 1:
        yield (), ((rows[1],),)
        return

    # Every row n - 1 has one successor, the bottom row, so each triangle is
    # its rows 1 .. n - 2, shared by every triangle below row n - 2, and one
    # tail (row n - 1, bottom row) of row n - 2.  The tails of a row n - 2 are
    # made once per walk, for at most n (n - 1)/2 such rows.
    depth = n - 2
    prefix = [()] * (depth + 1)  # prefix[k]: rows 1 .. k of the current path
    tails: dict[int, tuple[Rows, ...]] = {}
    stack: list[Iterator[int]] = []  # the rows left at levels 1 .. len(stack)
    i = 0  # the empty top row
    while True:
        level = len(stack)
        if level < depth:
            stack.append(iter(checked(i)))
        else:
            ends = tails.get(i)
            if ends is None:
                # From a list, so that the tuple is made at its length.  A
                # tuple of a generator starts at a guessed length and shrinks,
                # and once freed it joins the free list of its final length,
                # not the one it came from: the process grew by about 1 KB
                # per walk, up to the free lists' cap.
                ends = tails[i] = tuple([(rows[j], rows[checked(j)[0]]) for j in checked(i)])
            yield prefix[level], ends
        # Step the deepest level that has rows left; stop when none has.
        while stack:
            i = next(stack[-1], None)
            if i is not None:
                level = len(stack)
                prefix[level] = prefix[level - 1] + (rows[i],)
                break
            stack.pop()
        else:
            return


def enumerate_triangles(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> Iterator[MonotoneTriangle]:
    """All size-n triangles in reading-sequence lexicographic order."""
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("enumerate_triangles", "n", n, 1, limit, f"{ENUM_LIMIT_DEFAULT=}")
    _index(n)  # built, or refused past INDEX_MAX_N, on the call
    # The walk checks every edge it reads, so no triangle needs more.
    rows = (prefix + tail for prefix, ends in _walk(n) for tail in ends)
    return map(MonotoneTriangle._checked, rows)


def rank(t: MonotoneTriangle, limit: int = DP_LIMIT_DEFAULT) -> int:
    """Position of t in the enumeration order; rank of the minimal triangle is 0."""
    if not 1 <= _triangle("rank", t).n <= limit:
        raise bound_error("rank", "n", t.n, 1, limit, f"{DP_LIMIT_DEFAULT=}")
    index = _index(t.n)
    r = 0
    prev = 0
    for row in t.rows:
        i = _id(row)
        r += index.skipped(prev, i)
        prev = i
    return r


def unrank(n: int, k: int, limit: int = DP_LIMIT_DEFAULT) -> MonotoneTriangle:
    """The triangle at position k of the enumeration order, for an int k
    with 0 <= k < A(n)."""
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("unrank", "n", n, 1, limit, f"{DP_LIMIT_DEFAULT=}")
    if not _is_int(k):
        raise IndexOutOfRange(f"rank must be an int, got {type(k).__name__} {k!r}")
    index = _index(n)
    total = index.counts[0]
    if not 0 <= k < total:
        raise IndexOutOfRange(f"rank {k} outside [0, {total})")
    rows: list[tuple[int, ...]] = []
    i = 0
    for _ in range(n):
        i, k = index.pick(i, k)
        rows.append(index.rows[i])
    return MonotoneTriangle._checked(tuple(rows))  # n checked edges


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
    The seed is an exact int, of either sign.
    """
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("sample_uniform", "n", n, 1, limit, f"{DP_LIMIT_DEFAULT=}")
    if type(count) is not int or not 1 <= count <= count_limit:
        raise bound_error(
            "sample_uniform", "count", count, 1, count_limit,
            f"{SAMPLE_LIMIT_DEFAULT=}", knob="count_limit",
        )
    if type(seed) is not int:  # None would draw from the system's entropy
        raise bound_error("sample_uniform", "seed", seed, 0)
    index = _index(n)
    counts, table = index.counts, index.rows
    randrange = random.Random(seed).randrange
    out = []
    for _ in range(count):
        rows: list[tuple[int, ...]] = []
        i = 0
        for _ in range(n):
            i = index.pick(i, randrange(counts[i]))[0]
            rows.append(table[i])
        out.append(MonotoneTriangle._checked(tuple(rows)))  # n checked edges
    return out


# ---------------------------------------------------------------------------
# Distinguished-row census


def _census(n: int, keys: list[tuple[int, ...]]) -> CensusTable:
    """The size-n triangles counted by the set of rows i equal to keys[i - 1],
    as a census keyed by bit i - 1 for row i."""
    bits = [1 << i for i in range(n)]
    counts: dict[int, int] = {}
    # The walk's tails of a row n - 2 are one tuple for the whole walk, which
    # keeps it alive, so its id names it.  Each tallies its tails by their
    # bits (rows n - 1 and n; the bottom row alone at n = 1) once.
    tallies: dict[int, dict[int, int]] = {}
    for prefix, ends in _walk(n):
        tally = tallies.get(id(ends))
        if tally is None:
            tally = tallies[id(ends)] = {}
            for tail in ends:
                mask = sum(compress(bits[-2:], map(eq, tail, keys[-2:])))
                tally[mask] = tally.get(mask, 0) + 1
        above = sum(compress(bits, map(eq, prefix, keys)))
        for mask, count in tally.items():
            counts[above | mask] = counts.get(above | mask, 0) + count
    from .census import CensusTable

    return CensusTable(n, dict(sorted(counts.items())))


def build_census(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> CensusTable:
    """Exact distinguished-set census of the size-n triangles, by walking
    every triangle: the oracle for `census.gap_product_census`."""
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("build_census", "n", n, 1, limit, f"{ENUM_LIMIT_DEFAULT=}")
    # Row i is distinguished iff it is 1, ..., i.
    return _census(n, [tuple(range(1, i + 1)) for i in range(1, n + 1)])
