"""Monotone triangles, their row sets, their successor rows and their text.

A monotone triangle of size n is a triangular array with i entries in row i,
all taken from [n] = {1, ..., n}, whose rows strictly increase, whose
adjacent rows interlace (a(i,j) <= a(i-1,j) <= a(i,j+1)), and whose bottom
row is therefore forced to be 1, 2, ..., n.  Its companion matrix forms,
the column-sum matrix and the alternating-sign matrix, and permutations
live in `matrices`, which the `to_*` and `from_*` conversions here load when
they are called; their names also resolve here, on first use.

All public interfaces and error positions are 1-based, matching the usual
a(i,j) indexing; storage is 0-based tuples.  Values are immutable after
construction and every constructor validates eagerly.  There is one
triangle check, `_validate_rows`, a loop in reading order, and every
triangle read from outside the package goes through it once.  Triangles
that the package builds from checked edges of its successor index
(enumeration, `unrank`, `sample_uniform`) or by meet and join are built
through `MonotoneTriangle._checked` and go through none.

>>> t = MonotoneTriangle(((3,), (2, 4), (1, 3, 4), (1, 2, 3, 4)))
>>> t.distinguished_rows().members, t.is_permutation_triangle()
((4,), False)
"""

from __future__ import annotations

from itertools import chain, islice
from operator import index, lt
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
    BadBottomRow,
    FormatError,
    InterlacingViolated,
    RowOutOfRange,
    ShapeMismatch,
    SizeTooSmall,
    StrictIncreaseViolated,
    bound_error,
)

if TYPE_CHECKING:
    from .matrices import AlternatingSignMatrix, ColumnSumMatrix, Permutation

Rows = tuple[tuple[int, ...], ...]

# The matrix forms live in `matrices`.  These names resolve here to its
# objects on first use, so that a command on triangles alone does not load it.
_FROM_MATRICES = (
    "AlternatingSignMatrix", "ColumnSumMatrix", "Permutation", "matrices_to_text",
    "matrix_to_text", "parse_asms", "parse_column_sums", "perm_to_triangle",
)


def __getattr__(name: str):
    if name not in _FROM_MATRICES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import matrices

    # Bound here once resolved, so that a wrapper later set on this name (as
    # the benchmark's layer tracer sets one) is what `gog convert` calls.
    value = globals()[name] = getattr(matrices, name)
    return value


def _staircase(i: int) -> tuple[int, ...]:
    return tuple(range(1, i + 1))


def _is_int(value: object) -> bool:
    """An entry counts as an integer when it is an `int` and not a `bool`."""
    return isinstance(value, int) and not isinstance(value, bool)


def _non_int(values: Iterable[object]) -> list[object]:
    return [v for v in values if not _is_int(v)]


def _validate_rows(rows: Rows) -> Rows:
    """The triangle check: raise the first violation in reading order (top
    to bottom, left to right), or return rows as exact tuples of exact ints.

    A triangle is valid exactly when every entry is an `int`, the bottom row
    is 1, ..., n, and every adjacent pair (upper, lower) is valid on its own:
    lower strictly increases, has one entry more than upper, and interlaces
    it.  The shape and the type of every entry are checked first, then each
    adjacent pair by the pair rule `_check_pair`, and the bottom row last.
    Entries are compared as the exact ints of their values, since a subclass
    of `int` may redefine its comparisons.
    """
    n = len(rows)
    if n == 0:
        raise ShapeMismatch("a monotone triangle needs at least one row")
    for i, row in enumerate(rows, start=1):
        if len(row) != i:
            raise ShapeMismatch(
                f"row {i} has {len(row)} entries, expected {i}", position=(i, 1)
            )
        for j, entry in enumerate(row, start=1):
            if not _is_int(entry):
                raise ShapeMismatch(
                    f"entry at ({i}, {j}) is not an integer: {entry!r}",
                    position=(i, j),
                )
    rows = tuple(tuple(map(index, row)) for row in rows)
    for above, row in zip(rows, rows[1:]):
        _check_pair(above, row)
    bottom = rows[n - 1]
    for j in range(1, n + 1):
        if bottom[j - 1] != j:
            raise BadBottomRow(
                f"bottom row entry at ({n}, {j}) is {bottom[j - 1]}, expected {j}",
                position=(n, j),
            )
    return rows


def _check_pair(above: tuple[int, ...], row: tuple[int, ...]) -> None:
    """The pair rule: raise unless row can sit directly below above, as row
    i = len(above) + 1 of a triangle.  Row i must have i entries, strictly
    increase, and interlace above; at each anchor (i, j) the strict-increase
    pair (j, j+1) is checked before the interlacing bracket.  Entries are
    compared with their own operators, so the caller passes exact ints."""
    i = len(above) + 1
    if len(row) != i:
        raise ShapeMismatch(f"row {i} has {len(row)} entries, expected {i}", position=(i, 1))
    for j in range(1, i):
        if not row[j - 1] < row[j]:
            raise StrictIncreaseViolated(
                f"row {i} is not strictly increasing at ({i}, {j}): "
                f"{row[j - 1]} >= {row[j]}",
                position=(i, j),
            )
        if not row[j - 1] <= above[j - 1] <= row[j]:
            raise InterlacingViolated(
                f"rows {i - 1} and {i} fail interlacing at ({i}, {j}): "
                f"need {row[j - 1]} <= {above[j - 1]} <= {row[j]}",
                position=(i, j),
            )


class _Frozen:
    """Base of the immutable records: `==`, `hash` and repr over the fields,
    as a frozen dataclass has them, and no assignment after construction.

    Each `__init__` validates its arguments and stores the fields in
    `__dict__`, in declaration order, through `object.__setattr__`; the
    records are plain classes so that loading them does not load
    `dataclasses`.  A `__dict__` rather than `__slots__` keeps pickle and copy
    working, since they restore a `__dict__` without calling `__setattr__`.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MonotoneTriangle(_Frozen):
    """An immutable, validated monotone triangle.

    `rows[i-1]` is row i as a strictly increasing tuple of i integers.
    Equality and hashing are structural.
    """

    rows: Rows

    def __init__(self, rows: Rows) -> None:
        # One copy, so that the check reads rows that nothing else holds
        # (a row that is not iterable raises TypeError here); the check
        # returns them as the exact tuples that are stored.  What the package
        # derives from checked index edges or checked triangles is built
        # through `_checked` instead.
        object.__setattr__(self, "rows", _validate_rows(tuple(map(tuple, rows))))

    @classmethod
    def _checked(cls, rows: Rows) -> "MonotoneTriangle":
        """The triangle of rows that are already known valid: exact tuples of
        exact ints, the bottom row 1, ..., n, and every adjacent pair passed
        by the pair rule.  Nothing is checked here."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """The j-th entry of row i, both 1-based."""
        return self.rows[i - 1][j - 1]

    def reading_sequence(self) -> tuple[int, ...]:
        """All entries, top to bottom and left to right."""
        return tuple(chain.from_iterable(self.rows))

    def distinguished_rows(self) -> "RowSet":
        """Rows equal to the smallest possible content 1, 2, ..., i.

        The bottom row is always a member.

        >>> t = MonotoneTriangle(((1,), (1, 2), (1, 2, 4), (1, 2, 3, 4)))
        >>> t.distinguished_rows().members
        (1, 2, 4)
        """
        mask = 0
        for i, row in enumerate(self.rows, start=1):
            if row == _staircase(i):
                mask |= 1 << (i - 1)
        return RowSet(self.n, mask)

    def is_permutation_triangle(self) -> bool:
        """True iff each row is a subset of the next row."""
        for upper, lower in zip(self.rows, self.rows[1:]):
            if not set(upper) <= set(lower):
                return False
        return True

    def rank_reverse(self) -> "MonotoneTriangle":
        """Apply k -> n-k+1 to every entry and reverse each row.

        This is an involution exchanging the minimal and maximal triangles.
        """
        n = self.n
        rows = tuple(tuple(n - e + 1 for e in reversed(row)) for row in self.rows)
        return MonotoneTriangle(rows)

    def _indicators(self) -> Rows:
        """Row i's indicator vector over [n], for each row i."""
        n = self.n
        entries = []
        for row in self.rows:
            present = set(row)
            entries.append(tuple(1 if v in present else 0 for v in range(1, n + 1)))
        return tuple(entries)

    def to_column_sum(self) -> ColumnSumMatrix:
        """The 0/1 matrix whose row i is the indicator vector of row i."""
        from .matrices import ColumnSumMatrix

        return ColumnSumMatrix(self._indicators())

    def to_asm(self) -> AlternatingSignMatrix:
        """Successive row differences of the column-sum matrix."""
        from .matrices import AlternatingSignMatrix, _differences

        return AlternatingSignMatrix(_differences(self._indicators()))

    @classmethod
    def from_column_sum(cls, c: ColumnSumMatrix) -> "MonotoneTriangle":
        """Row i lists the positions of the ones in matrix row i, ascending."""
        from .matrices import _one_positions

        return cls(_one_positions(c.entries))

    @classmethod
    def from_asm(cls, a: AlternatingSignMatrix) -> "MonotoneTriangle":
        """Row i lists the positions of the ones in row i of the partial
        column sums, ascending."""
        from .matrices import _one_positions, _partial_sums

        return cls(_one_positions(_partial_sums(a.entries)))

    @classmethod
    def from_permutation(cls, p: Permutation) -> "MonotoneTriangle":
        """Row i is the sorted set {p(1), ..., p(i)}."""
        values = p.values
        rows = tuple(tuple(sorted(values[:i])) for i in range(1, p.n + 1))
        return cls(rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def _triangle(what: str, t: object) -> MonotoneTriangle:
    """t, or a TypeError unless it is a `MonotoneTriangle`: an object that
    only looks like one never passed the check."""
    if not isinstance(t, MonotoneTriangle):
        raise TypeError(f"{what} needs a MonotoneTriangle, got {type(t).__name__}")
    return t


def validate_triangle(n: int, rows: Sequence[Sequence[int]]) -> MonotoneTriangle:
    """Validate a ragged array as a monotone triangle of size n."""
    if type(n) is not int:
        raise bound_error("validate_triangle", "n", n, 1)
    if len(rows) != n:
        raise ShapeMismatch(f"expected {n} rows, got {len(rows)}", position=(1, 1))
    return MonotoneTriangle(rows)


def extremal_triangle(n: int, which: str) -> MonotoneTriangle:
    """The unique minimal ("min", a(i,j) = j) or maximal ("max",
    a(i,j) = n-i+j) element of the size-n lattice."""
    if type(n) is not int:
        raise bound_error("extremal_triangle", "n", n, 1)
    if n < 1:
        raise SizeTooSmall(f"no monotone triangles of size {n}")
    if which == "min":
        rows = tuple(_staircase(i) for i in range(1, n + 1))
    elif which == "max":
        rows = tuple(
            tuple(n - i + j for j in range(1, i + 1)) for i in range(1, n + 1)
        )
    else:
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    return MonotoneTriangle(rows)


def near_minimal_triangle(n: int, which: str) -> MonotoneTriangle:
    """The two closest-to-minimal triangles used by the second-order analysis.

    "top" replaces the top row of the minimal triangle by (2,); "penult"
    replaces row n-1 by (1, 2, ..., n-2, n).  Both need n >= 2.
    """
    if type(n) is not int:
        raise bound_error("near_minimal_triangle", "n", n, 2)
    if which not in ("top", "penult"):
        raise ValueError(f"which must be 'top' or 'penult', got {which!r}")
    if n < 2:
        raise SizeTooSmall(f"near-minimal triangles need n >= 2, got {n}")
    rows = [list(_staircase(i)) for i in range(1, n + 1)]
    if which == "top":
        rows[0] = [2]
    else:
        rows[n - 2] = list(range(1, n - 1)) + [n]
    return MonotoneTriangle(tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Row sets


def _mask_max_run(mask: int) -> int:
    # Each step keeps the set bits whose next higher bit is set too, so a
    # block of L bits is gone after L steps: one step per unit of the
    # longest block, not one per bit.
    best = 0
    while mask:
        mask &= mask >> 1
        best += 1
    return best


class RowSet(_Frozen):
    """A subset of row indices [n], stored as a bitmask with bit i-1 for row i."""

    n: int
    mask: int

    def __init__(self, n: int, mask: int) -> None:
        if type(n) is not int:
            raise bound_error("RowSet", "n", n, 1)
        if n < 1:
            raise RowOutOfRange(f"row-set universe must be positive, got {n}")
        if type(mask) is not int:
            raise bound_error("RowSet", "mask", mask, 0)
        if mask < 0 or mask >> n:
            raise RowOutOfRange(f"mask {mask:#x} has bits outside [1, {n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "RowSet":
        mask = 0
        for i in members:
            if type(i) is not int:
                raise bound_error("RowSet", "row", i, 1)
            if not 1 <= i <= n:
                raise RowOutOfRange(f"row {i} outside [1, {n}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.mask >> (i - 1) & 1)

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n and bool(self.mask >> (i - 1) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def max_consecutive_run(self) -> int:
        """Length of the longest block of consecutive members; 0 if empty.

        >>> RowSet.from_members(4, (1, 2, 4)).max_consecutive_run()
        2
        """
        return _mask_max_run(self.mask)


def max_consecutive_run(d: RowSet) -> int:
    """Largest L with {i, ..., i+L-1} contained in d for some i."""
    return d.max_consecutive_run()


# ---------------------------------------------------------------------------
# Row-by-row construction


def _check_row(what: str, n: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """Raise unless n is a size and row can be a row of a size-n triangle:
    int entries, strictly increasing, each in [1, n]; else return row with
    each entry the exact int of its value, which is also what is compared,
    since a subclass of `int` may redefine its comparisons."""
    if type(n) is not int or n < 0:
        raise bound_error(what, "n", n, 0)
    if odd := _non_int(row):
        raise ShapeMismatch(f"row has a non-integer entry: {odd[0]!r}")
    row = tuple(map(index, row))
    if not all(map(lt, row, row[1:])):
        raise StrictIncreaseViolated(f"row not strictly increasing: {row}")
    if row and (row[0] < 1 or row[-1] > n):
        raise ShapeMismatch(f"row entries outside [1, {n}]: {row}")
    return row


def interlacing_successors(row: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Yield the strictly increasing rows of length len(row)+1 that can sit
    directly below `row` in a size-n triangle, in lexicographic order.

    The empty row yields (1,), (2,), ..., (n,).  Every strictly increasing
    row admits at least one successor (insert any missing value), which is
    what makes the last fixed row a sufficient DP state.

    Entry j of a successor ranges over [max(entry j-1 + 1, row[j-1]), row[j]]
    (the last entry up to n), so the rows are counted off like an odometer:
    the last entry runs through its range, then the rightmost earlier entry
    still below its bound steps up and every entry after it restarts at its
    least value.  The ranges of the first i entries are never empty, because
    row strictly increases.
    """
    row = _check_row("interlacing_successors", n, row)
    i = len(row)
    values = [0] * (i + 1)
    j = 0
    lo = 1
    while True:
        for k in range(j, i):
            values[k] = lo
            bound = row[k]
            lo = lo + 1 if lo >= bound else bound
        for v in range(lo, n + 1):
            values[i] = v
            yield tuple(values)
        j = i - 1
        while j >= 0 and values[j] == row[j]:
            j -= 1
        if j < 0:
            return
        v = values[j] = values[j] + 1
        bound = row[j]
        lo = v + 1 if v >= bound else bound
        j += 1


# ---------------------------------------------------------------------------
# Text format (bit-exact CLI interchange): n lines, line i holding i
# space-separated integers; triangles separated by a single blank line.  The
# matrix format in `matrices` reads its lines with the same helpers.


def triangle_to_text(t: MonotoneTriangle) -> str:
    return triangles_to_text((t,))


class _RowText(dict):
    """Row tuple -> its text, formatted once on first lookup."""

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = " ".join(map(str, row))
        return text


def triangles_to_text(ts: Iterable[MonotoneTriangle]) -> str:
    return "".join(triangles_to_text_chunks(ts)) or "\n"


_CHUNK_TRIANGLES = 1024  # about 60 kB of text at n = 7


def triangles_to_text_chunks(ts: Iterable[MonotoneTriangle]) -> Iterator[str]:
    """The text of `triangles_to_text(ts)` for a nonempty stream, in pieces
    of a bounded number of triangles, so a long stream is never held whole."""
    # A size-n stream has at most 2^n - 1 distinct rows; format each once.
    text = _RowText().__getitem__
    texts = ("\n".join(map(text, t.rows)) for t in ts)
    separator = ""
    while chunk := list(islice(texts, _CHUNK_TRIANGLES)):
        yield separator + "\n\n".join(chunk) + "\n"
        separator = "\n"


def _blocks(text: str) -> list[list[str]]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


def _parse_int_lines(lines: list[str]) -> list[list[int]]:
    rows = []
    for line in lines:
        tokens = line.split()
        try:
            # `gog` lifts CPython's cap of 4300 digits, past which int() takes
            # time quadratic in the token; no entry needs that many.
            if max(map(len, tokens)) > 4300:
                raise ValueError
            rows.append([int(tok) for tok in tokens])
        except ValueError as exc:
            raise FormatError(f"non-integer token in line {line!r}") from exc
    return rows


def parse_triangles(text: str) -> list[MonotoneTriangle]:
    """Parse a stream of triangles in the text format."""
    out = []
    for lines in _blocks(text):
        rows = _parse_int_lines(lines)
        out.append(validate_triangle(len(rows), rows))
    return out
