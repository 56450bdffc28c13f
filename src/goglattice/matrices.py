"""The matrix forms of monotone triangles: column-sum matrices, alternating-sign
matrices and permutations, with their text format.

A monotone triangle of size n can be presented as an n x n column-sum
matrix (0/1 entries; row i is the indicator vector of triangle row i) or as
an alternating-sign matrix (successive differences of the column-sum rows).
Each form is checked through that definition: a 0/1 matrix is a column-sum
matrix exactly when its one-positions form a monotone triangle, and a
matrix over {-1, 0, 1} is an ASM exactly when its partial sums down each
column form a column-sum matrix.  The triangle check is
`triangles._validate_rows`, looked up on that module at each call.

`triangles` keeps the triangles themselves; their `to_*` and `from_*`
conversions load this module when they are called, so a command that never
meets a matrix never compiles it.

>>> from goglattice.triangles import MonotoneTriangle
>>> t = MonotoneTriangle(((3,), (2, 4), (1, 3, 4), (1, 2, 3, 4)))
>>> t.to_asm().entries[1]
(0, 1, -1, 1)
>>> MonotoneTriangle.from_asm(t.to_asm()) == t
True
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import triangles
from .errors import GogError, NotAColumnSumMatrix, NotAnASM, NotAPermutation, TriangleError
from .triangles import MonotoneTriangle, Rows, _blocks, _Frozen, _non_int, _parse_int_lines


def _check_square(entries: Rows, error: type[GogError], values: tuple[int, ...]) -> None:
    """Raise `error` unless entries is a nonempty square of exact ints in `values`."""
    n = len(entries)
    if n == 0:
        raise error("matrix is empty")
    for i, row in enumerate(entries, start=1):
        if len(row) != n:
            raise error(f"row {i} has {len(row)} entries, expected {n}")
        if odd := _non_int(row):
            raise error(f"row {i} has a non-integer entry: {odd[0]!r}")
        if any(v not in values for v in row):
            raise error(f"row {i} has an entry outside {{{', '.join(map(str, values))}}}")


def _differences(entries: Rows) -> Rows:
    """The first row, then each row less the one above it."""
    out = [entries[0]]
    for prev, row in zip(entries, entries[1:]):
        out.append(tuple(b - a for a, b in zip(prev, row)))
    return tuple(out)


def _partial_sums(entries: Rows) -> Rows:
    """The sums down each column of the rows up to each row: the inverse of
    `_differences`."""
    total = [0] * len(entries)
    out = []
    for row in entries:
        total = [a + b for a, b in zip(total, row)]
        out.append(tuple(total))
    return tuple(out)


def _one_positions(entries: Rows) -> Rows:
    """For each row of a 0/1 matrix, the 1-based positions of its ones."""
    return tuple(tuple(j for j, v in enumerate(row, start=1) if v == 1) for row in entries)


class ColumnSumMatrix(_Frozen):
    """An n x n 0/1 matrix whose row i marks the entries of triangle row i."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[int]]) -> None:
        entries = tuple(tuple(row) for row in entries)
        object.__setattr__(self, "entries", entries)
        _check_square(entries, NotAColumnSumMatrix, (0, 1))
        try:
            triangles._validate_rows(_one_positions(entries))
        except TriangleError as exc:
            raise NotAColumnSumMatrix(f"one-positions are not a monotone triangle: {exc}") from exc

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_triangle(self) -> MonotoneTriangle:
        return MonotoneTriangle.from_column_sum(self)

    def to_asm(self) -> "AlternatingSignMatrix":
        return AlternatingSignMatrix(_differences(self.entries))


class AlternatingSignMatrix(_Frozen):
    """An n x n matrix over {-1, 0, 1} whose partial sums down each column
    form a column-sum matrix; it is that matrix's successive row differences.

    This is the textbook rule, that the nonzero entries of every row and
    every column read +1, -1, ..., +1: a column's do exactly when its partial
    sums stay in {0, 1} and end at 1, and a row's do exactly when it is the
    difference of the indicator vectors of two interlacing triangle rows.
    """

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[int]]) -> None:
        entries = tuple(tuple(row) for row in entries)
        object.__setattr__(self, "entries", entries)
        _check_square(entries, NotAnASM, (-1, 0, 1))
        try:
            self.to_column_sum()
        except NotAColumnSumMatrix as exc:
            raise NotAnASM(f"partial column sums are not a column-sum matrix: {exc}") from exc

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_column_sum(self) -> ColumnSumMatrix:
        """Partial sums down each column, the matrix whose row differences this is."""
        return ColumnSumMatrix(_partial_sums(self.entries))

    def to_triangle(self) -> MonotoneTriangle:
        return MonotoneTriangle.from_asm(self)

    def has_negative_entry(self) -> bool:
        return any(-1 in row for row in self.entries)


# ---------------------------------------------------------------------------
# Permutations


class Permutation(_Frozen):
    """A permutation of [n] in one-line notation, 1-based values."""

    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]) -> None:
        values = tuple(values)
        object.__setattr__(self, "values", values)
        if odd := _non_int(values):
            raise NotAPermutation(f"{values} has a non-integer entry: {odd[0]!r}")
        if sorted(values) != list(range(1, len(values) + 1)):
            raise NotAPermutation(f"{values} is not a rearrangement of 1..{len(values)}")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def to_asm(self) -> AlternatingSignMatrix:
        """The permutation matrix, which is an ASM with no -1 entries."""
        n = self.n
        entries = tuple(
            tuple(1 if self.values[i] == j else 0 for j in range(1, n + 1))
            for i in range(n)
        )
        return AlternatingSignMatrix(entries)

    def to_triangle(self) -> MonotoneTriangle:
        return MonotoneTriangle.from_permutation(self)


def perm_to_triangle(p: Permutation) -> MonotoneTriangle:
    """Row i of the result is the sorted prefix set {p(1), ..., p(i)}.

    >>> perm_to_triangle(Permutation((3, 1, 2))).rows
    ((3,), (1, 3), (1, 2, 3))
    """
    return MonotoneTriangle.from_permutation(p)


# ---------------------------------------------------------------------------
# Text format: n lines of n space-separated integers, matrices separated by
# a single blank line, as triangles are in `triangles`.


def matrix_to_text(m: ColumnSumMatrix | AlternatingSignMatrix) -> str:
    return matrices_to_text((m,))


def matrices_to_text(ms: Iterable[ColumnSumMatrix | AlternatingSignMatrix]) -> str:
    return "\n\n".join(
        "\n".join(" ".join(str(v) for v in row) for row in m.entries) for m in ms
    ) + "\n"


def _parse_matrices(text: str, cls: type) -> list:
    return [cls(tuple(map(tuple, _parse_int_lines(lines)))) for lines in _blocks(text)]


def parse_column_sums(text: str) -> list[ColumnSumMatrix]:
    return _parse_matrices(text, ColumnSumMatrix)


def parse_asms(text: str) -> list[AlternatingSignMatrix]:
    return _parse_matrices(text, AlternatingSignMatrix)
