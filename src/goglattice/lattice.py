"""The entry-wise partial order and lattice operations on monotone triangles.

Two triangles of the same size compare entry-wise; the order has a unique
minimum (staircase rows) and maximum.  Meet and join are the entry-wise
minimum and maximum, taken over all operands in one pass (`map(min, *rows)`
per row), so r operands build one triangle, not r - 1; that this equals
the pairwise fold in any order is tested, not assumed.

The result is built unchecked, because min and max keep every rule of a
triangle.  If each operand has x_j < x_{j+1} in a row, the least x_{j+1} is
some operand's, which exceeds that operand's x_j and so the least x_j: the
minimum strictly increases, and dually the maximum.  Interlacing, a(i,j) <= a(i-1,j) <= a(i,j+1),
compares entries at fixed positions, and an inequality that holds in every
operand holds between their minima, as between their maxima.  Every
operand's bottom row is 1, ..., n, and so is theirs.  The entries are the
operands' own exact ints.  So the operands alone are checked: each must be
a `MonotoneTriangle`, of one size.

Whether a meet is trivial needs no meet.  Row i of a triangle is 1, ..., i
exactly when its last entry is i, and the meet's last entry in row i is the
least of the operands', so the meet's distinguished rows are the union of
the operands': D(t_1 ^ ... ^ t_r) = D(t_1) u ... u D(t_r), the fact that
`meet_census` and `census` count by.  Dually, row i is n-i+1, ..., n exactly when its
first entry is n-i+1, and the join's first entry is the greatest, so the
join's rows at their maximum are the union of the operands'.  So
`is_trivial` asks, row by row, whether some operand has the extremal row,
and builds no triangle.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import contains
from typing import Callable, Iterable, Sequence

from .errors import EmptyInput, SizeMismatch
from .triangles import MonotoneTriangle, _triangle, extremal_triangle


class OrderRelation(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare(a: MonotoneTriangle, b: MonotoneTriangle) -> OrderRelation:
    """Four-valued entry-wise comparison.

    >>> t1 = MonotoneTriangle(((3,), (1, 3), (1, 2, 3)))
    >>> t2 = MonotoneTriangle(((2,), (2, 3), (1, 2, 3)))
    >>> compare(t1, t2).value
    'incomparable'
    """
    if _triangle("compare", a).n != _triangle("compare", b).n:
        raise SizeMismatch(f"cannot compare sizes {a.n} and {b.n}")
    le = ge = True
    for row_a, row_b in zip(a.rows, b.rows):
        for x, y in zip(row_a, row_b):
            if x < y:
                ge = False
            elif x > y:
                le = False
        if not le and not ge:
            return OrderRelation.INCOMPARABLE
    if le and ge:
        return OrderRelation.EQUAL
    return OrderRelation.LESS if le else OrderRelation.GREATER


def leq(a: MonotoneTriangle, b: MonotoneTriangle) -> bool:
    return compare(a, b) in (OrderRelation.LESS, OrderRelation.EQUAL)


def _checked(ts: Iterable[MonotoneTriangle], what: str) -> Sequence[MonotoneTriangle]:
    ts = tuple(ts)
    if not ts:
        raise EmptyInput(f"{what} needs at least one triangle")
    n = _triangle(what, ts[0]).n
    for k, t in enumerate(ts):
        if _triangle(what, t).n != n:
            raise SizeMismatch(f"operand {k + 1} has size {t.n}, expected {n}")
    return ts


def _entrywise(
    ts: Iterable[MonotoneTriangle], pick: Callable[..., int], what: str
) -> MonotoneTriangle:
    ts = _checked(ts, what)
    if len(ts) == 1:
        return ts[0]  # map(pick, row) would call pick on single entries
    return MonotoneTriangle._checked(
        tuple(tuple(map(pick, *rows)) for rows in zip(*(t.rows for t in ts)))
    )


def meet(ts: Iterable[MonotoneTriangle]) -> MonotoneTriangle:
    """Entry-wise minimum; the greatest lower bound under `compare`."""
    return _entrywise(ts, min, "meet")


def join(ts: Iterable[MonotoneTriangle]) -> MonotoneTriangle:
    """Entry-wise maximum; the least upper bound under `compare`."""
    return _entrywise(ts, max, "join")


_extremal = lru_cache(maxsize=32)(extremal_triangle)  # immutable, so shared
_EXTREME = {"meet": "min", "join": "max"}


def is_trivial(ts: Iterable[MonotoneTriangle], which: str) -> bool:
    """Whether the meet is the minimal triangle / the join is the maximal one.

    That is, whether every row i is 1, ..., i in some operand, as
    D(meet) = D(t_1) u ... u D(t_r) (for the join, n-i+1, ..., n)."""
    ts = _checked(ts, "is_trivial")
    if which not in _EXTREME:
        raise ValueError(f"which must be 'meet' or 'join', got {which!r}")
    extremal = _extremal(ts[0].n, _EXTREME[which])
    return all(map(contains, zip(*(t.rows for t in ts)), extremal.rows))
