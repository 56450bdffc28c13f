"""Exact evaluation of the triangle-count sequence A(n) and its inequalities.

A(n) is the number of monotone triangles of size n,

    A(n) = prod_{k=0}^{n-1} (3k+1)! / (n+k)!,   A(0) = 1.

Successive values follow from the ratio
A(m+1)/A(m) = (3m+1)! m! / ((2m)! (2m+1)!), and every division must leave
no remainder.  `_asm_number_formula` evaluates the whole product as one
exact numerator and one exact denominator, independently of the
recurrence, and is its oracle in the tests.  `asm_number_dp` recomputes
the same value by a row-interlacing dynamic program that never touches the
formula, which is the in-process oracle for both.

The primitive counts P(m), the size-m triangles whose only distinguished
row is the bottom one, follow from A(m) = sum_k P(k) A(m-k).  They live
here, beside A(n), with `_Record`, the base of the report records, because
both the transfer-matrix count in `meet_census` and the census in `census`
read them and neither loads the other.

All counts are Python ints and all probabilities `fractions.Fraction`;
nothing here rounds.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Iterable

from .errors import RowOutOfRange, bound_error

if TYPE_CHECKING:
    from .triangles import RowSet

DP_LIMIT_DEFAULT = 12
ENUM_LIMIT_DEFAULT = 7  # enumeration and the census: A(7) = 218,348 triangles
FORMULA_LIMIT_DEFAULT = 1000  # A(0..1000) fills in about 3 s, A(0..2000) in about 47 s

_A_CACHE: list[int] = [1]  # A(0); append-only, filled once per process
_P_CACHE: list[int] = [0]  # P(0); append-only, filled once per process


def _asm_number_formula(n: int) -> int:
    num = 1
    den = 1
    for k in range(n):
        num *= math.factorial(3 * k + 1)
        den *= math.factorial(n + k)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"A({n}) product formula did not divide exactly")
    return q


def asm_number(n: int, limit: int = FORMULA_LIMIT_DEFAULT) -> int:
    """The exact number of monotone triangles of size n (A(0) = 1).

    The cache grows by the ratio recurrence, whose factorials cancel to the
    m-term falling factorials (3m+1)!/(2m+1)! and (2m)!/m!.

    >>> [asm_number(n) for n in range(6)]
    [1, 1, 2, 7, 42, 429]
    """
    if type(n) is not int or not 0 <= n <= limit:
        raise bound_error("asm_number", "n", n, 0, limit, f"{FORMULA_LIMIT_DEFAULT=}")
    while len(_A_CACHE) <= n:
        m = len(_A_CACHE) - 1
        value, r = divmod(_A_CACHE[m] * math.perm(3 * m + 1, m), math.perm(2 * m, m))
        if r:
            raise ArithmeticError(f"A({m + 1}) ratio recurrence did not divide exactly")
        _A_CACHE.append(value)
    return _A_CACHE[n]


def primitive_counts(m_max: int) -> list[int]:
    """[P(0), ..., P(m_max)]: P(m) counts the size-m triangles whose only
    distinguished row is the bottom one (P(0) = 0 by convention).

    The counts are computed once per process into an append-only list; each
    call returns a fresh copy.

    >>> primitive_counts(6)
    [0, 1, 1, 4, 29, 343, 6536]
    """
    if type(m_max) is not int or m_max < 0:
        raise bound_error("primitive_counts", "m_max", m_max, 0)
    p = _P_CACHE
    if len(p) <= m_max:
        a = [asm_number(m) for m in range(m_max + 1)]
        for m in range(len(p), m_max + 1):
            p.append(a[m] - sum(p[k] * a[m - k] for k in range(1, m)))
    return p[: m_max + 1]


def asm_number_dp(n: int, limit: int = DP_LIMIT_DEFAULT) -> int:
    """Count triangles by building rows top-down; independent of the formula."""
    if type(n) is not int or not 0 <= n <= limit:
        raise bound_error("asm_number_dp", "n", n, 0, limit, f"{DP_LIMIT_DEFAULT=}")
    from .triangles import interlacing_successors

    counts: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for row, c in counts.items():
            for succ in interlacing_successors(row, n):
                nxt[succ] = nxt.get(succ, 0) + c
        counts = nxt
    return counts[tuple(range(1, n + 1))]


def _sorted_members(what: str, n: int, rows: RowSet | Iterable[int]) -> tuple[int, ...]:
    from .triangles import RowSet

    if isinstance(rows, RowSet):
        members = rows.members
    else:
        members = tuple(rows)
        if odd := [i for i in members if type(i) is not int]:
            raise bound_error(what, "row", odd[0], 1)
        members = tuple(sorted(set(members)))
    for i in members:
        if not 1 <= i <= n - 1:
            raise RowOutOfRange(f"row {i} outside [1, {n - 1}]")
    return members


def eta(n: int, rows: RowSet | Iterable[int]) -> int:
    """Triangles whose distinguished set contains `rows` plus the bottom row.

    For sorted members i1 < ... < ik this is the gap product
    A(i1) A(i2-i1) ... A(ik-i_{k-1}) A(n-ik); eta(n, ()) is A(n).

    >>> eta(3, (1,)), eta(4, (1, 3))
    (2, 2)
    """
    if type(n) is not int or n < 0:
        raise bound_error("eta", "n", n, 0)
    members = _sorted_members("eta", n, rows)
    prod = 1
    prev = 0
    for i in members:
        prod *= asm_number(i - prev)
        prev = i
    return prod * asm_number(n - prev)


class _Record:
    """Base of the report records: field-wise `==` and repr, as a dataclass
    has them.  Each `__init__` stores the fields in `__dict__`, in
    declaration order; the records are plain classes so that loading them
    does not load `dataclasses`.  Defining `__eq__` leaves them unhashable.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Lemma-level inequalities, in exact integer form


class LemmaMargins:
    """Exact margins for the three count inequalities used by the bounds.

    increase:  (i1, i2, A(i1+1)A(i2-1) - A(i1)A(i2)) for 1 <= i2 <= i1 <= n_max
    ratio:     (n, c, lhs, rhs) with lhs = A(n-c) * 3^(c(2n-c-1)/2) and
               rhs = A(n) * 2^(c(2n-c-1)/2); the claim is lhs <= rhs
    corollary: (n, members, A(n-k) - eta_n(members)) over sampled subsets

    A plain class, not a dataclass, so that importing `counting` (every cold
    `gog` command does) does not load `dataclasses`.
    """

    def __init__(
        self,
        n_max: int,
        increase: list[tuple[int, int, int]] | None = None,
        ratio: list[tuple[int, int, int, int]] | None = None,
        corollary: list[tuple[int, tuple[int, ...], int]] | None = None,
    ) -> None:
        self.n_max = n_max
        self.increase = [] if increase is None else increase
        self.ratio = [] if ratio is None else ratio
        self.corollary = [] if corollary is None else corollary

    def violations(self) -> list[str]:
        bad = [
            f"increase margin < 0 at (i1={i1}, i2={i2}): {m}"
            for i1, i2, m in self.increase
            if m < 0
        ]
        bad += [
            f"ratio bound fails at (n={n}, c={c}): {lhs} > {rhs}"
            for n, c, lhs, rhs in self.ratio
            if lhs > rhs
        ]
        bad += [
            f"corollary margin < 0 at (n={n}, I={members}): {m}"
            for n, members, m in self.corollary
            if m < 0
        ]
        return bad

    @property
    def ok(self) -> bool:
        return not self.violations()

    @property
    def checks(self) -> int:
        return len(self.increase) + len(self.ratio) + len(self.corollary)


def lemma_margins(n_max: int, subset_limit: int = 64, seed: int = 20240817) -> LemmaMargins:
    """Sweep the lemma inequalities up to n_max; exact integers throughout.

    The ratio bound is checked in cross-multiplied form, avoiding any
    floating-point tolerance.  Subsets for the corollary margin are
    exhaustive while 2^(n-1) <= subset_limit and seeded samples beyond,
    always including the prefix sets {1..k} (which attain equality).
    """
    if type(n_max) is not int or n_max < 2:
        raise bound_error("lemma_margins", "n_max", n_max, 2)
    from .triangles import RowSet

    report = LemmaMargins(n_max)
    for i1 in range(1, n_max + 1):
        for i2 in range(1, i1 + 1):
            margin = asm_number(i1 + 1) * asm_number(i2 - 1) - asm_number(i1) * asm_number(i2)
            report.increase.append((i1, i2, margin))
    for n in range(1, n_max + 1):
        for c in range(1, n + 1):
            e = c * (2 * n - c - 1) // 2
            lhs = asm_number(n - c) * 3**e
            rhs = asm_number(n) * 2**e
            report.ratio.append((n, c, lhs, rhs))
    rng = random.Random(seed)
    for n in range(2, n_max + 1):
        if 2 ** (n - 1) - 1 <= subset_limit:
            masks: set[int] = set(range(1, 2 ** (n - 1)))
        else:
            masks = {2**k - 1 for k in range(1, n)}  # prefix sets {1..k}
            while len(masks) < subset_limit:
                masks.add(rng.randrange(1, 2 ** (n - 1)))
        for mask in sorted(masks):
            members = RowSet(n, mask).members
            margin = asm_number(n - len(members)) - eta(n, members)
            report.corollary.append((n, members, margin))
    return report


def bleher_fokin_estimate(n: int) -> float:
    """Numeric diagnostic: exp(log A(n) - n^2 log(3*sqrt(3)/4) + (5/36) log n).

    Tracks the unknown constant in the asymptotic growth of A(n); recorded
    as a trajectory, never asserted against a limit value.
    """
    if type(n) is not int or n < 2:
        raise bound_error("bleher_fokin_estimate", "n", n, 2)
    log_a = math.log(asm_number(n))
    return math.exp(log_a - n * n * math.log(3 * math.sqrt(3) / 4) + (5 / 36) * math.log(n))
