"""Exact counts of r-tuples with trivial meet, and the decomposition reports.

A tuple (t_1, ..., t_r) has trivial meet exactly when every row index is
distinguished in at least one component: necessity because the entry-wise
minimum at (i, i) must reach i, which pins that component's whole row;
sufficiency because entries at column j never drop below j.

The gap products eta_n are multiplicative over the gaps between
distinguished rows, so the number of triangles whose distinguished set is
exactly D (with 0 and n added as end points) is

    f(D) = prod over gaps g of D of P(g),

where the primitive count P(m) counts size-m triangles whose only
distinguished row is the bottom one, from A(m) = sum_k P(k) A(m-k).
N_min(n, r) is then a weighted count of r paths over the positions
1..n-1, each jumping g positions at weight P(g), that together hit every
position.  A transfer-matrix sweep (Stanley, Enumerative Combinatorics I,
section 4.7) counts it position by position.  Its state measures each path
by its distance d from the last position swept to its last distinguished
one, and is the homogeneous degree-r polynomial Q in variables x_d whose
coefficients count labelled tuples, about C(n-1+r, r) monomials in all.
Sweeping a position moves each path either one further (x_d -> x_{d+1}) or
onto it (x_d -> P(d+1) x_0), and drops the term where none moves; by
Taylor's formula that is

    Q' = sum over k = 1..r of x_0^k (D^k Q / k!)(x_1, x_2, ...),

with D = sum_d P(d+1) d/dx_d and every x_d shifted to x_{d+1}.  The closing
for n is Q(P(1), P(2), ...), which is D^r Q / r!, the weight of every path
jumping to n; one sweep to n_max - 1 gives N_min(n, r) for every
n <= n_max, and its last step evaluates Q' at the P instead of storing it.

Neither D nor the shift depends on the position or on n_max, and once
x_0, ..., x_{pos-1} are in play a step works on every monomial of each
degree in them, so `_transfer` keeps one program per r per process, grown
one position at a time, the first time a call reaches it.  It lists each
degree's monomials in lex order on their sorted distances, in which each
position's kernels are built from the previous position's and the next
state is the passes' results laid end to end, so each step runs as a few
list-wide maps, with no Python step per edge.  The program holds no
coefficient: every call redoes all the arithmetic, and no N_min value
persists between calls.  One charge, `_transfer.work`, counts the kernel
entries a sweep reads, weighted by the size of its integers: a call is
refused before any work when its sweep and the fill of P(1..n) together
exceed its `limit`, and a call that ends with more than
TRANSFER_LIMIT_DEFAULT charged across all programs empties the store, so a
process keeps at most what the largest admitted call builds.  N_min(1, r)
= N_min(n, 1) = 1 and N_min(2, r) = 2^r - 1 build no program and fill no P.

Two independent oracles stay for `verify` and the tests: the double
inclusion-exclusion over the 2^(n-1) row subsets,

    N_min(n, r) = sum over T subset of [n-1] of (-1)^|T| g(T)^r,

with g(T) the triangles whose distinguished set avoids T, once from the
gap products and once from the enumerated census, both through one signed
sum, which `class_sizes` also takes over the census keys of chosen runs.
Rank reversal maps distinguished rows to rows at their maximum, so N_max =
N_min; the reversed census counts rows at their maximum off the same walk
as `enumeration.build_census`, and so checks the count on the join side.

The census itself, the map from each exact distinguished set D to f(D),
is computed here from the gap products (`gap_product_census`), the
production route behind `load_or_build_census` and `gog census`: a DP on
the highest member of D costs one multiply per set, with 2^(n-1) sets up
to n = CENSUS_LIMIT_DEFAULT.  Computing it is faster than reading its text
back, so nothing here stores a census.  `enumeration.build_census`, which
walks every triangle and so stops at n = 7, is its oracle in `verify` and
the tests.  A census has a text form, which is read back by comparing it
with the census computed for its n:

    MTCENSUS v1 n=<n> total=<decimal A(n)>
    <bitmask-hex> <decimal count>          (ascending bitmask)

where a bitmask has bit i-1 for row i.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .counting import ENUM_LIMIT_DEFAULT, _sorted_members, asm_number
from .errors import FormatError, bound_error

if TYPE_CHECKING:
    # Imported where a Fraction is built, so that `gog census` never loads
    # `fractions` or the `decimal` it imports.
    from fractions import Fraction

    from . import _transfer
    from .triangles import RowSet

TRANSFER_LIMIT_DEFAULT = 77_000_000  # `_transfer.work` units: a first (223, 2), about 0.35 s
CENSUS_LIMIT_DEFAULT = 18  # 2^17 distinguished sets, computed in about 0.02 s
CLASS_SIZES_MAX_RN = 60_000  # class_sizes' r(n-1): (7, 10000) takes about 0.7 s

_P_CACHE: list[int] = [0]  # P(0); append-only, filled once per process


def _avoid_from_table(n: int, ts: tuple[int, ...], a: list[int]) -> int:
    # s[j] collects the signed gap products over subsets of ts with maximum
    # ts[j]; splitting on the maximum turns the 2^m subset sum into O(m^2).
    s: list[int] = []
    for j, t in enumerate(ts):
        sj = -a[t]
        for i in range(j):
            sj -= s[i] * a[t - ts[i]]
        s.append(sj)
    g = a[n]
    for j, t in enumerate(ts):
        g += s[j] * a[n - t]
    return g


def avoid_count(n: int, t_set: RowSet | tuple[int, ...] | list[int]) -> int:
    """Triangles of size n with no distinguished row inside t_set (subset of [n-1]).

    >>> avoid_count(3, (1,)), avoid_count(3, (1, 2))
    (5, 4)
    """
    if type(n) is not int or n < 0:
        raise bound_error("avoid_count", "n", n, 0)
    members = _sorted_members("avoid_count", n, t_set)
    a = [asm_number(i) for i in range(n + 1)]
    return _avoid_from_table(n, members, a)


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


# ---------------------------------------------------------------------------
# Distinguished-row census


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


class RunHistogram(_Record):
    """Triangle counts bucketed by the longest consecutive distinguished block."""

    def __init__(self, n: int, counts: dict[int, int]) -> None:
        self.n = n
        self.counts = counts

    def total(self) -> int:
        return sum(self.counts.values())

    def at_most(self, length: int) -> int:
        return sum(c for run, c in self.counts.items() if run <= length)


class CensusTable(_Record):
    """Exact-set counts: mask of the distinguished rows -> number of triangles.

    Every key has bit n-1 set (the bottom row is always distinguished) and
    the values partition the size-n triangles.
    """

    def __init__(self, n: int, counts: dict[int, int]) -> None:
        self.n = n
        self.counts = counts

    def total(self) -> int:
        return sum(self.counts.values())

    def containment_count(self, mask: int) -> int:
        """Triangles whose distinguished set contains every row in `mask`."""
        return sum(c for m, c in self.counts.items() if m & mask == mask)

    def avoid_count(self, mask: int) -> int:
        """Triangles whose distinguished set avoids every row in `mask`."""
        return sum(c for m, c in self.counts.items() if m & mask == 0)

    def run_histogram(self) -> RunHistogram:
        from .triangles import _mask_max_run

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
        """Read a census text, which must be the census computed for its n."""
        lines = text.splitlines() or [""]
        try:
            magic, version, n, total = lines[0].split()
            if (magic, version) != ("MTCENSUS", "v1") or n[:2] != "n=" or total[:6] != "total=":
                raise ValueError
            n, total = int(n[2:]), int(total[6:])
        except ValueError as exc:
            raise FormatError(f"bad census header: {lines[0]!r}") from exc
        pairs = []
        for line in lines[1:]:
            try:
                mask, count = line.split()
                pairs.append((int(mask, 16), int(count)))
            except ValueError as exc:
                raise FormatError(f"bad census line: {line!r}") from exc
        # P(m) >= 1 for every gap m, so a census lists all 2^(n-1) sets, and
        # k lines bound n by k.bit_length(): testing that first keeps a
        # forged header from forcing a large shift, A(n) or f(D).
        if (
            not 1 <= n <= len(pairs).bit_length()
            or total != asm_number(n)
            or pairs != list(zip(range(1 << (n - 1), 1 << n), _exact_set_counts(n)))
        ):
            raise FormatError(
                f"census for n={n} is not its gap product census, f(D) for each D by mask"
            )
        return cls(n, dict(pairs))

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


def _exact_set_counts(n: int) -> list[int]:
    """f(D) for each distinguished set D of the size-n triangles, ordered by
    the mask of D, which always holds the bottom row n.

    g(mask) is the product of P over the gaps of mask's rows from 0 up to
    its highest row t, so g(mask) = g(rest) P(t - s), where rest is mask
    without t and s its highest row (0 if rest is empty); f(D) is g(D).
    """
    p = primitive_counts(n)
    g = [1]  # g of the empty mask
    for t in range(1, n + 1):
        # The masks with highest row t, ascending: t over each rest < 2^(t-1),
        # taken in blocks of one highest row s.  P(1) = P(2) = 1 spares the
        # multiply for three quarters of them.
        for s in range(t):
            block = g[(1 << s) >> 1 : 1 << s]
            factor = p[t - s]
            g += block if factor == 1 else [factor * x for x in block]
    return g[1 << (n - 1) :]


def gap_product_census(n: int, limit: int = CENSUS_LIMIT_DEFAULT) -> CensusTable:
    """Exact distinguished-set census of the size-n triangles, f(D) for each D.

    >>> gap_product_census(3).counts
    {4: 4, 5: 1, 6: 1, 7: 1}
    """
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("census", "n", n, 1, limit, f"{CENSUS_LIMIT_DEFAULT=}")
    return CensusTable(n, dict(zip(range(1 << (n - 1), 1 << n), _exact_set_counts(n))))


def load_or_build_census(
    n: int,
    cache_dir: str | os.PathLike | None = None,
    limit: int = CENSUS_LIMIT_DEFAULT,
) -> CensusTable:
    """The census from the gap products, `gap_product_census(n, limit=limit)`.

    `cache_dir` is accepted and ignored: no file is read or written.
    """
    return gap_product_census(n, limit=limit)


# One program per r (see `_transfer`), grown by each call that goes further
# than the calls before it.  A call that ends with more work charged to the
# programs across all r than TRANSFER_LIMIT_DEFAULT empties the store.
_PROGRAMS: dict[int, _transfer.Program] = {}


def _n_min_sweep(n_max: int, r: int, limit: int = TRANSFER_LIMIT_DEFAULT) -> list[int]:
    """N_min(n, r) for n = 1..n_max from one transfer-matrix sweep.

    >>> _n_min_sweep(6, 2)
    [1, 3, 15, 107, 1103, 17767]
    """
    # Loaded here, so that a command that never sweeps never loads it.
    from ._transfer import Program, work

    # The fill of P(1..n_max) makes C(n_max, 2) products, as many as r = 2
    # reads and about as costly.  Past n = 2 the charge is at least
    # C(n_max+r-2, r) >= 2^min(n_max-2, r), so a call that large is refused
    # before its binomials are computed.
    wide = n_max > 2 and min(n_max - 2, r) >= limit.bit_length()
    charge = limit + 1 if wide else work(n_max, r) + work(n_max, 2)
    if charge > limit:
        raise bound_error(
            "N_min", "work", charge, 0, limit, f"{TRANSFER_LIMIT_DEFAULT=}",
            head=f"N_min(n={n_max}, r={r}) needs more than {limit} units of sweep work",
        )
    if r == 1 or n_max == 1:
        # tau_min is the only triangle that meets trivially alone, and the
        # only one of size 1
        return [1] * n_max
    if n_max == 2:
        return [1, 2**r - 1]  # some component has row 1 distinguished
    try:
        program = _PROGRAMS.get(r)
        if program is None:
            program = _PROGRAMS[r] = Program(r)
        return [1, *program.sweep(n_max, primitive_counts(n_max))]
    finally:
        if sum(work(q.top + 1, q.r) for q in _PROGRAMS.values()) > TRANSFER_LIMIT_DEFAULT:
            _PROGRAMS.clear()


def n_min_exact(n: int, r: int, limit: int = TRANSFER_LIMIT_DEFAULT) -> int:
    """Number of r-tuples of size-n triangles whose meet is the minimal triangle.

    >>> n_min_exact(2, 2), n_min_exact(3, 2)
    (3, 15)
    """
    if type(n) is not int or n < 1:
        raise bound_error("n_min_exact", "n", n, 1)
    if type(r) is not int or r < 1:
        raise bound_error("n_min_exact", "r", r, 1)
    return _n_min_sweep(n, r, limit)[-1]


def _signed_sum(n: int, r: int, avoid: Callable[[int], int]) -> int:
    """Sum over T subset of [n-1] of (-1)^|T| avoid(T)^r, with T as a mask."""
    total = 0
    for mask in range(1 << (n - 1)):
        term = avoid(mask) ** r
        total += -term if mask.bit_count() & 1 else term
    return total


def _n_min_ie(n: int, r: int) -> int:
    """Oracle for `n_min_exact`: inclusion-exclusion over the 2^(n-1) row
    subsets, with the avoidance counts from the gap products."""
    from .triangles import RowSet

    a = [asm_number(i) for i in range(n + 1)]
    return _signed_sum(n, r, lambda mask: _avoid_from_table(n, RowSet(n, mask).members, a))


def n_min_census(
    n: int, r: int, census: CensusTable | None = None, limit: int = ENUM_LIMIT_DEFAULT
) -> int:
    """Oracle for `n_min_exact`: the inclusion-exclusion sum, with the
    avoidance counts read off the exact-set census instead of the gap
    products.  A census passed in is held to `limit` as well."""
    if type(r) is not int or r < 1:
        raise bound_error("n_min_census", "r", r, 1)
    if census is None:
        from .enumeration import build_census

        census = build_census(n, limit=limit)
    elif census.n != n:
        raise ValueError(f"census is for n={census.n}, expected {n}")
    elif n > limit:
        raise bound_error("n_min_census", "n", n, 1, limit, f"{ENUM_LIMIT_DEFAULT=}")
    return _signed_sum(n, r, census.avoid_count)


def reversed_census(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> CensusTable:
    """Census keyed by the rows at their maximum: row i is n-i+1, ..., n, the
    distinguished rows of the rank-reversed triangle.  It is counted off the
    same walk as `enumeration.build_census`, with row i keyed at its maximum
    instead of its minimum, and builds no triangle."""
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("reversed_census", "n", n, 1, limit, f"{ENUM_LIMIT_DEFAULT=}")
    from .enumeration import _census

    return _census(n, [tuple(range(n - i + 1, n + 1)) for i in range(1, n + 1)])


def p_extreme(n: int, r: int, which: str, limit: int = TRANSFER_LIMIT_DEFAULT) -> Fraction:
    """Probability that r uniform triangles have trivial meet ("min") or
    trivial join ("max"), as an exact reduced fraction.

    Rank reversal is an involution taking distinguished rows to rows at
    their maximum, so both sides are the same count; `reversed_census`
    counts the rows at their maximum off the same walk as the census, so
    the join side stays checkable.
    """
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    from fractions import Fraction

    return Fraction(n_min_exact(n, r, limit=limit), asm_number(n) ** r)


# ---------------------------------------------------------------------------
# Class decomposition


class ClassSizes(_Record):
    """Sizes of the overlapping classes of trivial-meet tuples.

    exact_sizes[v] counts tuples in which some component's longest block of
    consecutive distinguished rows has length exactly v, for v from n down
    to max(1, n - 6r); C_n, the tuples holding tau_min, has A(n)^r - (A(n)-1)^r.
    tail_size counts tuples in which every component stays at or below
    tail_threshold = n - 6r - 1 (zero when that is < 1).  Membership is
    non-exclusive; only the union of the classes is a cover.
    """

    def __init__(
        self, n: int, r: int, exact_sizes: dict[int, int], tail_threshold: int, tail_size: int
    ) -> None:
        self.n = n
        self.r = r
        self.exact_sizes = exact_sizes
        self.tail_threshold = tail_threshold
        self.tail_size = tail_size


def class_bound(n: int, r: int, v: int) -> int | None:
    """The upper bound the counting argument assigns to class C_v, or None
    where no bound is claimed (the tail class is bounded only coarsely)."""
    if type(n) is not int:  # an int n below v fails as n - v below
        raise bound_error("class_bound", "n", n, 1)
    if type(r) is not int or r < 1:
        raise bound_error("class_bound", "r", r, 1)
    if type(v) is not int or v < 1:
        raise bound_error("class_bound", "v", v, 1)
    if v > n:
        raise bound_error("class_bound", "n - v", n - v, 0)
    i = n - v
    if i == 0:
        return r * asm_number(n) ** (r - 1)
    if r == 1:
        return 0  # every class below C_n is empty for a single triangle
    if i == 1:
        return r * (r - 1) * asm_number(n - 1) * asm_number(n) ** (r - 2)
    if 2 <= i <= 6 * r:
        return (
            r
            * (r - 1) ** 2
            * i
            * asm_number(i + 1)
            * asm_number(i)
            * asm_number(n - i + 1)
            * asm_number(n) ** (r - 2)
        )
    return None


def class_sizes(n: int, r: int, limit: int = ENUM_LIMIT_DEFAULT) -> ClassSizes:
    """Exact class sizes by the signed sum of `n_min_census` over the census
    keys of some runs (a tuple's class depends only on its components'
    distinguished sets): exact_sizes[v] is N_min less the covering tuples
    with no component of run v, and tail_size the covering tuples with every
    run <= tail_threshold.  A sum reads 4^(n-1) keys, which the default limit
    stops at n = 7, and raises 2^(n-1) counts to the r-th power, which a cap
    that no knob raises holds to r(n-1) <= CLASS_SIZES_MAX_RN."""
    if type(r) is not int or r < 1:
        raise bound_error("class_sizes", "r", r, 1)
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("class_sizes", "n", n, 1, limit, f"{ENUM_LIMIT_DEFAULT=}")
    if r * (n - 1) > CLASS_SIZES_MAX_RN:
        raise bound_error("class_sizes", "r(n-1)", r * (n - 1), 0, CLASS_SIZES_MAX_RN)
    low = max(1, n - 6 * r)
    tail_threshold = n - 6 * r - 1
    if r == 1:  # only tau_min, of run n, meets trivially alone; no 4^(n-1) sums
        return ClassSizes(n, r, {v: int(v == n) for v in range(low, n + 1)}, tail_threshold, 0)
    from .triangles import _mask_max_run

    census = gap_product_census(n, limit=limit).counts
    runs = {mask: _mask_max_run(mask) for mask in census}

    def covering(keep: Callable[[int], bool]) -> int:
        kept = {mask: count for mask, count in census.items() if keep(runs[mask])}
        return n_min_census(n, r, census=CensusTable(n, kept), limit=limit)

    n_min = covering(lambda run: True)
    exact = {v: n_min - covering(lambda run: run != v) for v in range(low, n + 1)}
    return ClassSizes(n, r, exact, tail_threshold, covering(lambda run: run <= tail_threshold))


# ---------------------------------------------------------------------------
# Block-structure and theorem reports


class RunHistogramReport(_Record):
    """Run histogram plus the two block-count checks from the refinement.

    head_matches: exactly 1, 1, 6 triangles at runs n, n-1, n-2 (holds from
    n = 4 on; at n = 3 the histogram is {3: 1, 2: 1, 1: 5}).
    tail_matches: A(n) - 8 triangles with run <= n-3.
    """

    def __init__(
        self, n: int, histogram: RunHistogram, head_matches: bool, tail_matches: bool
    ) -> None:
        self.n = n
        self.histogram = histogram
        self.head_matches = head_matches
        self.tail_matches = tail_matches


def run_histogram_report(n: int, limit: int = CENSUS_LIMIT_DEFAULT) -> RunHistogramReport:
    hist = gap_product_census(n, limit=limit).run_histogram()
    counts = hist.counts
    head = (
        counts.get(n, 0) == 1
        and counts.get(n - 1, 0) == 1
        and counts.get(n - 2, 0) == 6
    )
    tail = hist.at_most(n - 3) == asm_number(n) - 8
    return RunHistogramReport(n, hist, head, tail)


class MeetCensusReport(_Record):
    """Exact decomposition N_min = main + second + E for one (n, r).

    main_term   = r A(n)^(r-1)          (tuples containing the minimum)
    second_term = 2r(r-1) A(n-1) A(n)^(r-2)
    error_term  = E, signed; theta_ratio = E / (A(n-2) A(n)^(r-2))
    For r = 1 the decomposition degenerates to main = 1 = n_min, E = 0.
    """

    def __init__(
        self,
        n: int,
        r: int,
        n_min: int,
        p_min: Fraction,
        main_term: int,
        second_term: int,
        error_term: int,
        theta_ratio: Fraction,
    ) -> None:
        self.n = n
        self.r = r
        self.n_min = n_min
        self.p_min = p_min
        self.main_term = main_term
        self.second_term = second_term
        self.error_term = error_term
        self.theta_ratio = theta_ratio

    @property
    def theorem1_ratio(self) -> Fraction:
        """p_min * A(n) / r, the quantity that tends to 1."""
        from fractions import Fraction

        return Fraction(self.n_min, self.r * asm_number(self.n) ** (self.r - 1))


def decompose(n: int, r: int, n_min: int) -> MeetCensusReport:
    """Build the report for a precomputed trivial-meet count (n >= 2)."""
    if type(n) is not int or n < 2:
        raise bound_error("decompose", "n", n, 2)
    if type(r) is not int or r < 1:
        raise bound_error("decompose", "r", r, 1)
    from fractions import Fraction

    a = asm_number
    p_min = Fraction(n_min, a(n) ** r)
    if r == 1:
        return MeetCensusReport(n, r, n_min, p_min, 1, 0, n_min - 1, Fraction(0))
    main = r * a(n) ** (r - 1)
    second = 2 * r * (r - 1) * a(n - 1) * a(n) ** (r - 2)
    error = n_min - main - second
    theta = Fraction(error, a(n - 2) * a(n) ** (r - 2))
    return MeetCensusReport(n, r, n_min, p_min, main, second, error, theta)


def theorem_report(
    n_max: int, r: int, limit: int = TRANSFER_LIMIT_DEFAULT
) -> list[MeetCensusReport]:
    """Decomposition reports for n = 2..n_max at fixed r, from one sweep.

    Rows start at n = 2 because the curvature denominator uses A(n-2).
    Signs of the error term are recorded, never asserted.
    """
    if type(n_max) is not int or n_max < 2:
        raise bound_error("theorem_report", "n_max", n_max, 2)
    if type(r) is not int or r < 1:
        raise bound_error("theorem_report", "r", r, 1)
    swept = _n_min_sweep(n_max, r, limit)
    return [decompose(n, r, swept[n - 1]) for n in range(2, n_max + 1)]
