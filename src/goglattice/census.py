"""The distinguished-row census, the inclusion-exclusion oracles for N_min,
and the class sizes counted from the census.

The census of size n maps each exact distinguished set D (as a bitmask, bit
i-1 for row i, always holding the bottom row n) to f(D), the number of
triangles whose distinguished rows are exactly D.  The gap products eta_n
are multiplicative over the gaps between distinguished rows, so

    f(D) = prod over gaps g of D of P(g),

with P(m) = `counting.primitive_counts` the size-m triangles whose only
distinguished row is the bottom one.  Every count over all masks reads two
primitives: `_gap_products(n, w)`, the product of w over the gaps of each
set (f(D) for w = P, `counting.eta` for w = A), and `_subset_sums`, the
fast zeta transform, which gives each mask the sum over its subsets.
`gap_product_census` is the production route behind `load_or_build_census`
and `gog census`, with 2^(n-1) sets up to n = CENSUS_LIMIT_DEFAULT.
Computing it is faster than reading its text back, so nothing here stores
a census.  `enumeration.build_census`, which walks every triangle and so
stops at n = 7, is its oracle in `verify` and the tests.  A census has a
text form, which is read back by comparing it with the census computed
for its n:

    MTCENSUS v1 n=<n> total=<decimal A(n)>
    <bitmask-hex> <decimal count>          (ascending bitmask)

The production count of N_min(n, r), the r-tuples of size-n triangles
whose meet is the minimal triangle, is the transfer-matrix sweep of
`meet_census`.  Two independent oracles for it stay here, for `verify` and
the tests: the double inclusion-exclusion over the 2^(n-1) row subsets,

    N_min(n, r) = sum over T subset of [n-1] of (-1)^|T| g(T)^r,

with g(T) the triangles whose distinguished set avoids T, both through one
signed sum.  `_n_min_ie` takes every g(T) = sum over S subset of T of
(-1)^|S| eta(S) as the subset sums of the signed gap products of A, with
no census; `n_min_census` reads it off the subset sums of a census
(`_avoid_counts`), and `class_sizes` off those of its keys of chosen runs.
`avoid_count`, the g(T) of one T, splits the sum on T's highest member.
The records take `==` and repr from `counting._Record`, and a key's
longest run comes from the mask loop there, so the census and its class
sizes load no `triangles`.  Rank reversal maps distinguished rows to rows
at their maximum, so N_max = N_min; the reversed census counts rows at
their maximum off the same walk as `enumeration.build_census`, and so
checks the count on the join side.
"""

from __future__ import annotations

import os
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .counting import (
    ENUM_LIMIT_DEFAULT,
    _Record,
    _mask_max_run,
    _sorted_members,
    asm_number,
    primitive_counts,
)
from .errors import FormatError, bound_error

if TYPE_CHECKING:
    from .triangles import RowSet

CENSUS_LIMIT_DEFAULT = 18  # 2^17 distinguished sets, computed in about 0.02 s
CLASS_SIZES_MAX_RN = 60_000  # class_sizes' r(n-1): (7, 10000) takes about 0.8 s


def avoid_count(n: int, t_set: RowSet | tuple[int, ...] | list[int]) -> int:
    """Triangles of size n with no distinguished row inside t_set (subset of [n-1]).

    >>> avoid_count(3, (1,)), avoid_count(3, (1, 2))
    (5, 4)
    """
    if type(n) is not int or n < 0:
        raise bound_error("avoid_count", "n", n, 0)
    ts = _sorted_members("avoid_count", n, t_set)
    a = [asm_number(i) for i in range(n + 1)]
    # s[j] collects the signed gap products over subsets of ts with maximum
    # ts[j]; splitting on the maximum turns the 2^m subset sum into O(m^2).
    s: list[int] = []
    for j, t in enumerate(ts):
        sj = -a[t]
        for i in range(j):
            sj -= s[i] * a[t - ts[i]]
        s.append(sj)
    return a[n] + sum(sj * a[n - t] for sj, t in zip(s, ts))


# ---------------------------------------------------------------------------
# Distinguished-row census


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
            or pairs != list(gap_product_census(n, limit=n).counts.items())
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


def _gap_products(n: int, w: list[int]) -> list[int]:
    """For each mask of rows in [n-1], the product of w over the gaps of its
    rows and the bottom row n: f(D) for w = P, eta(T) for w = A.

    g(mask) = g(rest) w(t - s), with t the highest row of mask, rest the
    mask without t and s its highest row (0 if rest is empty).
    """
    g = [1]  # g of the empty mask
    for t in range(1, n + 1):
        # The masks with highest row t, ascending: t over each rest < 2^(t-1),
        # taken in blocks of one highest row s.  A weight of 1 spares the
        # multiply: P(1) = P(2) = 1 for three quarters of them, A(1) = 1 for half.
        for s in range(t):
            block = g[(1 << s) >> 1 : 1 << s]
            factor = w[t - s]
            g += block if factor == 1 else [factor * x for x in block]
    return g[1 << (n - 1) :]


def _subset_sums(z: list[int]) -> list[int]:
    """Replace each z[S] by the sum of z over the subsets of S, in place, by
    one pass per row: k 2^(k-1) additions for 2^k masks.  Returns z."""
    step = 1
    while step < len(z):
        for low in range(0, len(z), 2 * step):
            high = low + step
            z[high : high + step] = map(add, z[high : high + step], z[low:high])
        step *= 2
    return z


def gap_product_census(n: int, limit: int = CENSUS_LIMIT_DEFAULT) -> CensusTable:
    """Exact distinguished-set census of the size-n triangles, f(D) for each D.

    >>> gap_product_census(3).counts
    {4: 4, 5: 1, 6: 1, 7: 1}
    """
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("census", "n", n, 1, limit, f"{CENSUS_LIMIT_DEFAULT=}")
    counts = _gap_products(n, primitive_counts(n))
    return CensusTable(n, dict(zip(range(1 << (n - 1), 1 << n), counts)))


def load_or_build_census(
    n: int,
    cache_dir: str | os.PathLike | None = None,
    limit: int = CENSUS_LIMIT_DEFAULT,
) -> CensusTable:
    """The census from the gap products, `gap_product_census(n, limit=limit)`.

    `cache_dir` is accepted and ignored: no file is read or written.
    """
    return gap_product_census(n, limit=limit)


def reversed_census(n: int, limit: int = ENUM_LIMIT_DEFAULT) -> CensusTable:
    """Census keyed by the rows at their maximum: row i is n-i+1, ..., n, the
    distinguished rows of the rank-reversed triangle.  It is counted off the
    same walk as `enumeration.build_census`, with row i keyed at its maximum
    instead of its minimum, and builds no triangle."""
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("reversed_census", "n", n, 1, limit, f"{ENUM_LIMIT_DEFAULT=}")
    from .enumeration import _census

    return _census(n, [tuple(range(n - i + 1, n + 1)) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Inclusion-exclusion oracles


def _signed_sum(r: int, avoid: Iterable[int]) -> int:
    """Sum over T subset of [n-1] of (-1)^|T| g(T)^r, with avoid listing g(T)
    for each T by mask."""
    total = 0
    for mask, count in enumerate(avoid):
        term = count**r
        total += -term if mask.bit_count() & 1 else term
    return total


def _n_min_ie(n: int, r: int) -> int:
    """Oracle for `n_min_exact`: the inclusion-exclusion sum, with every g(T)
    from the gap products of A and no census."""
    eta = _gap_products(n, [asm_number(i) for i in range(n + 1)])
    signed = [-x if mask.bit_count() & 1 else x for mask, x in enumerate(eta)]
    return _signed_sum(r, _subset_sums(signed))


def _avoid_counts(n: int, counts: dict[int, int]) -> list[int]:
    """For each mask T of rows in [n-1], the census count of the keys that
    avoid T: those whose rows in [n-1] lie in full ^ T, the rows outside T,
    so the count is entry full ^ T of `_subset_sums` of the exact-set counts.
    """
    full = (1 << (n - 1)) - 1
    z = [0] * (full + 1)
    for mask, count in counts.items():
        z[mask & full] += count
    return _subset_sums(z)[::-1]  # full ^ T is full - T


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
    return _signed_sum(r, _avoid_counts(n, census.counts))


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
    """Exact class sizes by the inclusion-exclusion signed sum over the census
    keys of some runs (a tuple's class depends only on its components'
    distinguished sets): exact_sizes[v] is N_min less the covering tuples
    with no component of run v, and tail_size the covering tuples with every
    run <= tail_threshold.  A sum raises 2^(n-1) counts to the r-th power:
    the default limit holds n to 7, and a cap that no knob raises holds
    r(n-1) to CLASS_SIZES_MAX_RN."""
    if type(r) is not int or r < 1:
        raise bound_error("class_sizes", "r", r, 1)
    if type(n) is not int or not 1 <= n <= limit:
        raise bound_error("class_sizes", "n", n, 1, limit, f"{ENUM_LIMIT_DEFAULT=}")
    if r * (n - 1) > CLASS_SIZES_MAX_RN:
        raise bound_error("class_sizes", "r(n-1)", r * (n - 1), 0, CLASS_SIZES_MAX_RN)
    low = max(1, n - 6 * r)
    tail_threshold = n - 6 * r - 1
    if r == 1:  # only tau_min, of run n, meets trivially alone; no sums
        return ClassSizes(n, r, {v: int(v == n) for v in range(low, n + 1)}, tail_threshold, 0)
    census = gap_product_census(n, limit=limit).counts
    runs = {mask: _mask_max_run(mask) for mask in census}

    def covering(keep: Callable[[int], bool]) -> int:
        kept = {mask: count for mask, count in census.items() if keep(runs[mask])}
        return _signed_sum(r, _avoid_counts(n, kept))

    n_min = covering(lambda run: True)
    exact = {v: n_min - covering(lambda run: run != v) for v in range(low, n + 1)}
    return ClassSizes(n, r, exact, tail_threshold, covering(lambda run: run <= tail_threshold))


# ---------------------------------------------------------------------------
# Block-structure report


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
