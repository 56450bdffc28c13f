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
n <= n_max, and after its loop it evaluates the last Q' at the P.

Neither D nor the shift depends on the position or on n_max, and once
x_0, ..., x_{pos-1} are in play a step works on every monomial of each
degree in them, so the process keeps one `_transfer` program per r, built
for the weights P and grown one position at a time the first time a call
reaches it.  Its steps run as a few list-wide maps, with no Python step per
edge, and it holds no coefficient: every call redoes all the arithmetic,
and no N_min value persists between calls.  One charge, `_transfer.work`,
counts the kernel entries a sweep reads, weighted by the size of its
integers: a call is refused before any work when its sweep and the fill of
P(1..n) together exceed its `limit`, and a call that ends with more than
TRANSFER_LIMIT_DEFAULT charged across all programs empties the store, so a
process keeps at most what the largest admitted call builds.  N_min(1, r)
= N_min(n, 1) = 1 and N_min(2, r) = 2^r - 1 build no program and fill no P.

The census side lives in `census`: the distinguished-row census from the
gap products, the two inclusion-exclusion oracles for N_min that `verify`
and the tests check the sweep against, the class sizes and the run
histogram report.  Its public names also resolve here, on first use, so
that a command that only sweeps never compiles it.  P(m) is
`counting.primitive_counts`, which both sides read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .counting import _Record, asm_number, primitive_counts
from .errors import bound_error

if TYPE_CHECKING:
    # Imported where a Fraction is built, so that a command that prints no
    # fraction never loads `fractions` or the `decimal` it imports.
    from fractions import Fraction

    from . import _transfer

# The census side lives in `census`.  These names resolve here to its objects
# on first use, so that a command that only sweeps does not load it.
_FROM_CENSUS = (
    "CENSUS_LIMIT_DEFAULT", "CLASS_SIZES_MAX_RN", "CensusTable", "ClassSizes", "RunHistogram",
    "RunHistogramReport", "avoid_count", "class_bound", "class_sizes", "gap_product_census",
    "load_or_build_census", "n_min_census", "reversed_census", "run_histogram_report",
)


def __getattr__(name: str):
    if name not in _FROM_CENSUS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import census

    return getattr(census, name)


TRANSFER_LIMIT_DEFAULT = 77_000_000  # `_transfer.work` units: a first (223, 2), about 0.35 s
# One program per r for P (see `_transfer`), grown by each call that goes
# further than the calls before it.  A call that ends with more work charged
# to the programs across all r than TRANSFER_LIMIT_DEFAULT empties the store.
_PROGRAMS: dict[int, _transfer.Program] = {}


def _n_min_sweep(n_max: int, r: int, limit: int = TRANSFER_LIMIT_DEFAULT) -> list[int]:
    """N_min(n, r) for n = 1..n_max from one transfer-matrix sweep.

    >>> _n_min_sweep(6, 2)
    [1, 3, 15, 107, 1103, 17767]
    """
    if type(limit) is not int:
        raise bound_error("N_min", "limit", limit, 0)
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
        if r not in _PROGRAMS:
            _PROGRAMS[r] = Program(r, primitive_counts)
        return [1, *_PROGRAMS[r].sweep(n_max)]
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


def p_extreme(n: int, r: int, which: str, limit: int = TRANSFER_LIMIT_DEFAULT) -> Fraction:
    """Probability that r uniform triangles have trivial meet ("min") or
    trivial join ("max"), as an exact reduced fraction.

    Rank reversal is an involution taking distinguished rows to rows at
    their maximum, so both sides are the same count; `census.reversed_census`
    counts the rows at their maximum off the same walk as the census, so
    the join side stays checkable.
    """
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    from fractions import Fraction

    return Fraction(n_min_exact(n, r, limit=limit), asm_number(n) ** r)


# ---------------------------------------------------------------------------
# Theorem reports


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
    if type(n_min) is not int or n_min < 0:
        raise bound_error("decompose", "n_min", n_min, 0)
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
