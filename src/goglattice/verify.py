"""Invariant suites behind the `verify` command.

Each suite replays one family of checks at the requested size ceiling
(internally capped at the documented desk-scale limits), returns the number
of checks performed, and raises VerificationFailure with the first
counterexample found.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from typing import Iterator

from . import census, counting, enumeration, lattice, meet_census
from .errors import GogError, VerificationFailure
from .lattice import OrderRelation, compare, is_trivial, join, meet
from .matrices import Permutation
from .triangles import MonotoneTriangle, RowSet, extremal_triangle, near_minimal_triangle

FIG1_TRIANGLE = MonotoneTriangle(((3,), (2, 4), (1, 3, 4), (1, 2, 3, 4)))
FIG1_COLUMN_SUM = ((0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1))
FIG1_ASM = ((0, 0, 1, 0), (0, 1, -1, 1), (1, -1, 1, 0), (0, 1, 0, 0))

# The lemma sweep costs about n^4: on a 2-vCPU machine 0.45 s at n = 120, 4 s at 200.
LEMMAS_N_MAX = 120
_SEED = 20240817  # the lattice suite's samples

INCOMPARABLE_PAIR = (
    MonotoneTriangle(((3,), (1, 3), (1, 2, 3))),
    MonotoneTriangle(((2,), (2, 3), (1, 2, 3))),
)


def _fail(suite: str, detail: str) -> None:
    raise VerificationFailure(f"{suite}: {detail}")


def verify_bijections(n_max: int = 6) -> int:
    suite = "bijections"
    checks = 0

    if FIG1_TRIANGLE.to_column_sum().entries != FIG1_COLUMN_SUM:
        _fail(suite, "column-sum form of the reference triangle is wrong")
    if FIG1_TRIANGLE.to_asm().entries != FIG1_ASM:
        _fail(suite, "ASM form of the reference triangle is wrong")
    checks += 2

    for n in range(1, min(n_max, 6) + 1):
        for t in enumeration.enumerate_triangles(n):
            if MonotoneTriangle.from_column_sum(t.to_column_sum()) != t:
                _fail(suite, f"column-sum roundtrip broke at n={n}: {t.rows}")
            asm = t.to_asm()
            if MonotoneTriangle.from_asm(asm) != t:
                _fail(suite, f"ASM roundtrip broke at n={n}: {t.rows}")
            checks += 2
            if n <= 5:
                if t.is_permutation_triangle() == asm.has_negative_entry():
                    _fail(suite, f"permutation test disagrees with ASM signs: {t.rows}")
                checks += 1
            if n <= 4:
                if t.rank_reverse().rank_reverse() != t:
                    _fail(suite, f"rank reversal is not an involution on {t.rows}")
                checks += 1

    for values in permutations(range(1, 5)):
        p = Permutation(values)
        if p.to_triangle() != MonotoneTriangle.from_asm(p.to_asm()):
            _fail(suite, f"permutation embedding disagrees with its matrix: {values}")
        checks += 1
    return checks


def verify_lattice(n_max: int = 7) -> int:
    suite = "lattice"
    checks = 0

    t1, t2 = INCOMPARABLE_PAIR
    if compare(t1, t2) is not OrderRelation.INCOMPARABLE:
        _fail(suite, "the reference incomparable pair compares as comparable")
    if meet((t1, t2)).rows != ((2,), (1, 3), (1, 2, 3)):
        _fail(suite, "meet of the reference pair is wrong")
    if join((t1, t2)) != extremal_triangle(3, "max"):
        _fail(suite, "join of the reference pair is wrong")
    inf = meet((t1, t2))
    if inf.is_permutation_triangle():
        _fail(suite, "meet of the 312/231 pair should leave the permutation set")
    checks += 4

    m4 = list(enumeration.enumerate_triangles(4))
    for a in m4:
        if meet((a, a)) != a or join((a, a)) != a:
            _fail(suite, f"idempotence broke at {a.rows}")
        checks += 1
    for a, b in product(m4, repeat=2):
        m = meet((a, b))
        j = join((a, b))
        if m != meet((b, a)) or j != join((b, a)):
            _fail(suite, f"commutativity broke at {a.rows}, {b.rows}")
        if not (lattice.leq(m, a) and lattice.leq(m, b)):
            _fail(suite, f"meet is not a lower bound at {a.rows}, {b.rows}")
        if not (lattice.leq(a, j) and lattice.leq(b, j)):
            _fail(suite, f"join is not an upper bound at {a.rows}, {b.rows}")
        if meet((a, j)) != a or join((a, m)) != a:
            _fail(suite, f"absorption broke at {a.rows}, {b.rows}")
        checks += 4

    samples = enumeration.sample_uniform(min(n_max, 6), 3 * 500, _SEED)
    for k in range(500):
        a, b, c = samples[3 * k : 3 * k + 3]
        if meet((meet((a, b)), c)) != meet((a, meet((b, c)))):
            _fail(suite, "meet associativity broke on a random triple")
        if join((join((a, b)), c)) != join((a, join((b, c)))):
            _fail(suite, "join associativity broke on a random triple")
        checks += 2

    m3 = list(enumeration.enumerate_triangles(3))
    checks += _check_coverage(suite, 3, list(product(m3, repeat=2)))
    n_rand = min(n_max, 7)
    tuples7 = enumeration.sample_uniform(n_rand, 3 * 200, _SEED + 1)
    triples = [tuple(tuples7[k : k + 3]) for k in range(0, 3 * 200, 3)]
    checks += _check_coverage(suite, n_rand, triples)
    return checks


def _check_coverage(suite: str, n: int, tuples: list[tuple[MonotoneTriangle, ...]]) -> int:
    """`is_trivial` against the meet built and compared with the minimal
    triangle, and on the reversed tuple against the join and the maximal
    one; then a trivial meet iff the distinguished rows jointly cover [n],
    and its dual via reversal."""
    full = (1 << n) - 1
    minimal, maximal = extremal_triangle(n, "min"), extremal_triangle(n, "max")
    for ts in tuples:
        trivial = is_trivial(ts, "meet")
        if trivial != (meet(ts) == minimal):
            _fail(suite, f"is_trivial disagrees with the meet at n={n}: {[t.rows for t in ts]}")
        reversed_ts = tuple(t.rank_reverse() for t in ts)
        trivial_join = is_trivial(reversed_ts, "join")
        if trivial_join != (join(reversed_ts) == maximal):
            _fail(suite, f"is_trivial disagrees with the join at n={n}: {[t.rows for t in ts]}")
        covered = 0
        for t in ts:
            covered |= t.distinguished_rows().mask
        if trivial != (covered == full):
            _fail(suite, f"coverage characterization broke at n={n}: {[t.rows for t in ts]}")
        if trivial != trivial_join:
            _fail(suite, f"meet/join duality broke at n={n}: {[t.rows for t in ts]}")
    return 4 * len(tuples)


def verify_lemmas(n_max: int = 25) -> int:
    suite = "lemmas"
    report = counting.lemma_margins(max(min(n_max, LEMMAS_N_MAX), 2))
    bad = report.violations()
    if bad:
        _fail(suite, bad[0])
    checks = report.checks
    for n in range(1, min(n_max, 12) + 1):
        if counting.asm_number(n) < math.factorial(n):
            _fail(suite, f"A({n}) < {n}!")
        checks += 1
    for n in range(2, min(n_max, 16) + 1):
        if not counting.bleher_fokin_estimate(n) > 0:
            _fail(suite, f"asymptotic diagnostic not positive at n={n}")
        checks += 1
    return checks


def verify_census(n_max: int = 6) -> int:
    suite = "census"
    checks = 0
    for n in range(1, min(n_max, 7) + 1):
        table = enumeration.build_census(n)
        if table.total() != counting.asm_number(n):
            _fail(suite, f"census values at n={n} do not sum to A({n})")
        if census.gap_product_census(n) != table:
            _fail(suite, f"the gap-product census differs from the enumerated one at n={n}")
        checks += 2
        for mask in range(1 << (n - 1)):
            members = RowSet(n, mask).members
            if table.containment_count(mask) != counting.eta(n, members):
                _fail(suite, f"containment sum != eta at n={n}, I={members}")
            checks += 1
        if census.CensusTable.from_text(table.to_text()).counts != table.counts:
            _fail(suite, f"census text roundtrip broke at n={n}")
        checks += 1
    table3 = enumeration.build_census(3)
    if table3.counts != {0b100: 4, 0b101: 1, 0b110: 1, 0b111: 1}:
        _fail(suite, f"size-3 census is wrong: {table3.counts}")
    if table3.run_histogram().counts != {1: 5, 2: 1, 3: 1}:
        _fail(suite, "size-3 run histogram is wrong")
    checks += 2
    return checks


def verify_theorems(n_max: int = 6) -> int:
    suite = "theorems"
    checks = 0

    for n, r in product(range(1, min(n_max, 6) + 1), (1, 2, 3)):
        n_min = meet_census.n_min_exact(n, r)
        if n_min != census._n_min_ie(n, r):
            _fail(suite, f"transfer count and IE oracle disagree at (n={n}, r={r})")
        if n_min != census.n_min_census(n, r):
            _fail(suite, f"transfer count and census oracle disagree at (n={n}, r={r})")
        checks += 2

    for n, r, expected in ((2, 2, 3), (3, 2, 15)):
        ts = list(enumeration.enumerate_triangles(n))
        brute = sum(
            1 for combo in product(ts, repeat=r) if is_trivial(combo, "meet")
        )
        if brute != expected or meet_census.n_min_exact(n, r) != expected:
            _fail(suite, f"spot value N_min({n},{r}) != {expected}")
        checks += 1

    # p_max = p_min by rank reversal: count the join side on reversed keys.
    for n in range(1, min(n_max, 5) + 1):
        table = census.reversed_census(n)
        for r in (1, 2, 3):
            if census.n_min_census(n, r, census=table) != meet_census.n_min_exact(n, r):
                _fail(suite, f"reversed census gives N_max != N_min at (n={n}, r={r})")
            checks += 1

    for n, r in product(range(1, min(n_max, 10) + 1), (1, 2, 3)):
        a = counting.asm_number(n)
        if meet_census.n_min_exact(n, r) < r * (a - 1) ** (r - 1):
            _fail(suite, f"lower bound r(A(n)-1)^(r-1) broke at (n={n}, r={r})")
        checks += 1

    for r in (1, 2, 3):
        for report in meet_census.theorem_report(max(2, min(n_max, 12)), r):
            if report.main_term + report.second_term + report.error_term != report.n_min:
                _fail(suite, f"decomposition identity broke at (n={report.n}, r={r})")
            if report.n_min != meet_census.n_min_exact(report.n, r):
                _fail(suite, f"the one-sweep report differs at (n={report.n}, r={r})")
            checks += 1

    for n in range(4, min(n_max, 7) + 1):
        block = census.run_histogram_report(n)
        if not (block.head_matches and block.tail_matches):
            _fail(suite, f"block counts 1, 1, 6 / A(n)-8 broke at n={n}")
        checks += 1
    report3 = census.run_histogram_report(3)
    if report3.histogram.counts != {1: 5, 2: 1, 3: 1} or report3.head_matches:
        _fail(suite, "the documented n=3 deviation changed")
    checks += 1
    for n in range(4, min(n_max, 7) + 1):
        for which in ("top", "penult"):
            t = near_minimal_triangle(n, which)
            if not t.distinguished_rows().max_consecutive_run() > n - 3:
                _fail(suite, f"near-minimal triangle lost its long block at n={n}")
            checks += 1
    return checks


SUITES = {
    "bijections": verify_bijections,
    "lattice": verify_lattice,
    "lemmas": verify_lemmas,
    "census": verify_census,
    "theorems": verify_theorems,
}


def run_suites(which: str, n_max: int) -> Iterator[tuple[str, int]]:
    """Run one suite or all of them, yielding (name, checks) as each passes.

    A domain error in a suite stops the run as a VerificationFailure whose
    message is the suite's name, a colon and the error's own message.
    """
    for name in list(SUITES) if which == "all" else [which]:
        try:
            checks = SUITES[name](n_max)
        except GogError as exc:
            raise VerificationFailure(f"{name}: {exc}") from exc
        yield name, checks
