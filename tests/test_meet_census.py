"""Trivial-meet counting: the transfer-matrix sweep against the inclusion-exclusion
and census oracles and brute force."""

import hashlib
import json
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations_with_replacement, product
from math import comb, prod
from operator import or_
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goglattice import (
    LimitExceeded,
    RowOutOfRange,
    asm_number,
    avoid_count,
    class_bound,
    class_sizes,
    decompose,
    gap_product_census,
    is_trivial,
    load_or_build_census,
    n_min_census,
    n_min_exact,
    p_extreme,
    primitive_counts,
    reversed_census,
    run_histogram_report,
    theorem_report,
)
from goglattice import _transfer, counting, meet_census
from goglattice._transfer import work
from goglattice.census import _avoid_counts, _n_min_ie
from goglattice.meet_census import (
    CENSUS_LIMIT_DEFAULT,
    TRANSFER_LIMIT_DEFAULT,
    CensusTable,
    ClassSizes,
    _n_min_sweep,
)


def product_sweep(n_max, r, p=None):
    """Oracle for `_n_min_sweep`: the transfer matrix over the multiset of the
    components' last positions, expanding each state into all Prod(c + 1) - 1
    ways some of its components move to the next position.  A jump of g
    positions weighs p[g], by default P(g)."""
    if p is None:
        p = primitive_counts(n_max)
    # A state is the multiset of the components' last distinguished
    # positions, as ascending (position, multiplicity) pairs.  Its weight
    # counts labelled tuples, so moving k of the c components sitting at v
    # to pos multiplies it by C(c, k) P(pos - v)^k.
    states = {((0, r),): 1}
    for pos in range(1, n_max + 1):
        total = 0
        for state, weight in states.items():
            for v, c in state:
                weight *= p[pos - v] ** c
            total += weight
        yield total
        if pos == n_max:
            return
        nxt = {}
        while states:
            state, weight = states.popitem()
            # per pair (v, c): (C(c, k) P(pos - v)^k, k, the pairs kept at v)
            choices = []
            for v, c in state:
                g = p[pos - v]
                factor = 1
                options = [(1, 0, ((v, c),))]
                for k in range(1, c + 1):
                    factor = factor * (c - k + 1) // k * g
                    options.append((factor, k, ((v, c - k),) if k < c else ()))
                choices.append(options)
            for combo in product(*choices):
                w = weight
                moved = 0
                kept = ()
                for factor, k, pairs in combo:
                    w *= factor
                    moved += k
                    kept += pairs
                if moved:  # some component must be distinguished at pos
                    key = kept + ((pos, moved),)
                    nxt[key] = nxt.get(key, 0) + w
        states = nxt


# The product oracle's cost grows like Prod(c + 1): at n = 5 it takes about
# 0.5 s for r = 17 and 20 s for r = 31, so past these sizes only the
# inclusion-exclusion oracle, which costs 2^(n-1) terms for any r, checks.
PRODUCT_R_MAX = {1: 31, 2: 31, 3: 31, 4: 25, 5: 14}


class TestAvoidCount:
    def test_no_constraint(self):
        assert avoid_count(3, ()) == 7

    def test_spec_values(self):
        assert avoid_count(3, (1,)) == 5
        assert avoid_count(3, (1, 2)) == 4

    def test_brute_force_oracle(self, universe):
        for n in range(1, 6):
            masks = [t.distinguished_rows().mask for t in universe(n)]
            for t_mask in range(1 << (n - 1)):
                members = tuple(i for i in range(1, n) if t_mask >> (i - 1) & 1)
                brute = sum(1 for m in masks if m & t_mask == 0)
                assert avoid_count(n, members) == brute

    @pytest.mark.parametrize("n", range(1, 8))
    def test_subset_sum_transform_matches_the_key_scan(self, n):
        # every mask's avoidance count, scanned off the keys, for the whole
        # census and for one kept to some keys, as `class_sizes` passes it
        full = gap_product_census(n).counts
        kept = {m: c for m, c in full.items() if m % 3}
        for counts in (full, kept):
            assert _avoid_counts(n, counts) == [
                sum(c for m, c in counts.items() if m & mask == 0) for mask in range(1 << (n - 1))
            ]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_per_set_dp_matches_the_transform(self, n):
        avoid = _avoid_counts(n, gap_product_census(n).counts)
        assert [avoid_count(n, counting._mask_rows(mask)) for mask in range(1 << (n - 1))] == avoid

    def test_out_of_range(self):
        with pytest.raises(RowOutOfRange):
            avoid_count(3, (3,))
        with pytest.raises(ValueError, match="avoid_count needs n >= 0, got -1"):
            avoid_count(-1, ())
        assert avoid_count(0, ()) == 1 == asm_number(0)


class TestNMin:
    def test_r_one_is_always_one(self):
        # answered before any program or P fill, up to the boundary (260, 1)
        meet_census._PROGRAMS.clear()
        del counting._P_CACHE[1:]
        for n in (1, 2, 5, 9, 260):
            assert n_min_exact(n, 1) == 1
        assert meet_census._PROGRAMS == {} and counting._P_CACHE == [0]

    def test_spot_values_against_brute_force(self, universe):
        for n, r in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)):
            brute = sum(
                1
                for combo in product(universe(n), repeat=r)
                if is_trivial(combo, "meet")
            )
            assert n_min_exact(n, r) == brute
        assert n_min_exact(2, 2) == 3
        assert n_min_exact(3, 2) == 15

    def test_size_one(self):
        for r in (1, 2, 3):
            assert n_min_exact(1, r) == 1
            assert n_min_census(1, r) == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_census_oracle(self, r, censuses):
        for n in range(1, 7):
            assert n_min_exact(n, r) == n_min_census(n, r, census=censuses(n))
        with pytest.raises(ValueError, match="census is for n=4, expected 5"):
            n_min_census(5, r, census=censuses(4))

    @pytest.mark.parametrize("r, n_top", [(1, 12), (2, 16), (3, 14), (4, 10)])
    def test_ie_oracle(self, r, n_top):
        for n in range(1, n_top + 1):
            assert n_min_exact(n, r) == _n_min_ie(n, r)

    def test_primitive_counts_match_census(self, censuses):
        p = primitive_counts(7)
        assert p == [0, 1, 1, 4, 29, 343, 6536, 202890]
        for m in range(1, 8):
            assert censuses(m).counts[1 << (m - 1)] == p[m]

    def test_primitive_counts_refuse_a_negative_bound(self):
        primitive_counts(10)  # a negative slice bound would count from the end of this cache
        assert primitive_counts(0) == [0]
        for m_max in (-1, -5):
            with pytest.raises(ValueError, match=f"primitive_counts needs m_max >= 0, got {m_max}"):
                primitive_counts(m_max)

    def test_lower_bound(self):
        for n in range(1, 9):
            for r in (2, 3):
                assert n_min_exact(n, r) >= r * (asm_number(n) - 1) ** (r - 1)

    def test_limit(self):
        for n, r in ((47, 4), (90, 3), (223, 2)):
            assert n_min_exact(n, r) >= r * (asm_number(n) - 1) ** (r - 1)
        assert n_min_exact(2, 34303) == 2**34303 - 1
        for n, r in ((48, 4), (91, 3), (224, 2), (261, 1), (2, 34304)):
            with pytest.raises(LimitExceeded, match="raise `limit`"):
                n_min_exact(n, r)
        with pytest.raises(LimitExceeded):
            theorem_report(48, 4)
        with pytest.raises(LimitExceeded):
            p_extreme(224, 2, "max")
        limit = charge(2, 34304)
        assert n_min_exact(2, 34304, limit=limit) == theorem_report(2, 34304, limit=limit)[-1].n_min

    def test_one_is_unbounded_in_r_and_two_is_not(self):
        assert n_min_exact(1, 10**6) == 1
        with pytest.raises(LimitExceeded, match=r"N_min\(n=2, r=1000000\) needs more than"):
            n_min_exact(2, 10**6)
        with pytest.raises(LimitExceeded):
            n_min_exact(10**6, 10**6)  # refused before its binomials are computed

    def test_refusal_builds_nothing(self):
        meet_census._PROGRAMS.clear()
        del counting._P_CACHE[1:]
        for call in (lambda: n_min_exact(300, 2), lambda: theorem_report(91, 3)):
            with pytest.raises(LimitExceeded):
                call()
        assert meet_census._PROGRAMS == {} and counting._P_CACHE == [0]

    def test_gates_stay_admitted(self):
        for key in SWEEP_DIGESTS:
            n, r = map(int, key.split(","))
            assert charge(n, r) <= TRANSFER_LIMIT_DEFAULT

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300))
    @example(1, 1)
    @example(2, 1)
    @example(2, 2)
    def test_charge_never_decreases(self, n, r):
        # so that the admitted (n, r) form a down-set: every boundary is real
        for f in (work, charge):
            assert f(n, r) <= f(n + 1, r) and f(n, r) <= f(n, r + 1)


class TestSweepOracles:
    """The sweep against its three oracles wherever their ranges overlap."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 4))
    def test_matches_product_sweep(self, n, r):
        assert _n_min_sweep(n, r) == list(product_sweep(n, r))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 31))
    @example(4, 31)
    @example(5, 17)
    @example(5, 31)
    def test_many_components(self, n, r):
        swept = _n_min_sweep(n, r)
        assert swept[-1] == _n_min_ie(n, r)
        if r <= PRODUCT_R_MAX[n]:
            assert swept == list(product_sweep(n, r))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4))
    def test_matches_inclusion_exclusion(self, n, r):
        assert _n_min_sweep(n, r)[-1] == _n_min_ie(n, r)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8))
    def test_matches_census(self, censuses, n, r):
        assert _n_min_sweep(n, r)[-1] == n_min_census(n, r, census=censuses(n))


def series_primitive_counts(m_max):
    """Oracle for `primitive_counts`, from scratch: A(x) = 1 + P(x) A(x), so
    P = 1 - 1/A, with 1/A inverted term by term."""
    a = [asm_number(m) for m in range(m_max + 1)]
    inverse = [1]
    for m in range(1, m_max + 1):
        inverse.append(-sum(a[k] * inverse[m - k] for k in range(1, m + 1)))
    return [0] + [-b for b in inverse[1:]]


PRIMITIVE_60 = series_primitive_counts(60)


class TestPrimitiveCountsCache:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=8))
    def test_any_call_order_matches_scratch(self, calls):
        del counting._P_CACHE[1:]  # start this example from a cold cache
        for m_max in calls:
            p = primitive_counts(m_max)
            assert p == PRIMITIVE_60[: m_max + 1]
            p[-1] += 1  # the caller owns the returned list
            p.append(7)
        assert [primitive_counts(m) for m in calls] == [PRIMITIVE_60[: m + 1] for m in calls]

    def test_sweep_reads_the_cache_unchanged(self):
        primitive_counts(20).clear()
        assert _n_min_sweep(6, 2) == [1, 3, 15, 107, 1103, 17767]


def dyck_returns(n):
    """For each Dyck path of semilength n, the mask of its interior returns:
    bit i - 1 when it is at height 0 after step 2i, 0 < i < n."""
    masks = []

    def walk(step, height, mask):
        if step == 2 * n:
            masks.append(mask)
            return
        if height < 2 * n - step:
            walk(step + 1, height + 1, mask)
        if height == 1 and step + 1 < 2 * n:
            walk(step + 1, 0, mask | 1 << ((step + 1) // 2 - 1))
        elif height:
            walk(step + 1, height - 1, mask)

    walk(0, 0, 0)
    return masks


CATALAN = [comb(2 * k, k) // (k + 1) for k in range(12)]


@cache
def swept_oracle(r, n_max=14):
    """[N_min(1, r), ..., N_min(n_max, r)] from the product oracle, once per r."""
    return list(product_sweep(n_max, r))


def charge(n, r):
    """What a call to n at r is charged: its sweep and the fill of P(1..n)."""
    return work(n, r) + work(n, 2)


def store_charge():
    return sum(work(program.top + 1, program.r) for program in meet_census._PROGRAMS.values())


def lex(e, width):
    """The monomials of degree e in x_0, ..., x_{width-1} as sorted distance
    tuples, in the sweep's order."""
    return list(combinations_with_replacement(range(width), e))


EVERY_RANK = range(1 << 40)  # reads a kernel's ranks back as ints


def check_kernels(program, p):
    # From pos = 2 on, the kernel of degree e lists, for each monomial m of
    # degree e in lex order, the ranks of m x_0, ..., m x_{pos-1} among the
    # monomials of degree e + 1 and their factors (c + 1) P(d+1), c the
    # multiplicity of d in m.
    for pos, kernels in program.kernels.items():
        assert len(kernels) == max(program.r - 2, 0)
        for e, (get, factors) in zip(range(program.r - 2, 0, -1), kernels):
            ranks = {m: i for i, m in enumerate(lex(e + 1, pos))}
            steps = [(m, d) for m in lex(e, pos) for d in range(pos)]
            assert list(get(EVERY_RANK)) == [ranks[tuple(sorted(m + (d,)))] for m, d in steps]
            assert factors == [(m.count(d) + 1) * p[d + 1] for m, d in steps]


def check_closings(program, p):
    # The one closing a program holds, for the position the last sweep ended
    # on, weighs each monomial of the state formed there (degree r - 1 in
    # x_0, ..., x_pos, lex order) by the product of P(d+1) over its
    # distances d.
    pos, weights = program.closings
    assert weights == [prod(p[d + 1] for d in m) for m in lex(program.r - 1, pos + 1)]


SWEEP_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "sweep_digests.json").read_text()
)["digests"]


class TestTransferProgram:
    """The per-r programs that `_n_min_sweep` compiles once per process."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 14), st.integers(1, 5)), min_size=1, max_size=8))
    @example([(6, 3), (12, 3), (4, 3)])  # widen a compiled program, then a smaller call
    @example([(9, 5), (2, 5), (14, 5), (13, 5)])
    def test_any_call_order_matches_oracles(self, calls):
        meet_census._PROGRAMS.clear()  # start this example from an empty store
        for n, r in calls:
            swept = _n_min_sweep(n, r)
            assert swept == swept_oracle(r)[:n]
            if n <= 8:
                assert swept[-1] == _n_min_ie(n, r)
        assert store_charge() <= TRANSFER_LIMIT_DEFAULT

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.lists(st.integers(1, 12), min_size=1, max_size=4))
    @example(4, [9, 12, 14])
    @example(3, [12, 2, 6])
    def test_widening_keeps_every_position(self, r, ns):
        # Calls at one r, in order: a kernel and the closing equal their
        # definitions, a kernel equals the one a program built straight to
        # its position holds, a position, once served, keeps the same
        # kernels, and the one closing is the last call's, kept while calls
        # end on the same position.
        meet_census._PROGRAMS.clear()
        served = {}
        for n in ns:
            assert _n_min_sweep(n, r) == swept_oracle(r)[:n]
            program = meet_census._PROGRAMS.get(r)
            if program is not None:
                assert served.setdefault("program", program) is program
                for pos, held in program.kernels.items():
                    assert served.setdefault(pos, held) is held
                if n > 2:
                    closing = served.get("closing", (None, None))
                    assert program.closings[0] == n - 1
                    assert closing[0] != n - 1 or program.closings[1] is closing[1]
                    served["closing"] = program.closings
        if max(ns) <= 2 or r == 1:
            assert r not in meet_census._PROGRAMS  # n <= 2 and r = 1 build nothing
            return
        program = meet_census._PROGRAMS[r]
        top = max(ns) - 1
        assert program.top == top and store_charge() == work(top + 1, r)
        assert list(program.kernels) == list(range(2, top + 1))
        assert program.closings[0] == [n - 1 for n in ns if n > 2][-1]
        p = primitive_counts(max(ns))
        check_kernels(program, p)
        check_closings(program, p)
        straight = _transfer.Program(r)
        assert straight.sweep(max(ns), p) == swept_oracle(r)[1 : max(ns)]
        assert list(straight.kernels) == list(program.kernels)
        for pos, kernels in program.kernels.items():
            assert [(get(EVERY_RANK), factors) for get, factors in kernels] == [
                (get(EVERY_RANK), factors) for get, factors in straight.kernels[pos]
            ]

    @pytest.mark.parametrize("n, r", [(3, 300), (4, 31)])
    def test_store_holds_pair_keys(self, n, r):
        # The widest position is n - 1, so the program covers the monomials of
        # degree e < r in the n - 1 distances 0..n-2, C(e + n - 2, n - 2) of
        # them.  It holds n - 1 ranks and multiplicities per monomial of
        # degree 1..r-2 at its widest position.
        meet_census._PROGRAMS.clear()
        assert n_min_exact(n, r) == _n_min_ie(n, r)
        program = meet_census._PROGRAMS[r]
        width = n - 1
        assert program.top == width
        assert len(program.rows) == r - 2
        for e, (ranks, mults) in enumerate(program.rows, 1):
            monomials = lex(e, width)
            assert len(monomials) == comb(e + n - 2, n - 2)
            sources = {m: i for i, m in enumerate(lex(e + 1, width))}
            steps = [(m, d) for m in monomials for d in range(width)]
            assert ranks == tuple(sources[tuple(sorted(m + (d,)))] for m, d in steps)
            assert mults == [m.count(d) + 1 for m, d in steps]
        assert program.closings[0] == width
        check_closings(program, primitive_counts(n))
        # What `work` counts: position pos reads pos C(pos+r-2, r-2) entries,
        # those its kernels hold and pos for the last pass, and position 1,
        # closed form, r - 1; the closing weighs each monomial of the last
        # state.
        read = r - 1 + sum(
            pos + sum(len(factors) for _, factors in kernels)
            for pos, kernels in program.kernels.items()
        )
        assert read == (r - 1) * comb(n + r - 2, r)
        assert len(program.closings[1]) == comb(n + r - 2, r - 1)
        assert work(n, r) % (read + 4 * comb(n + r - 2, r - 1)) == 0

    def test_trivial_meet_set_stays(self):
        meet_census._PROGRAMS.clear()
        for r in (2, 3, 4):
            theorem_report(16, r)
        kept = dict(meet_census._PROGRAMS)
        assert {r: program.top for r, program in kept.items()} == {2: 15, 3: 15, 4: 15}
        assert {r: program.closings[0] for r, program in kept.items()} == {2: 15, 3: 15, 4: 15}
        # one pass kernel per degree 1..r-2 at each position from 2
        kernels = {r: dict(program.kernels) for r, program in kept.items()}
        assert {r: list(held) for r, held in kernels.items()} == dict.fromkeys(kept, list(range(2, 16)))
        assert {r: {len(k) for k in held.values()} for r, held in kernels.items()} == {
            2: {0}, 3: {1}, 4: {2}
        }
        closings = {r: program.closings for r, program in kept.items()}
        for r in (2, 3, 4):
            theorem_report(16, r)
        # a warm call compiles nothing: the same programs, kernels and closings
        assert all(program.closings is closings[r] for r, program in kept.items())
        theorem_report(12, 4)  # a shorter call reads the same program
        # and holds one closing, for the position it ended on
        assert all(meet_census._PROGRAMS[r] is program for r, program in kept.items())
        assert kept[4].closings[0] == 11
        check_closings(kept[4], primitive_counts(12))
        for r, program in kept.items():
            assert program.kernels == kernels[r]
            assert all(program.kernels[pos] is held for pos, held in kernels[r].items())
        assert store_charge() == work(16, 2) + work(16, 3) + work(16, 4)

    def test_two_builds_nothing_and_keeps_the_store(self):
        meet_census._PROGRAMS.clear()
        n_min_exact(16, 4)
        kept = dict(meet_census._PROGRAMS)
        for r in (24999, 300):
            assert n_min_exact(2, r) == 2**r - 1
        assert meet_census._PROGRAMS == kept and meet_census._PROGRAMS[4] is kept[4]

    @pytest.mark.parametrize("n, r", [(3, 300), (3, 40), (5, 6)])
    def test_kernels_are_the_rounds_by_destination(self, n, r):
        # Position 1 is closed form, so no position-1 pass has a kernel:
        # (3, 300) keeps position 2's alone.
        meet_census._PROGRAMS.clear()
        assert n_min_exact(n, r) == _n_min_ie(n, r)
        program = meet_census._PROGRAMS[r]
        assert list(program.kernels) == list(range(2, n))
        check_kernels(program, primitive_counts(n))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 8), st.integers(2, 4), st.lists(st.integers(0, 9), min_size=7, max_size=7))
    @example(3, 2, [0] * 7)
    @example(5, 3, [2, 4, 29, 343, 0, 0, 0])
    def test_any_weights_with_p1_one(self, n, r, rest):
        # The sweep assumes only P(1) = 1: weights that are not ASM counts,
        # P(2) != 1 among them, give the product oracle's counts.
        p = [0, 1, *rest][: n + 1]
        assert _transfer.Program(r).sweep(n, p) == list(product_sweep(n, r, p))[1:]

    @pytest.mark.parametrize("r, n_brute", [(2, 6), (3, 5)])
    def test_catalan_weights_count_dyck_tuples(self, r, n_brute):
        # Dyck paths under containment meet at the zigzag exactly when every
        # interior even point is a return of some component, and the paths
        # with returns exactly D number the product of C(g - 1) over the gaps
        # g of D: the same count, with P(g) = C(g - 1).
        p = [0, *CATALAN]
        swept = _transfer.Program(r).sweep(12, p)
        assert swept == list(product_sweep(12, r, p))[1:]
        for n in range(2, n_brute + 1):
            full = (1 << (n - 1)) - 1
            brute = sum(reduce(or_, masks) == full for masks in product(dyck_returns(n), repeat=r))
            assert swept[n - 2] == brute

    @pytest.mark.parametrize("key", SWEEP_DIGESTS)
    def test_sweep_gates_keep_their_digests(self, key):
        n, r = map(int, key.split(","))
        values = _n_min_sweep(n, r)
        assert len(values) == n
        assert hashlib.sha256(",".join(map(hex, values)).encode()).hexdigest() == SWEEP_DIGESTS[key]

    def test_store_past_the_bound_is_dropped(self):
        held = meet_census._PROGRAMS
        held.clear()
        n_min_exact(16, 4)
        program = held[4]
        for n, r in ((13, 6), (17, 5), (26, 4)):
            n_min_exact(n, r)
        assert held[4] is program and program.top == 25  # grown in place by (26, 4)
        assert store_charge() == work(13, 6) + work(17, 5) + work(26, 4) <= TRANSFER_LIMIT_DEFAULT
        assert work(30, 5) + work(13, 6) + work(26, 4) > TRANSFER_LIMIT_DEFAULT
        n_min_exact(30, 5)  # grows the r = 5 program past what the store keeps
        assert meet_census._PROGRAMS is held and held == {}  # emptied in place
        assert _n_min_sweep(14, 4) == swept_oracle(4)


class TestPExtreme:
    def test_spec_value(self):
        assert p_extreme(3, 2, "min") == Fraction(15, 49)
        with pytest.raises(ValueError, match="which must be 'min' or 'max', got 'mid'"):
            p_extreme(3, 2, "mid")

    def test_r_one(self):
        for n in (2, 4, 7):
            assert p_extreme(n, 1, "min") == Fraction(1, asm_number(n))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_duality(self, r):
        # the join side counted on rank-reversed keys, independently of the sweep
        for n in range(1, 6):
            assert n_min_census(n, r, census=reversed_census(n)) == n_min_exact(n, r)
            assert p_extreme(n, r, "min") == p_extreme(n, r, "max")

    def test_reversed_census_counts_maximal_rows(self, universe, censuses):
        # reversal is a bijection, so the key multiset matches the plain census
        table = reversed_census(4)
        assert table.counts == censuses(4).counts
        top_heavy = sum(
            1 for t in universe(4) if t.rows[0] == (4,) and t.rows[1] == (3, 4)
        )
        assert table.containment_count(0b011) == top_heavy
        # the walk keys rows at their maximum; reversal is the bijection behind it
        for n in range(1, 7):
            counts = {}
            for t in universe(n):
                mask = t.rank_reverse().distinguished_rows().mask
                counts[mask] = counts.get(mask, 0) + 1
            assert reversed_census(n).counts == dict(sorted(counts.items()))
        assert reversed_census(7).counts == gap_product_census(7).counts


def class_sizes_by_key_tuples(n, r):
    """Oracle for `class_sizes`: (exact_sizes, tail_threshold, tail_size)
    summed over all 2^(r(n-1)) r-tuples of census keys, each weighted by
    the product of its keys' counts."""
    from goglattice.counting import _mask_max_run

    items = [(mask, count, _mask_max_run(mask)) for mask, count in gap_product_census(n).counts.items()]
    exact = {v: 0 for v in range(max(1, n - 6 * r), n + 1)}
    tail_threshold = n - 6 * r - 1
    tail = 0
    for combo in product(items, repeat=r):
        if reduce(or_, (mask for mask, _, _ in combo)) != (1 << n) - 1:
            continue
        weight = prod(count for _, count, _ in combo)
        runs = {run for _, _, run in combo}
        for v in runs:
            exact[v] += weight
        if max(runs) <= tail_threshold:
            tail += weight
    return exact, tail_threshold, tail


class TestClassSizes:
    def test_spec_example(self):
        sizes = class_sizes(3, 2)
        assert sizes.exact_sizes[3] == 13
        assert sizes.exact_sizes[3] <= class_bound(3, 2, 3) == 14
        # past n - v = 6r the argument claims no bound
        assert class_bound(16, 2, 4) is not None and class_bound(16, 2, 3) is None

    def test_bound_rejects_r_below_one(self):
        # r = 0 would give the main bound as the float 0 * A(n) ** -1
        for r in (0, -1):
            with pytest.raises(ValueError, match=f"r >= 1, got {r}"):
                class_bound(5, r, 5)
        # C_v is a class of size-n tuples only for v in [1, n]
        for v, match in ((0, "v >= 1, got 0"), (-2, "v >= 1, got -2"), (4, "n - v >= 0, got -1")):
            with pytest.raises(ValueError, match=f"class_bound needs {match}"):
                class_bound(3, 2, v)

    def test_tuple_cap(self, monkeypatch):
        # the sums raise counts to the r-th power: past r(n-1) = 60000 the
        # call is refused before the census is built
        def no_census(*args, **kwargs):
            raise AssertionError("census built past the cap")

        with monkeypatch.context() as m:
            m.setattr(meet_census, "gap_product_census", no_census)
            for n, r in ((2, 60_001), (7, 10_001)):
                message = rf"^class_sizes holds r\(n-1\) <= 60000, got r\(n-1\)={r * (n - 1)}$"
                with pytest.raises(LimitExceeded, match=message):
                    class_sizes(n, r)
        assert class_sizes(6, 4).exact_sizes[6] <= class_bound(6, 4, 6)
        # the former cap's r = 1 corner, past the default limit: tau_min alone
        assert class_sizes(21, 1, limit=21) == ClassSizes(21, 1, {v: int(v == 21) for v in range(15, 22)}, 14, 0)

    @pytest.mark.parametrize("n, r", [(7, 4), (3, 11), (2, 60_000), (7, 10_000)])
    def test_tuples_holding_tau_min(self, n, r):
        # C_n holds exactly the tuples with tau_min among their components
        a = asm_number(n)
        assert class_sizes(n, r).exact_sizes[n] == a**r - (a - 1) ** r

    @pytest.mark.parametrize("n", range(1, 8))
    def test_key_tuple_oracle(self, n):
        # every r with r(n-1) <= 16, and r <= 4 at n = 1
        for r in range(1, 5 if n == 1 else 16 // (n - 1) + 1):
            exact, tail_threshold, tail = class_sizes_by_key_tuples(n, r)
            sizes = class_sizes(n, r)
            assert sizes.exact_sizes == exact
            assert (sizes.tail_threshold, sizes.tail_size) == (tail_threshold, tail)

    def test_brute_force_oracle(self, universe):
        for n, r in ((3, 2), (3, 3), (4, 2)):
            exact = {v: 0 for v in range(1, n + 1)}
            tail = 0
            threshold = n - 6 * r - 1
            for combo in product(universe(n), repeat=r):
                if not is_trivial(combo, "meet"):
                    continue
                runs = {t.distinguished_rows().max_consecutive_run() for t in combo}
                for v in runs:
                    exact[v] += 1
                if max(runs) <= threshold:
                    tail += 1
            sizes = class_sizes(n, r)
            assert sizes.exact_sizes == exact
            assert sizes.tail_size == tail

    def test_figure_two_pair_counts_toward_run_two(self):
        from goglattice import MonotoneTriangle, meet, extremal_triangle

        pair = (
            MonotoneTriangle(((1,), (1, 2), (1, 2, 4), (1, 2, 3, 4))),
            MonotoneTriangle(((2,), (1, 3), (1, 2, 3), (1, 2, 3, 4))),
        )
        assert meet(pair) == extremal_triangle(4, "min")
        runs = {t.distinguished_rows().max_consecutive_run() for t in pair}
        assert 4 - 2 in runs  # membership in the class of exact block length n-2

    def test_counting_bounds_hold(self):
        for n in range(2, 7):
            for r in (1, 2, 3):
                sizes = class_sizes(n, r)
                assert sizes.exact_sizes[n] <= class_bound(n, r, n)
                assert sizes.exact_sizes[n - 1] <= class_bound(n, r, n - 1)

    def test_union_covers_all_trivial_tuples(self):
        # the class of a tuple keyed by its best run is always among the labels
        for n, r in ((4, 2), (5, 2)):
            sizes = class_sizes(n, r)
            assert min(sizes.exact_sizes) == 1  # all run values down to 1 are tracked
            assert sizes.tail_size == 0  # n - 6r - 1 < 1 at desk scale


class TestGapProductCensus:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_enumeration_walk(self, n, censuses):
        assert gap_product_census(n) == censuses(n)

    def test_sums_to_asm_number(self):
        for n in range(1, CENSUS_LIMIT_DEFAULT + 1):
            table = gap_product_census(n)
            assert list(table.counts) == list(range(1 << (n - 1), 1 << n))
            assert table.total() == asm_number(n)

    def test_reads_back_at_the_limit(self):
        table = gap_product_census(CENSUS_LIMIT_DEFAULT)
        assert CensusTable.from_text(table.to_text()) == table

    def test_limit_names_its_knob(self, tmp_path):
        with pytest.raises(LimitExceeded, match="CENSUS_LIMIT_DEFAULT = 18"):
            gap_product_census(CENSUS_LIMIT_DEFAULT + 1)
        with pytest.raises(LimitExceeded, match="CENSUS_LIMIT_DEFAULT = 18"):
            load_or_build_census(CENSUS_LIMIT_DEFAULT + 1, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert gap_product_census(19, limit=19).total() == asm_number(19)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            gap_product_census(0)


class TestRunHistogramReport:
    def test_size_three_deviation(self):
        report = run_histogram_report(3)
        assert report.histogram.counts == {1: 5, 2: 1, 3: 1}
        assert report.histogram.total() == 7
        assert not report.head_matches

    @pytest.mark.parametrize("n", range(4, 19))
    def test_one_one_six(self, n):
        report = run_histogram_report(n)
        assert report.head_matches and report.tail_matches
        counts = report.histogram.counts
        assert (counts[n], counts[n - 1], counts[n - 2]) == (1, 1, 6)
        assert report.histogram.at_most(n - 3) == asm_number(n) - 8
        assert report.histogram.total() == asm_number(n)


class TestTheoremReport:
    def test_decomposition_at_three_two(self):
        rep = decompose(3, 2, 15)
        assert rep.main_term == 14
        assert rep.second_term == 8
        assert rep.error_term == -7
        assert rep.theta_ratio == Fraction(-7, 1)
        assert rep.theorem1_ratio == Fraction(15, 14)
        assert rep.p_min == Fraction(15, 49)

    def test_decompose_rejects_r_below_one(self):
        for r in (0, -2):
            with pytest.raises(ValueError, match=f"r >= 1, got {r}"):
                decompose(5, r, 1)

    def test_identity_holds(self):
        for r in (1, 2, 3):
            for rep in theorem_report(8, r):
                assert rep.main_term + rep.second_term + rep.error_term == rep.n_min
                assert rep.p_min == Fraction(rep.n_min, asm_number(rep.n) ** r)

    @pytest.mark.parametrize("r, n_max", [(1, 14), (2, 14), (3, 12), (4, 10)])
    def test_one_sweep_matches_per_n(self, r, n_max):
        reports = theorem_report(n_max, r)
        assert [rep.n for rep in reports] == list(range(2, n_max + 1))
        assert [rep.n_min for rep in reports] == [n_min_exact(n, r) for n in range(2, n_max + 1)]

    def test_r_one_degenerates(self):
        for rep in theorem_report(6, 1):
            assert rep.n_min == 1
            assert rep.main_term == 1
            assert rep.second_term == 0
            assert rep.error_term == 0
            assert rep.theta_ratio == 0
