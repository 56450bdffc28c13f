"""Order relation, meet/join, and the lattice laws at exhaustive small sizes."""

from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goglattice import (
    EmptyInput,
    MonotoneTriangle,
    OrderRelation,
    Permutation,
    SizeMismatch,
    compare,
    extremal_triangle,
    is_trivial,
    join,
    meet,
    asm_number,
    perm_to_triangle,
    sample_uniform,
    unrank,
)
from goglattice import triangles
from goglattice.lattice import leq
from goglattice.triangles import _validate_rows

TAU1 = MonotoneTriangle(((3,), (1, 3), (1, 2, 3)))
TAU2 = MonotoneTriangle(((2,), (2, 3), (1, 2, 3)))

def pairwise(ts, pick):
    """The entry-wise fold over operand pairs that the one-pass meet/join replaced."""
    return reduce(
        lambda a, b: MonotoneTriangle(
            tuple(tuple(pick(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))
        ),
        ts,
    )


def operands(r_min=1, r_max=4):
    """r = r_min..r_max triangles of one size n <= 12, drawn by rank."""
    return st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.integers(0, asm_number(n) - 1).map(lambda k: unrank(n, k)),
            min_size=r_min,
            max_size=r_max,
        ).map(tuple)
    )


def entrywise_relation(a, b):
    """The order's definition: every entry <=, every entry >=, both or neither."""
    pairs = [(x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)]
    le, ge = all(x <= y for x, y in pairs), all(x >= y for x, y in pairs)
    return {
        (True, True): OrderRelation.EQUAL,
        (True, False): OrderRelation.LESS,
        (False, True): OrderRelation.GREATER,
        (False, False): OrderRelation.INCOMPARABLE,
    }[le, ge]


FIG2_PAIR = (
    MonotoneTriangle(((1,), (1, 2), (1, 2, 4), (1, 2, 3, 4))),
    MonotoneTriangle(((2,), (1, 3), (1, 2, 3), (1, 2, 3, 4))),
)


class TestCompare:
    def test_reference_pair_is_incomparable(self):
        assert compare(TAU1, TAU2) is OrderRelation.INCOMPARABLE

    def test_minimal_below_everything(self, universe):
        lo = extremal_triangle(4, "min")
        for t in universe(4):
            assert compare(lo, t) in (OrderRelation.LESS, OrderRelation.EQUAL)

    def test_strictly_less(self):
        a = MonotoneTriangle(((1,), (1, 2), (1, 2, 3)))
        b = MonotoneTriangle(((2,), (1, 3), (1, 2, 3)))
        assert compare(a, b) is OrderRelation.LESS
        assert compare(b, a) is OrderRelation.GREATER

    def test_equal_iff_structural(self, universe):
        for a, b in product(universe(3), repeat=2):
            assert (compare(a, b) is OrderRelation.EQUAL) == (a == b)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            compare(extremal_triangle(2, "min"), extremal_triangle(3, "min"))

    def test_matches_definition_on_every_pair_at_four(self, universe):
        seen = set()
        for a, b in product(universe(4), repeat=2):
            relation = compare(a, b)
            assert relation is entrywise_relation(a, b), (a.rows, b.rows)
            seen.add(relation)
        assert seen == set(OrderRelation)

    @settings(max_examples=150, deadline=None)
    @given(operands(2, 2))
    def test_matches_definition_on_drawn_pairs(self, ts):
        # A drawn pair at n <= 12 is mostly incomparable; its meet, its join
        # and itself give the other three relations.
        a, b = ts
        low, high = meet(ts), join(ts)
        for x, y in ((a, b), (b, a), (low, a), (a, low), (high, b), (b, high), (a, a)):
            assert compare(x, y) is entrywise_relation(x, y), (x.rows, y.rows)


class TestMeetJoin:
    def test_reference_meet(self):
        assert meet((TAU1, TAU2)).rows == ((2,), (1, 3), (1, 2, 3))

    def test_reference_join_is_maximal(self):
        assert join((TAU1, TAU2)) == extremal_triangle(3, "max")

    def test_figure_two_pair_meets_to_minimum(self):
        assert meet(FIG2_PAIR) == extremal_triangle(4, "min")

    def test_idempotence(self, universe):
        for t in universe(3):
            assert meet((t, t)) == t and join((t, t)) == t

    def test_absorption_at_top(self, universe):
        top = extremal_triangle(4, "max")
        for t in universe(4):
            assert join((top, t)) == top

    def test_empty_input(self):
        # The message names the operation that was called.
        for call, what in [
            (lambda: meet(()), "meet"),
            (lambda: join([]), "join"),
            (lambda: is_trivial([], "meet"), "is_trivial"),
            (lambda: is_trivial((), "join"), "is_trivial"),
        ]:
            with pytest.raises(EmptyInput, match=f"^{what} needs at least one triangle$"):
                call()

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            meet((extremal_triangle(2, "min"), extremal_triangle(3, "min")))

    def test_fold_order_irrelevant(self, universe):
        ts = universe(4)[5:8]
        assert meet(ts) == meet(tuple(reversed(ts)))
        assert join(ts) == join(tuple(reversed(ts)))


class TestLatticeLaws:
    """Exhaustive checks on the 7 triangles of size 3 (49 pairs, 343 triples)."""

    def test_binary_laws(self, universe):
        m3 = universe(3)
        for a, b in product(m3, repeat=2):
            m, j = meet((a, b)), join((a, b))
            assert m == meet((b, a)) and j == join((b, a))
            assert leq(m, a) and leq(m, b)
            assert leq(a, j) and leq(b, j)
            assert meet((a, j)) == a and join((a, m)) == a

    def test_associativity(self, universe):
        m3 = universe(3)
        for a, b, c in product(m3, repeat=3):
            assert meet((meet((a, b)), c)) == meet((a, meet((b, c))))
            assert join((join((a, b)), c)) == join((a, join((b, c))))

    def test_greatest_lower_bound_oracle(self, universe):
        # brute-force GLB: the unique maximum of all common lower bounds
        m3 = universe(3)
        for a, b in product(m3, repeat=2):
            lower = [c for c in m3 if leq(c, a) and leq(c, b)]
            glb = meet((a, b))
            assert glb in lower
            assert all(leq(c, glb) for c in lower)

    def test_least_upper_bound_oracle(self, universe):
        m3 = universe(3)
        for a, b in product(m3, repeat=2):
            upper = [c for c in m3 if leq(a, c) and leq(b, c)]
            lub = join((a, b))
            assert lub in upper
            assert all(leq(lub, c) for c in upper)


class TestLatticeLawProperties:
    """The laws on random operands of every size up to 12, r = 1..4."""

    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_one_pass_equals_pairwise_fold(self, ts):
        assert meet(ts) == pairwise(ts, min)
        assert join(ts) == pairwise(ts, max)

    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_bounds(self, ts):
        low, high = meet(ts), join(ts)
        assert all(leq(low, t) and leq(t, high) for t in ts)

    @settings(max_examples=100, deadline=None)
    @given(operands(), st.randoms(use_true_random=False))
    def test_commutative(self, ts, rnd):
        shuffled = list(ts)
        rnd.shuffle(shuffled)
        assert meet(shuffled) == meet(ts) and join(shuffled) == join(ts)

    @settings(max_examples=100, deadline=None)
    @given(operands(2), st.data())
    def test_associative(self, ts, data):
        cut = data.draw(st.integers(1, len(ts) - 1))
        for op in (meet, join):
            assert op((op(ts[:cut]), op(ts[cut:]))) == op(ts)

    @settings(max_examples=100, deadline=None)
    @given(operands())
    def test_idempotent(self, ts):
        for op in (meet, join):
            assert op(ts + ts) == op(ts)
            assert all(op((t, t)) == t for t in ts)

    @settings(max_examples=100, deadline=None)
    @given(operands(2, 2))
    def test_absorption(self, ts):
        a, b = ts
        assert meet((a, join((a, b)))) == a
        assert join((a, meet((a, b)))) == a

    @settings(max_examples=60, deadline=None)
    @given(operands(1, 1))
    def test_single_operand_is_returned(self, ts):
        (t,) = ts
        assert meet(ts) is t and join(ts) is t

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_sampled_meet_and_join_are_valid(self, n, r, seed):
        # Meet and join build their result unchecked: it must pass the
        # triangle check and equal the fold through the checking constructor.
        ts = sample_uniform(n, r, seed)
        for op, pick in ((meet, min), (join, max)):
            made = op(ts)
            _validate_rows(made.rows)
            assert made == pairwise(ts, pick)

    @settings(max_examples=100, deadline=None)
    @given(operands())
    def test_is_trivial_is_meet_at_minimum(self, ts):
        n = ts[0].n
        assert is_trivial(ts, "meet") == (meet(ts) == extremal_triangle(n, "min"))
        assert is_trivial(ts, "join") == (join(ts) == extremal_triangle(n, "max"))


class TestTrivial:
    def test_figure_two_pair(self):
        assert is_trivial(FIG2_PAIR, "meet")
        with pytest.raises(ValueError, match="which must be 'meet' or 'join', got 'both'"):
            is_trivial(FIG2_PAIR, "both")

    def test_single_non_minimal(self):
        assert not is_trivial((TAU1,), "meet")
        assert is_trivial((extremal_triangle(3, "min"),), "meet")

    def test_permutation_pair_is_not_trivial(self):
        pair = (perm_to_triangle(Permutation((3, 1, 2))), perm_to_triangle(Permutation((2, 3, 1))))
        assert not is_trivial(pair, "meet")
        assert meet(pair).rows == ((2,), (1, 3), (1, 2, 3))

    def test_bruhat_meet_leaves_permutation_set(self):
        pair = (perm_to_triangle(Permutation((3, 1, 2))), perm_to_triangle(Permutation((2, 3, 1))))
        assert all(t.is_permutation_triangle() for t in pair)
        assert not meet(pair).is_permutation_triangle()

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_coverage_characterization(self, n, r, universe):
        # trivial meet iff every row is distinguished in some component
        ts_all = universe(n)
        masks = {t.rows: t.distinguished_rows().mask for t in ts_all}
        full = (1 << n) - 1
        minimal = extremal_triangle(n, "min")
        for combo in product(ts_all, repeat=r):
            covered = 0
            for t in combo:
                covered |= masks[t.rows]
            trivial = is_trivial(combo, "meet")
            assert trivial == (covered == full)
            assert trivial == (meet(combo) == minimal)

    def test_builds_and_checks_no_triangle(self, monkeypatch):
        # is_trivial reads the operands' rows; only the extremal triangle it
        # compares them with is ever built, once per size and kind.
        ts = (TAU1, TAU2, extremal_triangle(3, "max"))
        expected = {"meet": False, "join": True}
        for which in expected:
            assert is_trivial(ts, which) == expected[which]
        calls = []
        check = triangles._validate_rows
        monkeypatch.setattr(triangles, "_validate_rows", lambda rows: calls.append(rows) or check(rows))
        for which in expected:
            assert is_trivial(ts, which) == expected[which]
            assert is_trivial(ts[:2], which) == (which == "join")
        assert calls == []

    def test_duality_under_rank_reversal(self, universe):
        m3 = universe(3)
        for ts in product(m3, repeat=2):
            reversed_ts = tuple(t.rank_reverse() for t in ts)
            assert is_trivial(ts, "meet") == is_trivial(reversed_ts, "join")
