"""Triangle validation, per-triangle attributes, and the matrix bijections."""

import hashlib
import signal
from collections import deque
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goglattice import (
    AlternatingSignMatrix,
    BadBottomRow,
    ColumnSumMatrix,
    GogError,
    InterlacingViolated,
    MonotoneTriangle,
    NotAColumnSumMatrix,
    NotAnASM,
    NotAPermutation,
    Permutation,
    RowOutOfRange,
    RowSet,
    ShapeMismatch,
    SizeTooSmall,
    StrictIncreaseViolated,
    TrianglePrefix,
    asm_number,
    completions_count,
    enumerate_triangles,
    extremal_triangle,
    interlacing_successors,
    max_consecutive_run,
    near_minimal_triangle,
    parse_asms,
    parse_column_sums,
    parse_triangles,
    perm_to_triangle,
    sample_uniform,
    triangle_to_text,
    triangles_to_text,
    unrank,
    validate_triangle,
)
from goglattice import triangles
from goglattice.enumeration import _INDEXES, _SuccessorIndex, _index, _rows_by_mask
from goglattice.errors import TriangleError
from goglattice.lattice import join, meet
from goglattice.triangles import (
    _validate_rows,
    matrices_to_text,
    matrix_to_text,
    triangles_to_text_chunks,
)

FIG1 = MonotoneTriangle(((3,), (2, 4), (1, 3, 4), (1, 2, 3, 4)))
FIG1_CSM = ((0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1))
FIG1_ASM = ((0, 0, 1, 0), (0, 1, -1, 1), (1, -1, 1, 0), (0, 1, 0, 0))


class TestValidation:
    def test_reference_triangle_is_valid(self):
        t = validate_triangle(4, [[3], [2, 4], [1, 3, 4], [1, 2, 3, 4]])
        assert t.n == 4
        assert t.entry(2, 2) == 4

    def test_singleton(self):
        assert validate_triangle(1, [[1]]).rows == ((1,),)

    def test_display_two_triangle(self):
        assert validate_triangle(3, [[2], [2, 3], [1, 2, 3]]).n == 3

    def test_strict_increase_names_first_position(self):
        with pytest.raises(StrictIncreaseViolated) as exc:
            validate_triangle(3, [[1], [2, 1], [1, 2, 3]])
        assert exc.value.position == (2, 1)

    def test_interlacing_violation_position(self):
        # row 1 entry 3 does not sit between 1 and 2
        with pytest.raises(InterlacingViolated) as exc:
            validate_triangle(3, [[3], [1, 2], [1, 2, 3]])
        assert exc.value.position == (2, 1)

    def test_bad_bottom_row(self):
        with pytest.raises(BadBottomRow) as exc:
            validate_triangle(2, [[1], [1, 3]])
        assert exc.value.position == (2, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate_triangle(3, [[1], [1, 2]])
        with pytest.raises(ShapeMismatch):
            validate_triangle(2, [[1], [1, 2, 3]])
        with pytest.raises(ShapeMismatch):
            MonotoneTriangle(((1.0,),))

    def test_out_of_range_entries_are_caught(self):
        with pytest.raises(InterlacingViolated):
            validate_triangle(2, [[3], [1, 2]])
        with pytest.raises(BadBottomRow):
            validate_triangle(1, [[5]])

    def test_int_subclass_is_compared_by_value(self):
        lying = tuple(map(LyingInt, (1, 2, 3)))  # every < and <= holds
        with pytest.raises(StrictIncreaseViolated) as exc:
            MonotoneTriangle(((LyingInt(3),), (LyingInt(1), LyingInt(1)), lying))
        assert exc.value.position == (2, 1)
        t = validate_triangle(3, [[LyingInt(2)], [LyingInt(1), LyingInt(3)], lying])
        assert t.rows == ((2,), (1, 3), (1, 2, 3))
        assert {type(v) for v in t.reading_sequence()} == {int}

    def test_entry_bounds_hold_on_every_valid_triangle(self, universe):
        for n in range(1, 6):
            for t in universe(n):
                for i in range(1, n + 1):
                    for j in range(1, i + 1):
                        assert j <= t.entry(i, j) <= n - i + j


# S[mask] is the row of [8] with that bitmask.
S = _rows_by_mask(8)


class IntSubclass(int):
    pass


class LyingInt(int):
    """An int for which every < and <= holds."""

    def __lt__(self, other):
        return True

    def __le__(self, other):
        return True


class PeerLyingInt(int):
    """An int for which x < y holds whenever y is one too."""

    def __lt__(self, other):
        return True if isinstance(other, PeerLyingInt) else int(self) < other


class LyingRow(tuple):
    """A row that claims to equal, and hashes like, the row (1, 2)."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return hash((1, 2))


def outcome(check, rows):
    """What a validator does with rows: None if it accepts them, else the
    exception's type, message and position."""
    try:
        check(rows)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return None


def exact_rows(rows):
    """Whether every row is an exact tuple of exact ints."""
    return all(type(row) is tuple and set(map(type, row)) == {int} for row in rows)


def is_triangle(rows):
    """The oracle: whether rows, as exact ints, is a monotone triangle, read
    off the odometer `interlacing_successors`, which goes through neither
    `_validate_rows` nor the pair rule: each row is a successor of the one
    above it (row 1 of the empty row), so the last, n increasing entries of
    [n], is 1, ..., n."""
    try:
        rows = [tuple(row) for row in rows]
    except TypeError:  # a row that is not iterable
        return False
    if not rows or not all(type(v) is not bool and isinstance(v, int) for row in rows for v in row):
        return False
    above = ()
    for row in rows:
        row = tuple(map(int, row))
        if row not in interlacing_successors(above, len(rows)):
            return False
        above = row
    return True


def assert_checked(rows):
    """`_validate_rows` against the oracle `is_triangle`, and the
    constructor against `_validate_rows`: it refuses what the check refuses,
    with the same error, and keeps an exact copy of what it accepts."""
    expected = outcome(_validate_rows, rows)
    assert (expected is None) == is_triangle(rows), rows
    assert expected is None or issubclass(expected[0], (TriangleError, TypeError)), rows
    made = outcome(MonotoneTriangle, rows)
    if all(isinstance(row, (tuple, list)) for row in rows):
        assert made == expected, rows
    else:  # a row that is no sequence fails the constructor's copy, before any check
        assert made[0] is TypeError, rows
    if expected is not None:
        return
    t = MonotoneTriangle(rows)
    copy = tuple(map(tuple, rows))
    assert type(t.rows) is tuple and exact_rows(t.rows) and t.rows == copy, rows
    assert t.rows is not rows, rows  # copied, whatever its rows are


def as_table_rows(rows):
    """rows with each row that equals an `S` row, entry for entry as exact
    ints, replaced by that object."""
    table = []
    for row in rows:
        if all(type(v) is int and 1 <= v <= 8 for v in row):
            known = S[sum(1 << (v - 1) for v in set(row))]
            if known == tuple(row):
                row = known
        table.append(row)
    return tuple(table)


@st.composite
def mutated_rows(draw):
    """An `unrank` triangle (n <= 12) after a few mutations of the kinds a
    check could get wrong, as lists, as tuples, or as a tuple in which
    each row that can be is an `S` object."""
    n = draw(st.integers(1, 12))
    rows = [list(row) for row in unrank(n, draw(st.integers(0, asm_number(n) - 1))).rows]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, max(len(row) - 1, 0)))
        kind = draw(st.sampled_from(("shift", "lengthen", "shorten", "bottom")))
        if kind == "shift" and row:
            row[j] += draw(st.sampled_from((-2, -1, 1, 2)))
        elif kind == "lengthen":
            row.insert(j, draw(st.integers(0, n + 1)))
        elif kind == "shorten" and row:
            del row[j]
        elif kind == "bottom":
            rows[-1] = sorted(draw(st.sets(st.integers(0, n + 2), min_size=n, max_size=n)))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        if row:
            j = draw(st.integers(0, len(row) - 1))
            row[j] = draw(st.sampled_from((True, False, 2.0, "3", IntSubclass(row[j]))))
    form = draw(st.sampled_from(("list", "tuple", "table")))
    if form == "list":
        return rows
    if form == "tuple":
        return tuple(map(tuple, rows))
    return as_table_rows(rows)


class TestValidatorFastPath:
    """The one triangle check, `_validate_rows`, and the constructor that
    copies into it, against independent oracles."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_rows())
    def test_matches_the_loop(self, rows):
        assert_checked(rows)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_single_entry_shift(self, n, universe):
        # A shift is accepted exactly when it is one of the enumerated triangles.
        valid = {t.rows for t in universe(n)}
        for rows in valid:
            assert MonotoneTriangle(rows).rows == rows
            for i, row in enumerate(rows):
                for j in range(len(row)):
                    for step in (-1, 1):
                        changed = list(rows)
                        changed[i] = row[:j] + (row[j] + step,) + row[j + 1 :]
                        made = outcome(MonotoneTriangle, tuple(changed))
                        assert (made is None) == (tuple(changed) in valid), changed
                        assert made is None or issubclass(made[0], TriangleError), changed

    @pytest.mark.parametrize(
        "rows",
        [
            (),
            ((1,), (1, 2), (1, 2, 3), ()),
            ((1,), (1, 2), 3),
            ((1,), (1,), 3),
            ((1,), (1, 2), (1, True, 3)),
            ((1,), (1, 2), (1, IntSubclass(2), 3)),
            ((1,), [1, 2], [1, 2, 3]),
            ((2,), (1, 2), (1, 2, 3)),
            ((1,), (1, 2), (2, 3, 4)),
            # equal in value to a valid triangle
            ((True,), (1, 2), (1, 2, 3)),
            ((1,), (1, 2.0), (1, 2, 3)),
            ((1,), (1, 2), (1, Fraction(2), 3)),
            ((2,), (IntSubclass(2), 3), (1, 2, 3)),
            ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4.0)),
            ((True,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)),
            ((1,), (1, [2]), (1, 2, 3)),
            ((1,), LyingRow((3, 3)), (1, 2, 3)),
            ((1,), (1, 2), LyingRow((1, 2, 3))),
            # rows that are table objects, alone or beside value-equal impostors
            (S[1], S[3], S[7]),
            (S[1], S[3], S[7], S[15], S[31], S[63], S[127]),
            (S[4], S[3], S[7]),
            (S[1], S[6], S[7]),
            (S[2], S[5], S[7], S[15]),
            (S[1], S[3], S[11]),
            (S[1], S[3], S[7], S[23]),
            (S[1], S[2], S[7]),
            (S[1], S[0], S[7]),
            (S[1], S[3], S[15]),
            (S[1], S[7]),
            (S[1], S[3], S[7], S[15], S[31], S[63]),
            (S[1], S[3], 3),
            (S[1], [1, 2], S[7]),
            (S[1], (True, 2), S[7]),
            ((True,), S[3], S[7]),
            (S[1], (1, 2.0), S[7]),
            (S[1], (1, Fraction(2)), S[7]),
            (S[1], (1, IntSubclass(2)), S[7]),
            (S[2], (IntSubclass(2), 3), S[7]),
            (S[1], S[3], (1, 2, 3.0)),
            (S[1], LyingRow((1, 2)), S[7]),
            (S[1], LyingRow((3, 3)), S[7]),
            (S[1], tuple([1, 2]), S[7]),
            (tuple([2]), S[6], S[7]),
            (tuple([3]), S[3], S[7]),
            # table objects at n = 8 and 9, where the table ends, and at n = 1, 2
            tuple(S[2**i - 1] for i in range(1, 9)),
            (*(S[2**i - 1] for i in range(1, 8)), S[127]),
            (*(S[2**i - 1] for i in range(1, 8)), tuple(range(1, 9))),
            (*(S[2**i - 1] for i in range(1, 9)), S[255]),
            (S[1],),
            (S[2],),
            (S[1], S[3]),
            (S[2], S[3]),
        ],
    )
    def test_edge_cases(self, rows):
        assert_checked(rows)


class TestValidatorFastPathWarm(TestValidatorFastPath):
    """The same checks once every index of size n <= 6 has flagged its
    edges: the constructor reads no state of the indexes, so impostors equal
    in value to their rows are still refused."""

    def setup_method(self):
        for n in range(1, 7):
            flags = _index(n).flags
            if flags is None or not all(flags):
                deque(enumerate_triangles(n), maxlen=0)  # a walk flags every edge
            assert all(_index(n).flags)

    @settings(max_examples=400, deadline=None)
    @given(mutated_rows())
    def test_matches_the_loop(self, rows):  # Hypothesis runs a `given` test from one class only
        assert_checked(rows)


class TestVerifiedPairs:
    """The index's edge flags, the one record of checked row pairs."""

    def test_bound_and_contents(self):
        # Only walks and picks check and flag edges: the flags are made by the
        # first of them, and hold the edges they read or took.
        shared = {n: _index(n) for n in (7, 8, 12)}
        fresh = {n: _SuccessorIndex(n) for n in shared}
        _INDEXES.update(fresh)
        try:
            completions_count(TrianglePrefix(7, 0, ()))
            parse_triangles("1\n1 2\n1 2 3\n\n3\n2 3\n1 2 3\n")
            validate_triangle(4, [[2], [1, 3], [1, 2, 4], [1, 2, 3, 4]])
            MonotoneTriangle([[1], [1, 3], [1, 2, 3]])
            assert all(index.flags is None for index in fresh.values())
            deque(enumerate_triangles(7), maxlen=0)
            index = fresh[7]
            assert index.flags == bytearray([1]) * len(index.edges)
            assert {
                (index.rows[i], index.rows[j]) for i in range(1, 1 << 7) for j in index.successors(i)
            } == {
                (upper, lower)
                for k in range(1, 7)
                for upper in combinations(range(1, 8), k)
                for lower in interlacing_successors(upper, 7)
            }
            unrank(8, asm_number(8) - 1), sample_uniform(8, 50, 8)
            assert 8 <= sum(fresh[8].flags) <= 51 * 8
            ts = sample_uniform(12, 3, 2024)
            flagged = bytes(fresh[12].flags)
            assert 12 <= sum(flagged) <= 3 * 12
            meet(ts), join(ts)
            validate_triangle(12, [list(row) for row in ts[0].rows])
            assert fresh[12].flags == flagged
        finally:
            _INDEXES.update(shared)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stream_text_cold_and_warm(self, n):
        def digest():
            text = triangles_to_text(enumerate_triangles(n))
            return hashlib.sha256(text.encode()).hexdigest()

        warm = digest()
        shared, _INDEXES[n] = _index(n), _SuccessorIndex(n)
        try:
            assert digest() == warm  # through a cold index
            assert digest() == warm  # through its flags
        finally:
            _INDEXES[n] = shared


class TestKnownRows:
    """Each index's row table, whose objects its triangles are made of."""

    def test_table(self):
        for n in (*range(1, 9), 12):
            rows = _index(n).rows
            assert len(rows) == 1 << n
            for mask, row in enumerate(rows):
                assert type(row) is tuple and set(map(type, row)) <= {int}
                assert row == tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumerated_rows_are_table_objects(self, n):
        table = set(map(id, _index(n).rows))
        assert all(table.issuperset(map(id, t.rows)) for t in enumerate_triangles(n))

    @pytest.mark.parametrize("n", (*range(1, 9), 12))
    def test_unranked_and_sampled_rows_are_table_objects(self, n):
        last = asm_number(n) - 1
        ts = [unrank(n, k) for k in (0, last // 3, last)] + sample_uniform(n, 20, n)
        table = set(map(id, _index(n).rows))
        assert all(table.issuperset(map(id, t.rows)) for t in ts)


class TestParsersRaiseOnlyGogErrors:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=200), st.text(alphabet="0123 -\n", max_size=200)))
    def test_arbitrary_text(self, text):
        for parse in (parse_triangles, parse_column_sums, parse_asms):
            try:
                parse(text)
            except GogError:
                pass


class TestExtremal:
    def test_minimal(self):
        assert extremal_triangle(3, "min").rows == ((1,), (1, 2), (1, 2, 3))

    def test_maximal(self):
        assert extremal_triangle(3, "max").rows == ((3,), (2, 3), (1, 2, 3))

    def test_size_one_lattice_is_a_point(self):
        assert extremal_triangle(1, "min") == extremal_triangle(1, "max")

    def test_extremes_bound_everything(self, universe):
        lo, hi = extremal_triangle(4, "min"), extremal_triangle(4, "max")
        for t in universe(4):
            assert all(
                a <= b <= c
                for ra, rb, rc in zip(lo.rows, t.rows, hi.rows)
                for a, b, c in zip(ra, rb, rc)
            )


class TestNearMinimal:
    def test_top_variant(self):
        assert near_minimal_triangle(4, "top").rows == ((2,), (1, 2), (1, 2, 3), (1, 2, 3, 4))

    def test_penultimate_variant(self):
        assert near_minimal_triangle(4, "penult").rows == ((1,), (1, 2), (1, 2, 4), (1, 2, 3, 4))

    def test_smallest_case(self):
        assert near_minimal_triangle(3, "penult").rows == ((1,), (1, 3), (1, 2, 3))

    def test_too_small(self):
        with pytest.raises(SizeTooSmall):
            near_minimal_triangle(1, "top")

    @pytest.mark.parametrize("which", ["top", "penult"])
    def test_long_distinguished_block(self, which):
        for n in range(3, 8):
            t = near_minimal_triangle(n, which)
            assert t.distinguished_rows().max_consecutive_run() > n - 3


class TestDistinguishedRows:
    def test_figure_two_first(self):
        t = MonotoneTriangle(((1,), (1, 2), (1, 2, 4), (1, 2, 3, 4)))
        assert t.distinguished_rows().members == (1, 2, 4)

    def test_figure_two_second(self):
        t = MonotoneTriangle(((2,), (1, 3), (1, 2, 3), (1, 2, 3, 4)))
        assert t.distinguished_rows().members == (3, 4)

    def test_minimal_has_all_rows(self):
        for n in (1, 3, 5):
            assert extremal_triangle(n, "min").distinguished_rows().members == tuple(
                range(1, n + 1)
            )

    def test_bottom_row_always_distinguished(self, universe):
        for t in universe(5):
            assert 5 in t.distinguished_rows()


class TestRowSet:
    def test_bitmask_convention(self):
        assert RowSet.from_members(4, (1, 2, 4)).mask == 0b1011

    def test_out_of_range(self):
        with pytest.raises(RowOutOfRange):
            RowSet.from_members(3, (4,))
        with pytest.raises(RowOutOfRange):
            RowSet(3, 0b1000)

    @pytest.mark.parametrize(
        "members,expected",
        [((1, 2, 4), 2), ((), 0), ((3,), 1), ((1, 2, 3, 4), 4), ((1, 3, 4), 2)],
    )
    def test_max_consecutive_run(self, members, expected):
        assert max_consecutive_run(RowSet.from_members(4, members)) == expected

    def test_max_consecutive_run_of_every_mask(self):
        # The longest block of ones in the binary digits, for every set of 12 rows.
        for mask in range(1 << 12):
            longest = max(map(len, bin(mask)[2:].split("0")))
            assert RowSet(12, mask).max_consecutive_run() == longest


class TestBijections:
    def test_figure_one_column_sum(self):
        assert FIG1.to_column_sum().entries == FIG1_CSM

    def test_figure_one_asm(self):
        assert FIG1.to_asm().entries == FIG1_ASM

    def test_figure_one_inverses(self):
        assert MonotoneTriangle.from_column_sum(ColumnSumMatrix(FIG1_CSM)) == FIG1
        assert MonotoneTriangle.from_asm(AlternatingSignMatrix(FIG1_ASM)) == FIG1

    def test_minimal_maps_to_identity(self):
        for n in (1, 2, 4):
            asm = extremal_triangle(n, "min").to_asm()
            assert asm.entries == tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
            )

    def test_size_two_column_sums(self):
        assert extremal_triangle(2, "min").to_column_sum().entries == ((1, 0), (1, 1))
        other = ColumnSumMatrix(((0, 1), (1, 1)))
        assert other.to_triangle().rows == ((2,), (1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_roundtrips_exhaustive(self, n, universe):
        for t in universe(n):
            assert MonotoneTriangle.from_column_sum(t.to_column_sum()) == t
            assert MonotoneTriangle.from_asm(t.to_asm()) == t

    @pytest.mark.parametrize("t", [FIG1, extremal_triangle(1, "min"), extremal_triangle(5, "max")])
    def test_to_asm_checks_the_triangle_rule_once(self, t, monkeypatch):
        calls = []
        check = triangles._validate_rows
        monkeypatch.setattr(triangles, "_validate_rows", lambda rows: calls.append(rows) or check(rows))
        asm = t.to_asm()
        assert calls == [t.rows]
        assert asm == t.to_column_sum().to_asm()

    @pytest.mark.parametrize("t", [FIG1, extremal_triangle(1, "min"), extremal_triangle(5, "max")])
    def test_from_asm_checks_the_triangle_rule_once(self, t, monkeypatch):
        asm, csm = t.to_asm(), t.to_column_sum()
        calls = []
        check = triangles._validate_rows
        monkeypatch.setattr(triangles, "_validate_rows", lambda rows: calls.append(rows) or check(rows))
        assert asm.to_triangle() == t
        assert calls == [t.rows]
        assert csm.to_triangle() == t
        assert calls == [t.rows] * 2

    def test_bad_column_sum_rejected(self):
        with pytest.raises(NotAColumnSumMatrix):
            ColumnSumMatrix(((1, 0), (1, 0)))  # wrong count in row 2
        with pytest.raises(NotAColumnSumMatrix):
            ColumnSumMatrix(((1, 0, 0), (0, 1, 1), (1, 1, 1)))  # rows fail to interlace

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_column_sum_accept_set(self, n, universe):
        # every 0/1 matrix: accepted exactly when it is some triangle's form
        forms = {t.to_column_sum().entries for t in universe(n)}
        accepted = set()
        for flat in product((0, 1), repeat=n * n):
            entries = tuple(flat[i : i + n] for i in range(0, n * n, n))
            try:
                accepted.add(ColumnSumMatrix(entries).entries)
            except NotAColumnSumMatrix:
                pass
        assert accepted == forms

    @pytest.mark.parametrize(
        "n, values",
        [(1, (-1, 0, 1)), (2, (-1, 0, 1)), (3, (-1, 0, 1)), (2, (-2, -1, 0, 1, 2))],
        ids=["1", "2", "3", "2-wide"],
    )
    def test_asm_accept_set(self, n, values):
        # The textbook rule, kept here as an independent oracle: in every row
        # and every column the nonzero entries are +1, -1, ..., +1.
        def alternates(line):
            nonzero = [v for v in line if v]
            return len(nonzero) % 2 == 1 and nonzero == [(-1) ** k for k in range(len(nonzero))]

        accepted = 0
        for flat in product(values, repeat=n * n):
            entries = tuple(flat[i : i + n] for i in range(0, n * n, n))
            try:
                AlternatingSignMatrix(entries)
                ok = True
            except NotAnASM:
                ok = False
            assert ok == all(map(alternates, entries + tuple(zip(*entries)))), entries
            accepted += ok
        assert accepted == asm_number(n)

    def test_bad_asm_rejected(self):
        with pytest.raises(NotAnASM):
            AlternatingSignMatrix(((1, 0), (1, 0)))  # column sums wrong
        with pytest.raises(NotAnASM):
            AlternatingSignMatrix(((0, 1), (1, -1)))  # row 2 ends with -1
        with pytest.raises(NotAnASM):
            AlternatingSignMatrix(((2, -1), (-1, 2)))  # entries outside {-1,0,1}

    @pytest.mark.parametrize(
        "make, entries, error",
        [
            (ColumnSumMatrix, ((True, False), (1.0, 1)), NotAColumnSumMatrix),
            (ColumnSumMatrix, ((0, 1), (1.0, 1)), NotAColumnSumMatrix),
            (AlternatingSignMatrix, ((0.0, True), (True, 0)), NotAnASM),
            (AlternatingSignMatrix, ((0, 1), (1, Fraction(0))), NotAnASM),
            (Permutation, (True, 2), NotAPermutation),
            (Permutation, (2.0, 1), NotAPermutation),
            (Permutation, (1, "2"), NotAPermutation),
        ],
    )
    def test_non_integer_entries_rejected(self, make, entries, error):
        with pytest.raises(error, match="non-integer entry"):
            make(entries)


def unranked(n_max=12):
    """Strategy: `unrank(n, k)` for n <= n_max and any k in [0, A(n))."""
    return st.integers(1, n_max).flatmap(
        lambda n: st.integers(0, asm_number(n) - 1).map(lambda k: unrank(n, k))
    )


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(unranked())
    def test_bijection_cycle(self, t):
        csm = t.to_column_sum()
        asm = csm.to_asm()
        assert asm == t.to_asm()
        assert asm.to_triangle() == t
        assert asm.to_column_sum() == csm
        assert csm.to_triangle() == t

    @settings(max_examples=60, deadline=None)
    @given(st.lists(unranked(), min_size=1, max_size=4))
    def test_text_roundtrips(self, ts):
        assert parse_triangles(triangles_to_text(ts)) == ts
        assert [parse_triangles(triangle_to_text(t)) for t in ts] == [[t] for t in ts]
        assert "".join(triangles_to_text_chunks(iter(ts))) == triangles_to_text(ts)
        csms = [t.to_column_sum() for t in ts]
        asms = [t.to_asm() for t in ts]
        assert parse_column_sums(matrices_to_text(csms)) == csms
        assert parse_asms(matrices_to_text(asms)) == asms
        assert [parse_asms(matrix_to_text(a)) for a in asms] == [[a] for a in asms]


class TestPermutations:
    def test_312_and_231(self):
        assert perm_to_triangle(Permutation((3, 1, 2))).rows == ((3,), (1, 3), (1, 2, 3))
        assert perm_to_triangle(Permutation((2, 3, 1))).rows == ((2,), (2, 3), (1, 2, 3))

    def test_identity_gives_minimal(self):
        for n in (1, 3, 5):
            assert perm_to_triangle(Permutation.identity(n)) == extremal_triangle(n, "min")

    def test_matches_matrix_route(self):
        from itertools import permutations

        for values in permutations(range(1, 5)):
            p = Permutation(values)
            assert p.to_triangle() == MonotoneTriangle.from_asm(p.to_asm())

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            Permutation((1, 1, 3))

    def test_subset_characterization(self):
        assert not MonotoneTriangle(((2,), (1, 3), (1, 2, 3))).is_permutation_triangle()
        assert extremal_triangle(4, "min").is_permutation_triangle()
        assert not FIG1.is_permutation_triangle()

    def test_permutation_triangles_iff_no_negative_entries(self, universe):
        for t in universe(5):
            assert t.is_permutation_triangle() == (not t.to_asm().has_negative_entry())


class TestRankReverse:
    def test_worked_example(self):
        t = MonotoneTriangle(((3,), (2, 3), (1, 2, 4), (1, 2, 3, 4)))
        assert t.rank_reverse().rows == ((2,), (2, 3), (1, 3, 4), (1, 2, 3, 4))

    def test_swaps_extremes(self):
        for n in (2, 4, 6):
            assert extremal_triangle(n, "min").rank_reverse() == extremal_triangle(n, "max")

    def test_involution(self, universe):
        for t in universe(4):
            assert t.rank_reverse().rank_reverse() == t


class TestSuccessors:
    def test_empty_row(self):
        assert list(interlacing_successors((), 3)) == [(1,), (2,), (3,)]

    def test_lexicographic_order(self):
        succs = list(interlacing_successors((2, 4), 5))
        assert succs == sorted(succs)
        assert all(a <= b for row in succs for a, b in zip(row, row[1:]))

    def test_counts_at_size_three(self):
        assert sum(1 for _ in interlacing_successors((1,), 3)) == 2
        assert sum(1 for _ in interlacing_successors((2,), 3)) == 3

    def test_every_row_extends(self):
        # any strictly increasing row admits a successor; this is the DP-state fact
        for n in range(1, 7):
            for size in range(1, n):
                for row in combinations(range(1, n + 1), size):
                    assert next(iter(interlacing_successors(row, n)), None) is not None

    @pytest.mark.parametrize(
        "row, n, error",
        [
            ((2, 1), 3, StrictIncreaseViolated),
            ((1, 1), 3, StrictIncreaseViolated),
            ((0,), 3, ShapeMismatch),
            ((5,), 3, ShapeMismatch),
            ((True,), 3, ShapeMismatch),
            ((PeerLyingInt(2), PeerLyingInt(1)), 3, StrictIncreaseViolated),
            ((), -1, ValueError),
            ((), 3.0, TypeError),
        ],
        ids=["decreasing", "repeated", "zero", "past-n", "bool", "lying-int", "negative-n", "float-n"],
    )
    def test_refuses_a_row_no_triangle_has(self, row, n, error):
        # The odometer never reaches the bound of a row that is not strictly
        # increasing or leaves [1, n], so it could run on without end or
        # yield nothing: each must raise within a second.
        def stop(signum, frame):
            raise TimeoutError(f"interlacing_successors({row}, {n}) ran past 1 s")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(error):
                list(islice(interlacing_successors(row, n), 12))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_int_subclass_is_compared_by_value(self):
        # Its own operators would pass (2, 1), as the prefix row of a
        # triangle prefix too, which counted the completions of (1, 2).
        with pytest.raises(StrictIncreaseViolated):
            TrianglePrefix(3, 2, (PeerLyingInt(2), PeerLyingInt(1)))
        prefix = TrianglePrefix(3, 2, (PeerLyingInt(1), LyingInt(3)))
        assert prefix.row == (1, 3) and {type(v) for v in prefix.row} == {int}
        assert completions_count(prefix) == 1
        succs = list(interlacing_successors((LyingInt(1), IntSubclass(3)), 4))
        assert succs == list(interlacing_successors((1, 3), 4))
        assert {type(v) for row in succs for v in row} == {int}

    def test_matches_brute_force_filter(self):
        # every strictly increasing row (the empty row too) up to n = 8:
        # the lex-ordered candidates of the next length that interlace it
        for n in range(1, 9):
            for size in range(n):
                for row in combinations(range(1, n + 1), size):
                    expected = [
                        cand
                        for cand in combinations(range(1, n + 1), size + 1)
                        if all(cand[j] <= row[j] <= cand[j + 1] for j in range(size))
                    ]
                    assert list(interlacing_successors(row, n)) == expected, (row, n)


class TestTextFormats:
    def test_triangle_roundtrip(self):
        text = triangle_to_text(FIG1)
        assert text == "3\n2 4\n1 3 4\n1 2 3 4\n"
        assert parse_triangles(text) == [FIG1]

    def test_stream_roundtrip(self):
        ts = [extremal_triangle(3, "min"), extremal_triangle(3, "max")]
        text = triangles_to_text(ts)
        assert text == "1\n1 2\n1 2 3\n\n3\n2 3\n1 2 3\n"
        assert parse_triangles(text) == ts

    def test_stream_matches_per_triangle_text(self, universe):
        ts = universe(4)
        assert triangles_to_text(ts) == "\n".join(triangle_to_text(t) for t in ts)
        assert triangles_to_text([]) == "\n"

    @pytest.mark.parametrize("n, pieces", [(1, 1), (4, 1), (6, 8)])
    def test_chunks_join_to_the_stream(self, universe, n, pieces):
        ts = universe(n)
        chunks = list(triangles_to_text_chunks(iter(ts)))
        assert len(chunks) == pieces  # 7436 = 7 * 1024 + 268 at n = 6
        assert "".join(chunks) == triangles_to_text(ts)

    def test_matrix_text(self):
        assert matrix_to_text(AlternatingSignMatrix(FIG1_ASM)).splitlines()[1] == "0 1 -1 1"
        parsed = parse_asms(matrix_to_text(AlternatingSignMatrix(FIG1_ASM)))
        assert parsed[0].entries == FIG1_ASM

    def test_parse_rejects_junk(self):
        from goglattice import FormatError

        with pytest.raises(FormatError):
            parse_triangles("1\nx y\n")
