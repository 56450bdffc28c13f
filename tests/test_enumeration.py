"""Enumeration order, ranking, exact sampling, and the census with its file format."""

import gc
import hashlib
import os
import pickle
import random
import time
import tracemalloc
from array import array
from bisect import bisect_right
from collections import deque
from functools import cache
from itertools import accumulate, islice
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goglattice import (
    CensusTable,
    FormatError,
    IndexOutOfRange,
    LimitExceeded,
    MonotoneTriangle,
    TrianglePrefix,
    asm_number,
    build_census,
    completions_count,
    enumerate_triangles,
    eta,
    extremal_triangle,
    gap_product_census,
    load_or_build_census,
    primitive_counts,
    rank,
    sample_uniform,
    unrank,
)
from goglattice.census import _gap_products
from goglattice.cli import main
from goglattice.enumeration import (
    _BLOCK,
    _INDEXES,
    INDEX_MAX_N,
    SAMPLE_LIMIT_DEFAULT,
    _SuccessorIndex,
    _id,
    _index,
    _rows_by_mask,
)
from goglattice.errors import ShapeMismatch, TriangleError
from goglattice.triangles import _check_pair, _validate_rows, interlacing_successors

CENSUS3_TEXT = "MTCENSUS v1 n=3 total=7\n4 4\n5 1\n6 1\n7 1\n"

# Frozen outputs at n = 12: they pin the enumeration order and the sampling stream.
UNRANK_12 = {
    1000000000: (
        (1,), (1, 2), (1, 2, 4), (1, 2, 3, 6), (1, 2, 3, 5, 9), (1, 2, 3, 4, 6, 11),
        (1, 2, 3, 4, 6, 7, 11), (1, 2, 3, 4, 6, 7, 9, 12), (1, 2, 3, 4, 5, 7, 9, 11, 12),
        (1, 2, 3, 4, 5, 6, 9, 10, 11, 12), (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    ),
    4203770619892500: (
        (6,), (3, 7), (3, 6, 8), (3, 6, 8, 11), (2, 4, 6, 8, 11), (2, 4, 6, 8, 9, 11),
        (2, 3, 4, 7, 8, 10, 12), (1, 2, 4, 6, 7, 8, 10, 12), (1, 2, 3, 5, 6, 8, 10, 11, 12),
        (1, 2, 3, 4, 6, 7, 8, 10, 11, 12), (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    ),
    6305655929838757: (
        (7,), (1, 7), (1, 2, 7), (1, 2, 3, 7), (1, 2, 3, 4, 7), (1, 2, 3, 4, 5, 7),
        (1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5, 6, 7, 8, 10),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    ),
}


# The linear successor walk the index replaced, kept as its oracle.
@cache
def linear_counts(n):
    """Completion counts of every row, by a walk over the successor stream."""
    table = {tuple(range(1, n + 1)): 1}

    def count(row):
        if row not in table:
            table[row] = sum(map(count, interlacing_successors(row, n)))
        return table[row]

    count(())
    return table


def linear_pick(n, prev, k):
    table = linear_counts(n)
    for cand in interlacing_successors(prev, n):
        if k < table[cand]:
            return cand, k
        k -= table[cand]
    raise AssertionError(f"index beyond the completions of row {prev}")


def linear_skipped(n, prev, row):
    table = linear_counts(n)
    skipped = 0
    for cand in interlacing_successors(prev, n):
        if cand == row:
            return skipped
        skipped += table[cand]
    raise AssertionError(f"{row} is not a successor of {prev}")


# The generator-stack walk over `interlacing_successors` that the walk over
# the successor index replaced, kept as its oracle.
def stack_walk(n):
    rows = []
    stack = [interlacing_successors((), n)]
    while stack:
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
            if rows:
                rows.pop()
        elif len(stack) == n:
            yield tuple(rows) + (row,)
        else:
            rows.append(row)
            stack.append(interlacing_successors(row, n))


def stack_walk_census(n):
    stairs = [tuple(range(1, i + 1)) for i in range(1, n + 1)]
    counts = {}
    for rows in stack_walk(n):
        mask = sum(1 << i for i, (row, stair) in enumerate(zip(rows, stairs)) if row == stair)
        counts[mask] = counts.get(mask, 0) + 1
    return counts


ENUMERATE_7_SHA256 = "376e585da4452b291a172db232a6c3a4f47df92659f3e1ec64e5c73c8cd9b64b"


SAMPLE_12_SEED_2024 = (
    (5,), (5, 6), (3, 5, 8), (3, 5, 7, 8), (3, 5, 6, 7, 10), (2, 4, 6, 7, 8, 11),
    (2, 3, 5, 7, 8, 9, 12), (1, 3, 4, 5, 7, 9, 10, 12), (1, 3, 4, 5, 6, 8, 9, 11, 12),
    (1, 3, 4, 5, 6, 7, 8, 10, 11, 12), (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
)


class TestEnumeration:
    def test_size_one(self):
        assert [t.rows for t in enumerate_triangles(1)] == [((1,),)]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_and_extremes(self, n, universe):
        ts = universe(n)
        assert len(ts) == asm_number(n)
        assert ts[0] == extremal_triangle(n, "min")
        assert ts[-1] == extremal_triangle(n, "max")

    def test_lexicographic_on_reading_sequence(self, universe):
        seqs = [t.reading_sequence() for t in universe(4)]
        assert seqs == sorted(seqs)

    def test_no_duplicates(self, universe):
        for n in range(1, 6):
            ts = universe(n)
            assert len({t.rows for t in ts}) == len(ts)

    def test_set_equality_against_all_candidates(self):
        # independent generation: every strictly increasing row combination,
        # filtered by validation only
        from itertools import combinations, product as iproduct

        from goglattice.errors import TriangleError

        n = 4
        row_choices = [list(combinations(range(1, n + 1), i)) for i in range(1, n + 1)]
        valid = set()
        for rows in iproduct(*row_choices):
            try:
                valid.add(MonotoneTriangle(rows).rows)
            except TriangleError:
                pass
        assert valid == {t.rows for t in enumerate_triangles(n)}

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_triangles(8))

    def test_every_triangle_is_valid(self, universe):
        for t in universe(6):
            _validate_rows(t.rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_stack_walk(self, n, universe):
        assert [t.rows for t in universe(n)] == list(stack_walk(n))

    def test_size_seven_stream(self, capsys):
        assert main(["enumerate", "--n", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_7_SHA256
        blocks = out[:-1].split("\n\n")
        assert len(blocks) == asm_number(7) == 218348
        assert blocks[0] == str(extremal_triangle(7, "min"))
        assert blocks[-1] == str(extremal_triangle(7, "max"))

    @pytest.mark.parametrize("build", [enumerate_triangles, build_census])
    def test_limit_beyond_the_index_cap(self, build):
        with pytest.raises(LimitExceeded, match=f"n <= {INDEX_MAX_N}"):
            build(INDEX_MAX_N + 1, limit=INDEX_MAX_N + 4)


def corrupt_runs(n, cases, make):
    """For each (position, id) in cases, the triangles of make(n) through a
    private size-n index with edges[position] set to id: whether making them
    raised `TriangleError`.  Each triangle made before that is checked by
    `_validate_rows`.  The shared index is back in `_INDEXES` afterwards."""
    shared = _index(n)
    outcomes = []
    try:
        for at, new in cases:
            index = _INDEXES[n] = _SuccessorIndex(n)
            index.edges[at] = new
            made = []
            try:
                made.extend(make(n))
            except TriangleError:
                outcomes.append(True)
            else:
                outcomes.append(False)
            for t in made:
                _validate_rows(t.rows)
    finally:
        _INDEXES[n] = shared
    return outcomes


def edge_cases(n):
    """Every edge of the size-n index, with every other row id in its place;
    and whether that row can follow the edge's row."""
    index = _index(n)
    cases, bad = [], []
    for i in range((1 << n) - 1):  # every row but the bottom one
        below = set(interlacing_successors(index.rows[i], n))
        for at in range(index.ends[i], index.ends[i + 1]):
            for new in range(1 << n):
                if new != index.edges[at]:
                    cases.append((at, new))
                    bad.append(index.rows[new] not in below)
    return cases, bad


def sampled_edge_cases(n, count):
    cases, bad = edge_cases(n)
    picked = random.Random(n).sample(range(len(cases)), count)
    return [cases[k] for k in picked], [bad[k] for k in picked]


class TestWalkChecks:
    """The index checks each edge (row, successor) once, before the first
    walk yields a triangle below it, so `enumerate_triangles` yields only
    valid triangles whatever the index holds."""

    @staticmethod
    def walk(n):
        return enumerate_triangles(n, limit=n)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_every_corrupt_edge_raises(self, n):
        cases, bad = edge_cases(n)
        assert any(bad) and not all(bad)
        shared = _index(n)
        assert corrupt_runs(n, cases, self.walk) == bad
        assert _INDEXES[n] is shared
        assert [t.rows for t in enumerate_triangles(n)] == list(stack_walk(n))

    def test_sampled_corrupt_edges_at_six(self):
        cases, bad = sampled_edge_cases(6, 40)
        assert corrupt_runs(6, cases, self.walk) == bad

    def test_verified_pairs_pass_the_pair_rule(self, monkeypatch):
        # The first walk checks every edge of the index once, each one a pair
        # that the pair rule passes, and flags it; a second walk checks none.
        checks = []
        check = _SuccessorIndex._check
        monkeypatch.setattr(
            _SuccessorIndex, "_check", lambda index, i, p: checks.append(p) or check(index, i, p)
        )
        index = _SuccessorIndex(7)
        shared, _INDEXES[7] = _index(7), index
        try:
            assert index.flags is None
            deque(enumerate_triangles(7), maxlen=0)
            assert sorted(checks) == list(range(len(index.edges)))
            assert index.flags == bytearray([1]) * len(index.edges)
            deque(enumerate_triangles(7), maxlen=0)
            assert len(checks) == len(index.edges)
        finally:
            _INDEXES[7] = shared
        for i in range((1 << 7) - 1):
            for j in index.successors(i):
                _check_pair(index.rows[i], index.rows[j])
                assert index.rows[j] in interlacing_successors(index.rows[i], 7)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_triangles_equal_validated_ones(self, n, universe):
        for t in universe(n):
            made = MonotoneTriangle(t.rows)
            assert t == made and hash(t) == hash(made)
            assert pickle.loads(pickle.dumps(t)) == t

    def test_rows_past_the_table(self):
        # Rows with entries past 8 come from the same table as the others.
        ts = list(islice(enumerate_triangles(9, limit=9), 2000))
        assert [t.rows for t in ts] == list(islice(stack_walk(9), 2000))
        for t in ts:
            _validate_rows(t.rows)
        table = set(map(id, _index(9).rows))
        assert all(table.issuperset(map(id, t.rows)) for t in ts)


class TestPickChecks:
    """A pick checks the edge it takes once, so `unrank` and `sample_uniform`
    return only valid triangles whatever the index holds."""

    @staticmethod
    def unrank_all(n):
        return (unrank(n, k, limit=n) for k in range(asm_number(n)))

    @staticmethod
    def sample(n):
        return sample_uniform(n, 300, n, limit=n)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_every_corrupt_edge_raises(self, n):
        cases, bad = edge_cases(n)
        shared = _index(n)
        assert corrupt_runs(n, cases, self.unrank_all) == bad
        # 300 samples at n <= 4 take every edge.
        assert corrupt_runs(n, cases, self.sample) == bad
        assert _INDEXES[n] is shared
        assert [unrank(n, k).rows for k in range(asm_number(n))] == list(stack_walk(n))

    def test_sampled_corrupt_edges_at_six(self):
        cases, bad = sampled_edge_cases(6, 40)
        assert corrupt_runs(6, cases, self.unrank_all) == bad
        sampled = corrupt_runs(6, cases, self.sample)  # a bad edge may go untaken
        assert not any(raised and not b for raised, b in zip(sampled, bad))

    def test_successor_past_the_rows_raises(self):
        # The table row (1, 2, 4) can follow (1, 2) by the pair rule, but it
        # is no row of [3]: as the bottom row it would end an invalid
        # triangle, in a walk and in a pick alike.
        cases = [(_index(3).ends[0b011], 0b1011)]  # the one edge of (1, 2)
        for make in (TestWalkChecks.walk, self.unrank_all, self.sample):
            assert corrupt_runs(3, cases, make) == [True]

    def test_successor_id_past_the_index_raises(self):
        # Id 8 names no row of [3]: every count read through it would be past
        # the index's rows.  The first pick, rank or walk refuses the index
        # first.
        calls = [
            lambda: unrank(3, 0),
            lambda: sample_uniform(3, 1, 1),
            lambda: list(enumerate_triangles(3)),
            lambda: rank(MonotoneTriangle(((3,), (2, 3), (1, 2, 3)))),
        ]
        shared = _index(3)
        try:
            for call in calls:
                index = _INDEXES[3] = _SuccessorIndex(3)
                index.edges[0] = 8
                with pytest.raises(ShapeMismatch, match="successor id 8 names no row"):
                    call()
        finally:
            _INDEXES[3] = shared

    def test_picks_check_only_the_edges_they_take(self, monkeypatch):
        # A cold `gog sample --n 10 --count 50` checks at most 500 edges.
        taken = []
        check = _SuccessorIndex._check
        monkeypatch.setattr(
            _SuccessorIndex, "_check", lambda index, i, p: taken.append(p) or check(index, i, p)
        )
        index = _SuccessorIndex(10)
        shared, _INDEXES[10] = _index(10), index
        try:
            completions_count(TrianglePrefix(10, 0, ()))
            assert index.flags is None and index.marks is None
            ts = sample_uniform(10, 50, 2024)
            assert 10 < len(taken) <= 500 and len(set(taken)) == len(taken)
            assert sorted(taken) == [p for p, flag in enumerate(index.flags) if flag]
            flagged = set(taken)
            assert [unrank(10, rank(t)) for t in ts] == ts
            assert set(taken) == flagged
        finally:
            _INDEXES[10] = shared


class TestCompletions:
    def test_bottom_row(self):
        assert completions_count(TrianglePrefix(3, 3, (1, 2, 3))) == 1

    def test_top_entry_buckets(self):
        assert [completions_count(TrianglePrefix(3, 1, (v,))) for v in (1, 2, 3)] == [2, 3, 2]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_empty_prefix_counts_everything(self, n):
        assert completions_count(TrianglePrefix(n, 0, ())) == asm_number(n)

    def test_independent_of_formula_up_to_dp_limit(self):
        for n in (10, 12):
            assert completions_count(TrianglePrefix(n, 0, ())) == asm_number(n)

    def test_level_one_sum(self):
        for n in range(1, 8):
            total = sum(
                completions_count(TrianglePrefix(n, 1, (v,))) for v in range(1, n + 1)
            )
            assert total == asm_number(n)


class TestRankUnrank:
    def test_minimal_is_rank_zero(self):
        for n in (1, 3, 5):
            assert rank(extremal_triangle(n, "min")) == 0

    def test_unrank_last(self):
        assert unrank(3, 6) == extremal_triangle(3, "max")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_roundtrip_exhaustive(self, n, universe):
        for k, t in enumerate(universe(n)):
            assert rank(t) == k
            assert unrank(n, k) == t

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unrank(3, 7)
        with pytest.raises(IndexOutOfRange):
            unrank(3, -1)
        for k in (True, False, 1.0, float(2**53 + 1), float(asm_number(12) - 1)):
            with pytest.raises(IndexOutOfRange, match=f"rank must be an int, got {type(k).__name__}"):
                unrank(12, k)

    @pytest.mark.parametrize("k,rows", sorted(UNRANK_12.items()))
    def test_frozen_at_twelve(self, k, rows):
        t = unrank(12, k)
        assert t.rows == rows
        _validate_rows(t.rows)
        assert rank(t) == k

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rank_inverts_unrank(self, data):
        n = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(0, asm_number(n) - 1))
        assert rank(unrank(n, k)) == k

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pick_returns_the_residual(self, data):
        # a row at a random level (level 0: the empty row) of a random triangle
        n = data.draw(st.integers(1, 12))
        t = unrank(n, data.draw(st.integers(0, asm_number(n) - 1)))
        prev = (((),) + t.rows)[data.draw(st.integers(0, n - 1))]
        table = linear_counts(n)
        k = data.draw(st.integers(0, table[prev] - 1))
        index = _index(n)
        succ, residual = index.pick(_id(prev), k)
        row = index.rows[succ]
        assert (row, residual) == linear_pick(n, prev, k)
        assert k - residual == linear_skipped(n, prev, row) == index.skipped(_id(prev), succ)
        assert 0 <= residual < table[row] == index.counts[succ]

    def test_limit(self):
        started = time.perf_counter()
        for call in (
            lambda: rank(extremal_triangle(13, "min")),
            lambda: unrank(13, 0),
            lambda: completions_count(TrianglePrefix(13, 0, ())),
        ):
            with pytest.raises(LimitExceeded, match="raise `limit`"):
                call()
        with pytest.raises(LimitExceeded, match=f"n <= {INDEX_MAX_N}"):
            unrank(INDEX_MAX_N + 1, 0, limit=INDEX_MAX_N + 1)
        assert time.perf_counter() - started < 0.5
        with pytest.raises(LimitExceeded, match="limit is 4"):
            rank(extremal_triangle(5, "max"), limit=4)
        assert rank(extremal_triangle(5, "max"), limit=5) == asm_number(5) - 1


class TestSuccessorIndex:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_linear_walk(self, n):
        table = linear_counts(n)
        assert len(table) == 1 << n  # every subset of [n] is a row
        index = _index(n)
        for row, count in table.items():
            i = _id(row)
            assert index.rows[i] == row
            assert index.counts[i] == count
            succ = [_id(cand) for cand in interlacing_successors(row, n)] if len(row) < n else []
            assert index.successors(i).tolist() == succ
        assert len(index.edges) == (3**n - 1) // 2

    @pytest.mark.parametrize("n", [13, 14])
    def test_runs_past_the_linear_walk(self, n):
        # Past the oracle's reach: the edge count, the count at the top, every
        # successor above its row (the count sweep relies on it) and each run
        # in strictly increasing lex order of its rows.
        index = _SuccessorIndex(n)
        edges, ends = index.edges, index.ends
        assert len(edges) == (3**n - 1) // 2
        assert index.counts[0] == asm_number(n)
        rows = index.rows
        lex = [0] * len(rows)
        for at, i in enumerate(sorted(range(len(rows)), key=rows.__getitem__)):
            lex[i] = at
        for i in range(len(rows) - 1):
            run = edges[ends[i] : ends[i + 1]]
            assert min(run) > i
            keys = list(map(lex.__getitem__, run))
            assert all(map(lt, keys, keys[1:])), i
        assert ends[-2] == ends[-1] == len(edges)  # the bottom row has none

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pick_and_skipped_exhaustive(self, n):
        index = _index(n)
        for prev, count in linear_counts(n).items():
            if len(prev) == n:
                continue
            i = _id(prev)
            for k in range(count):
                succ, residual = index.pick(i, k)
                assert (index.rows[succ], residual) == linear_pick(n, prev, k)
            for cand in interlacing_successors(prev, n):
                assert index.skipped(i, _id(cand)) == linear_skipped(n, prev, cand)

    @pytest.mark.parametrize("n", [7, 8, 9, 10, 12])
    def test_pick_and_skipped_at_block_edges(self, n):
        # Rows with more than one block of successors: every row at n <= 10,
        # a fixed sample of them at n = 12.  skipped agrees with the linear
        # walk as the row's first use and after it; that use leaves the
        # completions before each block but the first as the row's marks; and
        # an index at a mark or next to it is then picked as the walk picks it.
        table = linear_counts(n)
        index = _SuccessorIndex(n)  # no row's marks filled yet
        wide = {}  # row -> its successors, if more than one block
        for row in table:
            succ = list(interlacing_successors(row, n)) if len(row) < n else []
            if len(succ) > _BLOCK:
                wide[row] = succ
        rows = list(wide)
        if n == 12:  # 40 rows at random and the widest, with 233 successors
            rows = random.Random(12).sample(rows, 40) + [max(rows, key=lambda row: len(wide[row]))]
            assert len(wide[rows[-1]]) == 233
        for prev in rows:
            i = _id(prev)
            succ = wide[prev]
            before = list(accumulate((table[cand] for cand in succ), initial=0))
            marks = before[_BLOCK : len(succ) : _BLOCK]
            skipped = [linear_skipped(n, prev, cand) for cand in succ]
            assert [index.skipped(i, _id(cand)) for cand in succ] == skipped
            lo = index.ends[i] // _BLOCK + 1
            assert index.marks[lo : lo + len(marks)].tolist() == marks
            assert index.pick(i, table[prev] - 1) == (_id(succ[-1]), table[succ[-1]] - 1)
            for k in {k for mark in marks for k in (mark - 1, mark, mark + 1)} | {0, table[prev] - 1}:
                if 0 <= k < table[prev]:
                    succ_id, residual = index.pick(i, k)
                    assert (index.rows[succ_id], residual) == linear_pick(n, prev, k)
            assert [index.skipped(i, _id(cand)) for cand in succ] == skipped

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_pick_against_the_whole_row(self, n):
        # Each pick both as the row's first use (its marks cleared, or not
        # yet made) and as a later one (marks filled), against accumulating
        # and bisecting the row's whole run: at both ends of the row and next
        # to the boundary after each successor, on rows of one successor, of
        # one full block, of one block and one successor more, and the widest.
        index = _SuccessorIndex(n)
        counts, ends = index.counts, index.ends
        width = [ends[i + 1] - ends[i] for i in range(1 << n)]
        for i in map(width.index, (1, _BLOCK, _BLOCK + 1, max(width))):
            succ = index.successors(i).tolist()
            before = list(accumulate(map(counts.__getitem__, succ), initial=0))
            marks = before[_BLOCK : len(succ) : _BLOCK]
            lo = ends[i] // _BLOCK + 1
            ks = {0, counts[i] - 1} | {k for c in before[1:-1] for k in (c - 1, c, c + 1)}
            for k in sorted(k for k in ks if 0 <= k < counts[i]):
                j = bisect_right(before, k) - 1
                expected = (succ[j], k - before[j])
                if marks and index.marks is not None:
                    index.marks[lo : lo + len(marks)] = array("Q", bytes(8 * len(marks)))
                assert index.pick(i, k) == expected, (i, k)
                if marks:
                    assert index.marks[lo : lo + len(marks)].tolist() == marks
                assert index.pick(i, k) == expected, (i, k)

    def test_exact_past_two_to_the_64(self):
        # A(14) exceeds 2^64, so the marks are a list of Python ints there.
        total = asm_number(14)
        assert total >> 64
        try:
            ks = [0, 1, 2, total // 2, total - 3, total - 2, total - 1]
            draw = random.Random(14).randrange
            ks += [draw(total) for _ in range(5)]
            for k in ks:
                assert rank(unrank(14, k, limit=14), limit=14) == k
            assert unrank(14, 0, limit=14) == extremal_triangle(14, "min")
            assert unrank(14, total - 1, limit=14) == extremal_triangle(14, "max")
            assert type(_INDEXES[14].marks) is list
        finally:
            _INDEXES.pop(14, None)  # about 10 MiB that no other test reads

    def test_marks_are_built_on_first_use_and_small(self, monkeypatch):
        monkeypatch.delitem(_INDEXES, 12, raising=False)
        assert completions_count(TrianglePrefix(12, 0, ())) == asm_number(12)
        index = _INDEXES[12]
        assert index.marks is None  # counting makes no room for marks
        assert index.flags is None  # nor flags
        # A triangle whose rank passes a row's first block, at (3, 6, 8).
        t = MonotoneTriangle(UNRANK_12[4203770619892500])
        gc.collect()
        tracemalloc.start()
        try:
            assert rank(t) == 4203770619892500
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert type(index.marks) is array and index.marks.typecode == "Q"
        # The edge flags, one byte per edge (about 260 KiB); the rest is the
        # room for the marks.
        assert len(index.flags) == len(index.edges) == (3**12 - 1) // 2
        assert kept - len(index.flags) <= 0.25 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pick_and_rank_in_either_order(self, data):
        # On a fresh index, a pick and a rank step at one row, in either
        # order and then again, agree with the linear walk: whichever comes
        # first fills the row's marks for both.
        n = data.draw(st.integers(1, 12))
        index = _SuccessorIndex(n)
        i = data.draw(st.integers(0, (1 << n) - 2))  # any row but the bottom one
        prev = index.rows[i]
        k = data.draw(st.integers(0, linear_counts(n)[prev] - 1))
        cand = data.draw(st.sampled_from(list(interlacing_successors(prev, n))))

        def pick():
            succ, residual = index.pick(i, k)
            assert (index.rows[succ], residual) == linear_pick(n, prev, k)

        def skipped():
            assert index.skipped(i, _id(cand)) == linear_skipped(n, prev, cand)

        calls = [pick, skipped] if data.draw(st.booleans()) else [skipped, pick]
        for call in calls * 2:
            call()

    def test_ids_cover_every_row(self):
        # each id is a strictly increasing row, and back, up to the cap
        rows = _rows_by_mask(INDEX_MAX_N)
        assert len(rows) == 1 << INDEX_MAX_N
        for i, row in enumerate(rows):
            assert list(row) == sorted(set(row)) and _id(row) == i
        assert _index(12).rows == rows[: 1 << 12]


class TestSampling:
    def test_size_one(self):
        assert [t.rows for t in sample_uniform(1, 5, 99)] == [((1,),)] * 5

    def test_deterministic(self):
        a = sample_uniform(4, 50, 1234)
        b = sample_uniform(4, 50, 1234)
        assert a == b
        assert a != sample_uniform(4, 50, 1235)

    def test_samples_are_valid_and_cover(self, universe):
        seen = {t.rows for t in sample_uniform(3, 400, 7)}
        assert seen == {t.rows for t in universe(3)}

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            sample_uniform(13, 1, 0)

    def test_count_limit(self):
        started = time.perf_counter()
        with pytest.raises(LimitExceeded, match="raise `count_limit`"):
            sample_uniform(12, SAMPLE_LIMIT_DEFAULT + 1, 0)
        with pytest.raises(LimitExceeded, match="count limit is 2, got count=3"):
            sample_uniform(3, 3, 0, count_limit=2)
        assert time.perf_counter() - started < 0.5  # refused before any draw
        assert sample_uniform(3, 3, 0, count_limit=3) == sample_uniform(3, 3, 0)

    def test_frozen_cli_stream(self, capsys):
        assert main(["sample", "--n", "10", "--count", "50", "--seed", "3142267078"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "68074e0d7458af748f7e8b686ceeb887e81e8a066867f17bcfbdd035d1f2ac22"

    def test_frozen_rank_of_a_sample(self):
        (t,) = sample_uniform(12, 1, 2024)
        assert t.rows == SAMPLE_12_SEED_2024
        assert rank(t) == 3220736970139029

    def test_samples_are_valid_at_twelve(self):
        for t in sample_uniform(12, 20, 5):
            _validate_rows(t.rows)


class TestCensus:
    def test_size_three_exact(self):
        assert build_census(3).counts == {0b100: 4, 0b101: 1, 0b110: 1, 0b111: 1}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partitions_all_triangles(self, n, censuses):
        assert censuses(n).total() == asm_number(n)

    def test_matches_enumeration_masks(self, universe, censuses):
        for n in range(1, 6):
            counts = {}
            for t in universe(n):
                m = t.distinguished_rows().mask
                counts[m] = counts.get(m, 0) + 1
            assert counts == censuses(n).counts

    def test_containment_sums_reproduce_eta(self, censuses):
        # eta off the walked census (n <= 6), and as the gap products of A
        # that the inclusion-exclusion oracle reads without a census (n <= 10)
        for n in range(1, 11):
            by_gaps = _gap_products(n, [asm_number(i) for i in range(n + 1)])
            for mask in range(1 << (n - 1)):
                members = tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
                assert by_gaps[mask] == eta(n, members)
                if n <= 6:
                    assert censuses(n).containment_count(mask) == eta(n, members)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_stack_walk(self, n, censuses):
        assert censuses(n).counts == stack_walk_census(n)

    def test_run_histogram_size_three(self, censuses):
        assert censuses(3).run_histogram().counts == {1: 5, 2: 1, 3: 1}

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            build_census(8)


class TestCensusFile:
    def test_exact_bytes(self, censuses):
        assert censuses(3).to_text() == CENSUS3_TEXT

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_text_roundtrip_property(self, data):
        # A census of size n from the gap products f(D) = prod P(gap): its text
        # must bring back the table.  Shuffled over the 2^(n-1) sets, the
        # counts still sum to A(n), but a file that moves any is rejected.
        n = data.draw(st.integers(1, 11))
        p = primitive_counts(n)
        counts = []
        for low in range(1 << (n - 1)):
            weight, prev = 1, 0
            for i in range(1, n + 1):
                if i == n or low >> (i - 1) & 1:
                    weight *= p[i - prev]
                    prev = i
            counts.append(weight)
        assert sum(counts) == asm_number(n)
        table = CensusTable(n, {low | 1 << (n - 1): c for low, c in enumerate(counts)})
        assert CensusTable.from_text(table.to_text()) == table
        shuffled = data.draw(st.permutations(counts))
        if shuffled != counts:
            forged = CensusTable(n, dict(zip(table.counts, shuffled)))
            with pytest.raises(FormatError, match="gap product"):
                CensusTable.from_text(forged.to_text())

    def test_parse_roundtrip(self, censuses):
        for n in (1, 4, 6):
            table = censuses(n)
            again = CensusTable.from_text(table.to_text())
            assert again.n == table.n and again.counts == table.counts

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "MTCENSUS v2 n=3 total=7\n4 4\n5 1\n6 1\n7 1\n",
            "MTCENSUS v1 n=3 total=8\n4 4\n5 1\n6 1\n7 1\n",  # wrong total
            "MTCENSUS v1 n=3 total=7\n5 1\n4 4\n6 1\n7 1\n",  # not ascending
            "MTCENSUS v1 n=3 total=7\n1 4\n5 1\n6 1\n7 2\n",  # key misses bottom row
            "MTCENSUS v1 n=3 total=7\n4 x\n",
            "MTCENSUS v1 n=5 total=3\n10 3\n",  # consistent, but A(5) = 429
            "MTCENSUS v1 n=2 total=3\n2 1\n3 2\n",  # every set, but A(2) = 2
            "MTCENSUS v1 n=3 total=7\n4 1\n5 4\n6 1\n7 1\n",  # two counts swapped
            pytest.param(f"MTCENSUS v1 n=300 total=1\n{1 << 299:x} 1\n", id="forged-n300"),
            # 2^(10^12 - 1) sets: must be rejected before that shift is taken
            pytest.param("MTCENSUS v1 n=1000000000000 total=0\n", id="forged-n1e12"),
            pytest.param(CENSUS3_TEXT[:-4], id="truncated"),
            "MTCENSUS v1 n=0 total=0\n",
            pytest.param(CENSUS3_TEXT.replace("\n5", "\n\n5"), id="blank-line"),
            pytest.param(CENSUS3_TEXT.replace("\n5 1", "\n5 1\n5 1"), id="duplicated-line"),
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            CensusTable.from_text(text)

    @pytest.mark.parametrize(
        "text, n",
        [
            pytest.param(CENSUS3_TEXT.replace("\n4 4", "\n0X4 4"), 3, id="upper-case-hex-prefix"),
            pytest.param(
                "MTCENSUS v1 n=5 total=429\n" + gap_product_census(5).to_text().split("\n", 1)[1].upper(),
                5,
                id="upper-case-hex-digits",
            ),
            pytest.param(CENSUS3_TEXT.replace("\n", "\r\n"), 3, id="crlf"),
            pytest.param(" MTCENSUS\tv1  n=3 total=7 \n\t4 4\n5   1 \n6 1\n7 1", 3, id="padded"),
            pytest.param(CENSUS3_TEXT.replace("\n5 1", "\n05 01"), 3, id="leading-zero"),
        ],
    )
    def test_accepts_lenient_spellings(self, text, n):
        assert CensusTable.from_text(text) == gap_product_census(n)

    def test_write_is_atomic(self, tmp_path, censuses, monkeypatch):
        path = tmp_path / "mtcensus-n3.txt"
        censuses(3).write(path)
        assert path.read_text() == CENSUS3_TEXT
        assert CensusTable.read(path) == censuses(3)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            CensusTable(3, {0b100: 7}).write(path)
        assert path.read_text() == CENSUS3_TEXT
        assert os.listdir(tmp_path) == ["mtcensus-n3.txt"]

    def test_load_or_build_persists(self, tmp_path, monkeypatch):
        # The census is computed on every call: nothing is read or written.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GOG_CACHE_DIR", os.fspath(tmp_path / "env"))
        cache = tmp_path / "cache"
        cache.mkdir()
        assert load_or_build_census(4, cache_dir=cache) == gap_product_census(4)
        assert load_or_build_census(4) == gap_product_census(4)
        assert sorted(os.listdir(tmp_path)) == ["cache"]
        assert os.listdir(cache) == []


class TestTrianglePrefix:
    def test_validation(self):
        from goglattice import ShapeMismatch, StrictIncreaseViolated

        with pytest.raises(ShapeMismatch):
            TrianglePrefix(3, 2, (1,))
        with pytest.raises(StrictIncreaseViolated):
            TrianglePrefix(3, 2, (2, 2))
        with pytest.raises(ShapeMismatch):
            TrianglePrefix(3, 1, (4,))
        for entry in (True, 2.0, "a"):
            with pytest.raises(ShapeMismatch, match="non-integer entry"):
                TrianglePrefix(3, 1, (entry,))
