"""The count sequence A(n), the gap-product counts, and the lemma margins."""

import math
from fractions import Fraction

import pytest

from goglattice import (
    LimitExceeded,
    RowOutOfRange,
    RowSet,
    asm_number,
    asm_number_dp,
    bleher_fokin_estimate,
    eta,
    lemma_margins,
)

KNOWN = {0: 1, 1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348}


class TestAsmNumber:
    def test_convention_at_zero(self):
        assert asm_number(0) == 1

    def test_size_three_by_hand(self):
        # 1! 4! 7! / (3! 4! 5!) = 7
        assert asm_number(3) == math.factorial(1) * math.factorial(4) * math.factorial(7) // (
            math.factorial(3) * math.factorial(4) * math.factorial(5)
        )

    @pytest.mark.parametrize("n,value", sorted(KNOWN.items()))
    def test_known_values(self, n, value):
        assert asm_number(n) == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            asm_number(-1)

    def test_at_least_factorial(self):
        for n in range(1, 13):
            assert asm_number(n) >= math.factorial(n)

    def test_recurrence_matches_product_formula(self):
        from goglattice.counting import _asm_number_formula

        for n in range(61):
            assert asm_number(n) == _asm_number_formula(n), n


class TestAsmNumberDp:
    @pytest.mark.parametrize("n", range(10))
    def test_agrees_with_formula(self, n):
        assert asm_number_dp(n) == asm_number(n)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            asm_number_dp(13)
        assert asm_number_dp(13, limit=13) == asm_number(13)

    def test_agrees_with_enumeration(self, universe):
        for n in range(1, 6):
            assert asm_number_dp(n) == len(universe(n))


class TestEta:
    def test_empty_set_counts_everything(self):
        for n in (1, 3, 6):
            assert eta(n, ()) == asm_number(n)

    def test_spec_values(self):
        assert eta(3, (1,)) == 2
        assert eta(4, (1, 3)) == 2

    def test_accepts_row_sets(self):
        assert eta(4, RowSet.from_members(4, (1, 3))) == 2

    def test_prefix_and_suffix_collapse(self):
        # both prescriptions leave a single free block of size n-k
        for n in range(2, 9):
            for k in range(1, n):
                assert eta(n, tuple(range(1, k + 1))) == asm_number(n - k)
                assert eta(n, tuple(range(n - k, n))) == asm_number(n - k)

    def test_brute_force_oracle(self, universe):
        for n in range(1, 6):
            masks = [t.distinguished_rows().mask for t in universe(n)]
            for i_mask in range(1 << (n - 1)):
                members = tuple(i for i in range(1, n) if i_mask >> (i - 1) & 1)
                brute = sum(1 for m in masks if m & i_mask == i_mask)
                assert eta(n, members) == brute

    def test_corollary_bound(self, universe):
        for n in range(2, 6):
            for i_mask in range(1 << (n - 1)):
                members = tuple(i for i in range(1, n) if i_mask >> (i - 1) & 1)
                assert eta(n, members) <= asm_number(n - len(members))

    def test_row_out_of_range(self):
        with pytest.raises(RowOutOfRange):
            eta(3, (3,))  # the bottom row may not be prescribed
        with pytest.raises(RowOutOfRange):
            eta(3, (0,))

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="^eta needs n >= 0, got -1$"):
            eta(-1, ())
        assert eta(0, ()) == 1


class TestLemmaMargins:
    def test_spot_values(self):
        report = lemma_margins(4)
        assert (1, 1, 1) in report.increase  # A(2)A(0) - A(1)A(1) = 1
        assert (3, 1, 18, 28) in report.ratio  # 2*3^2 <= 7*2^2
        assert (4, (2,), 3) in report.corollary  # A(3) - A(2)A(2) = 7 - 4

    def test_full_sweep_is_nonnegative(self):
        report = lemma_margins(25)
        assert report.ok, report.violations()[:3]
        pairs = {(i1, i2) for i1, i2, _ in report.increase}
        assert pairs == {(i1, i2) for i1 in range(1, 26) for i2 in range(1, i1 + 1)}
        assert {(n, c) for n, c, _, _ in report.ratio} == {
            (n, c) for n in range(1, 26) for c in range(1, n + 1)
        }

    def test_sampling_is_deterministic(self):
        assert lemma_margins(14) == lemma_margins(14)

    def test_ratio_certificate_for_every_n(self):
        # The argument in `counting`'s docstring: R(m) = A(m+1)/A(m) has
        # R(m+1)/R(m) = 3(3m+2)(3m+4) / (4(2m+1)(2m+3)) > 3/2.  Polynomials
        # in m are coefficient lists, constant term first.
        def times(f, g):
            out = [0] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    out[i + j] += a * b
            return out

        upper = [6 * c for c in times([2, 3], [4, 3])]  # 2 * 3(3m+2)(3m+4)
        lower = [12 * c for c in times([1, 2], [3, 2])]  # 3 * 4(2m+1)(2m+3)
        assert [u - w for u, w in zip(upper, lower)] == [12, 12, 6]  # 6m^2 + 12m + 12
        ratio = [Fraction(asm_number(m + 1), asm_number(m)) for m in range(202)]
        assert ratio[0] == 1
        for m in range(201):
            step = ratio[m + 1] / ratio[m]
            assert step == Fraction(3 * (3 * m + 2) * (3 * m + 4), 4 * (2 * m + 1) * (2 * m + 3))
            assert step > Fraction(3, 2)


class TestBleherFokin:
    def test_positive_and_finite(self):
        for n in range(2, 17):
            est = bleher_fokin_estimate(n)
            assert est > 0 and math.isfinite(est)

    def test_trajectory_stabilizes(self):
        # drift diagnostic: consecutive ratios approach 1 through n = 8..16
        # (derivation run: estimate ~ 0.7746 with ratios within 3e-5 of 1)
        estimates = {n: bleher_fokin_estimate(n) for n in range(8, 17)}
        ratios = [estimates[n + 1] / estimates[n] for n in range(8, 16)]
        assert all(abs(r - 1) < 1e-3 for r in ratios)
        assert abs(ratios[-1] - 1) <= abs(ratios[0] - 1)
        assert abs(estimates[16] - estimates[12]) / estimates[16] < 0.005
