from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sploop import (
    DENSITY_TARGET,
    CapacityError,
    DomainError,
    build_sieve,
    density_table,
    digit1_constant,
    digit_census,
    gap_histogram,
    hurwitz_zeta2,
)
from sploop import cachefile

from _oracles import digit1_constant_slow


class TestHurwitzZeta:
    def test_closed_form_at_one(self):
        ev = hurwitz_zeta2(1.0)
        assert ev.value == pytest.approx(math.pi**2 / 6, abs=1e-10)
        assert ev.abs_error_bound <= 1e-10

    def test_closed_form_at_half(self):
        ev = hurwitz_zeta2(0.5)
        assert ev.value == pytest.approx(math.pi**2 / 2, abs=1e-10)

    def test_recurrence_at_paper_offsets(self):
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            drop = hurwitz_zeta2(a).value - hurwitz_zeta2(a + 1).value
            assert drop == pytest.approx(a**-2, abs=1e-10), a

    def test_certified_bound_holds_where_value_is_known(self):
        for a, exact in ((1.0, math.pi**2 / 6), (0.5, math.pi**2 / 2),
                         (2.0, math.pi**2 / 6 - 1)):
            ev = hurwitz_zeta2(a)
            assert abs(ev.value - exact) <= ev.abs_error_bound

    def test_domain(self):
        for a in (0.0, -0.5, 2.5):
            with pytest.raises(DomainError):
                hurwitz_zeta2(a)

    def test_boundary_a_two(self):
        # zeta(2, 2) = zeta(2) - 1, the density target
        assert hurwitz_zeta2(2.0).value == pytest.approx(DENSITY_TARGET, abs=1e-10)

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100)
    def test_recurrence_everywhere(self, a):
        drop = hurwitz_zeta2(a).value - hurwitz_zeta2(a + 1).value
        assert drop == pytest.approx(a**-2, abs=1e-9)

    @given(st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=50)
    def test_positive_with_small_bound(self, a):
        ev = hurwitz_zeta2(a)
        assert ev.value > 0
        assert ev.abs_error_bound <= 1e-10


class TestDigit1Constant:
    def test_against_direct_summation(self):
        assert digit1_constant() == pytest.approx(
            digit1_constant_slow(10**7), abs=1e-8)

    def test_frozen_value(self):
        assert digit1_constant() == pytest.approx(0.2860881320, abs=1e-9)

    def test_positive(self):
        assert digit1_constant() > 0

    def test_formula_shape(self):
        # wiring check: with every offset replaced by 1 the formula
        # collapses to (4 * zeta(2) - 4) / 400
        z = hurwitz_zeta2(1.0).value
        assert (4 * z - 4) / 400 == pytest.approx(
            (math.pi**2 / 6 - 1) / 100, abs=1e-12)


class TestDensity:
    def test_target_constant(self):
        assert DENSITY_TARGET == pytest.approx(0.6449340668, abs=1e-10)

    def test_row_at_100(self, sieve_1e4):
        row = density_table(sieve_1e4, [100])[0]
        assert row.sp_count == 21
        assert row.ratio == pytest.approx(21 * math.log(100) / 100, abs=1e-12)
        assert row.ratio == pytest.approx(0.9670857390574993, abs=1e-12)
        assert row.abs_error == pytest.approx(abs(row.ratio - DENSITY_TARGET),
                                              abs=1e-15)

    def test_error_shrinks_over_decades(self, sieve_1e7):
        rows = density_table(sieve_1e7, [10**5, 10**6, 10**7])
        assert [r.sp_count for r in rows] == [9036, 69179, 553539]
        assert rows[-1].abs_error < rows[0].abs_error

    def test_errors(self, sieve_1e4):
        with pytest.raises(DomainError):
            density_table(sieve_1e4, [2])
        with pytest.raises(CapacityError):
            density_table(sieve_1e4, [10**5])


class TestDigitCensus:
    def test_census_at_117(self, sieve_1e4):
        census = digit_census(sieve_1e4, 117)
        assert census.counts == {0: 3, 1: 0, 2: 6, 3: 1, 4: 1,
                                 5: 2, 6: 2, 7: 2, 8: 7, 9: 1}
        assert sum(census.counts.values()) == 25
        assert census.counts[1] == 0

    def test_empty_below_first_sp(self, sieve_1e4):
        census = digit_census(sieve_1e4, 7)
        assert all(c == 0 for c in census.counts.values())

    def test_partition(self, sieve_1e5):
        census = digit_census(sieve_1e5, 10**5)
        assert sum(census.counts.values()) == sieve_1e5.sp_count(10**5)
        assert set(census.counts) == set(range(10))

    def test_modeled_digit1_count(self, sieve_1e5):
        census = digit_census(sieve_1e5, 10**5)
        expected = digit1_constant() * 10**5 / math.log(10**5)
        assert census.digit1_target == pytest.approx(expected, rel=1e-12)

    def test_errors(self, sieve_1e4):
        with pytest.raises(CapacityError):
            digit_census(sieve_1e4, 10**5)


class TestDigitCensusOnBits:
    def test_every_limit_of_one_view(self):
        bits = cachefile.QBits(2000, cachefile.build_payload(2000))
        sieve = build_sieve(2000)
        for limit in range(2001):
            assert digit_census(bits, limit) == digit_census(sieve, limit), limit

    def test_one_mask_period_up_to_1e5(self, sieve_1e5):
        # The mask of the numbers that end in 0 repeats every 40 bits.
        bits = cachefile.QBits(10**5, cachefile.build_payload(10**5))
        for limit in range(10**5 - 39, 10**5 + 1):
            assert digit_census(bits, limit) == digit_census(sieve_1e5, limit), limit


class TestGapHistogram:
    def test_histogram_at_117(self, index_1e4):
        hist = gap_histogram(index_1e4, 117)
        assert hist == {1: 5, 2: 3, 3: 2, 4: 6, 5: 1, 6: 2,
                        7: 1, 9: 1, 11: 1, 12: 2}
        assert sum(hist.values()) == 24

    def test_single_gap(self, index_1e4):
        assert gap_histogram(index_1e4, 12) == {4: 1}

    def test_empty(self, index_1e4):
        assert gap_histogram(index_1e4, 7) == {}

    def test_total(self, index_1e5, sieve_1e5):
        hist = gap_histogram(index_1e5, 10**5)
        assert sum(hist.values()) == sieve_1e5.sp_count(10**5) - 1

    def test_errors(self, index_1e4):
        with pytest.raises(CapacityError):
            gap_histogram(index_1e4, 10**5)
