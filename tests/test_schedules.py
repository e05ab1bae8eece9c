from fractions import Fraction

import pytest

from carpetdim import RateSchedule
from carpetdim.errors import InvalidRatesError, ScheduleError


class TestLinear:
    def test_integer_rates(self):
        sch = RateSchedule.linear(1, 2)
        assert [sch.lam(n) for n in (1, 5, 9)] == [1, 5, 9]
        assert [sch.xi(n) for n in (1, 5, 9)] == [2, 10, 18]

    def test_fractional_rates_round_up(self):
        sch = RateSchedule.linear(Fraction(3, 2), Fraction(5, 2))
        assert [sch.lam(n) for n in (1, 2, 3)] == [2, 3, 5]
        assert [sch.xi(n) for n in (1, 2, 3)] == [3, 5, 8]

    def test_rate_order(self):
        with pytest.raises(InvalidRatesError):
            RateSchedule.linear(2, 1)
        with pytest.raises(InvalidRatesError):
            RateSchedule.linear(0, 1)


class TestTables:
    def test_lookup_and_bounds(self):
        sch = RateSchedule.from_tables([1, 2], [2, 3])
        assert sch.lam(2) == 2
        with pytest.raises(ScheduleError):
            sch.lam(3)

    def test_rowwise_validation(self):
        with pytest.raises(InvalidRatesError):
            RateSchedule.from_tables([2], [1])
        with pytest.raises(ScheduleError):
            RateSchedule.from_tables([], [])


class TestAlternating:
    def test_block_indexing(self):
        sch = RateSchedule.alternating([(1, 2), (2, 2)], block_base=4)
        # block 0: n in [1, 4); block 1: [4, 16); block 2: [16, 64)
        assert sch.lam(2) == 2 and sch.xi(2) == 4
        assert sch.lam(5) == 10 and sch.xi(5) == 10
        assert sch.lam(20) == 20 and sch.xi(20) == 40

    def test_bad_ratios(self):
        with pytest.raises(InvalidRatesError):
            RateSchedule.alternating([(2, 1)])
        with pytest.raises(ScheduleError):
            RateSchedule.alternating([])


class TestRangeValidation:
    def test_nondecreasing_required(self):
        sch = RateSchedule.from_tables([2, 1, 3], [3, 3, 3])
        with pytest.raises(ScheduleError):
            sch.validate_range([1, 2, 3])

    def test_long_constant_range_rejected(self):
        sch = RateSchedule(lambda n: 3, lambda n: 5, kind="custom")
        with pytest.raises(ScheduleError):
            sch.validate_range(list(range(1, 101)))
        sch.validate_range([1, 2, 3])  # short smoke ranges are fine

    def test_windows_are_returned_in_range_order(self):
        sch = RateSchedule.linear(Fraction(3, 2), 2)
        assert sch.validate_range([1, 4, 5]) == [(2, 2), (6, 8), (8, 10)]
