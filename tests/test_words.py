from fractions import Fraction

import pytest

from carpetdim import DigitWord
from carpetdim.errors import InsufficientDepthError


def test_preperiod_absorbed_into_cycle():
    a = DigitWord.periodic([(1, 1), (0, 0)], [(0, 0)])
    b = DigitWord.periodic([(1, 1)], [(0, 0)])
    assert a == b


def test_period_reduced_to_primitive():
    a = DigitWord.periodic([], [(0, 0), (0, 0)])
    assert a.period == ((0, 0),)


def test_rotation_absorption():
    # 0.a(ba)(ba)... = 0.(ab)(ab)...
    a = DigitWord.periodic([(1, 1)], [(2, 2), (1, 1)])
    assert a.preperiod == ()
    assert a.period == ((1, 1), (2, 2))


def test_shift_of_fixed_point():
    w = DigitWord.periodic([], [(0, 0)])
    assert w.shift(7) == w


def test_shift_drops_preperiod():
    w = DigitWord.periodic([(1, 1)], [(0, 0)])
    assert w.shift(1) == DigitWord.periodic([], [(0, 0)])


def test_shift_zero_is_identity():
    w = DigitWord.periodic([(1, 1), (2, 2)], [(0, 2), (2, 0)])
    assert w.shift(0) == w


def test_shift_into_cycle_rotates():
    w = DigitWord.periodic([], [(0, 0), (2, 2), (1, 1)])
    assert w.shift(4).pair_at(1) == (2, 2)


def test_pair_at_spans_preperiod_boundary():
    w = DigitWord.periodic([(1, 1)], [(0, 2), (2, 0)])
    assert [tuple(w.pair_at(i)) for i in range(1, 6)] == [
        (1, 1), (0, 2), (2, 0), (0, 2), (2, 0)
    ]


def test_truncation_depth_enforced():
    w = DigitWord.truncation([(0, 0), (1, 1)])
    assert w.truncation_depth == 2
    with pytest.raises(InsufficientDepthError):
        w.pair_at(3)
    with pytest.raises(InsufficientDepthError):
        w.shift(3)
    assert w.shift(1).preperiod == ((1, 1),)


def test_point_of_center_word():
    w = DigitWord.periodic([], [(1, 1)])
    assert w.point(3) == (Fraction(1, 2), Fraction(1, 2))


def test_point_with_preperiod():
    w = DigitWord.periodic([(0, 0)], [(2, 2)])
    assert w.point(3) == (Fraction(1, 3), Fraction(1, 3))

