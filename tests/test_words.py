import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _ref_normal_form(pre, per):
    """`DigitWord`'s minimal form as it was first written: the shortest
    repeating period, then one rotation per trailing preperiod digit that
    repeats the cycle."""
    pre, per = tuple(pre), tuple(per)
    per = next(per[:d] for d in range(1, len(per) + 1) if per[:d] * (len(per) // d) == per)
    while pre and pre[-1] == per[-1]:
        per = (per[-1],) + per[:-1]
        pre = pre[:-1]
    return pre, per


_PAIRS = st.sampled_from([(0, 0), (0, 1), (1, 0)])


@given(st.lists(_PAIRS, max_size=14), st.lists(_PAIRS, min_size=1, max_size=6))
@settings(max_examples=400, deadline=None)
def test_normal_form_matches_the_rotation_loop(pre, per):
    word = DigitWord.periodic(pre, per)
    assert (word.preperiod, word.period) == _ref_normal_form(pre, per)


def test_long_repeating_preperiod_is_absorbed_in_one_pass():
    # the rotation loop re-sliced both tuples per absorbed digit: 0.9 s at 2 * 10^4
    start = time.perf_counter()
    word = DigitWord.periodic([(0, 0)] * 300000, [(0, 0)])
    assert time.perf_counter() - start < 5.0
    assert (word.preperiod, word.period) == ((), ((0, 0),))


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



def test_periodic_hull_divided_by_den_is_the_point():
    # 0.A(B)(B)... = (AB - A) / (b^|A| (b^|B| - 1)), read per axis
    pre, per = [(0, 2), (1, 0)], [(2, 1), (0, 0), (1, 1)]
    w = DigitWord.periodic(pre, per)
    x, y, den, width = w.hull(3)
    assert width == 0
    assert (Fraction(x, den), Fraction(y, den)) == w.point(3)
    for axis, value in enumerate((x, y)):
        a = int("".join(str(p[axis]) for p in pre), 3)
        ab = int("".join(str(p[axis]) for p in pre + per), 3)
        assert Fraction(value, den) == Fraction(ab - a, 3 ** 2 * (3 ** 3 - 1))


def test_truncation_hull_is_its_grid_square():
    w = DigitWord.truncation([(2, 0), (0, 1), (1, 2)])
    assert w.hull(3) == (2 * 9 + 1, 1 * 3 + 2, 3 ** 3, 1)
    assert DigitWord.truncation([]).hull(3) == (0, 0, 1, 1)


def test_high_digit_tail_and_terminating_twin_share_a_point():
    # (0.0222..., 0.1222...) = (0.1000..., 0.2000...) = (1/3, 2/3) in base 3
    tail = DigitWord.periodic([(0, 1)], [(2, 2)])
    twin = DigitWord.periodic([(1, 2)], [(0, 0)])
    assert tail.point(3) == twin.point(3) == (Fraction(1, 3), Fraction(2, 3))
    (tx, ty, tden, _), (wx, wy, wden, _) = tail.hull(3), twin.hull(3)
    assert tx * wden == wx * tden and ty * wden == wy * tden
