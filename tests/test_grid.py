import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetdim import DigitPair, DigitWord, validate_ifs
from carpetdim.errors import (
    BaseTooSmallError,
    DigitOutOfRangeError,
    DuplicatePairError,
    NotProperSubsetError,
    TooFewMapsError,
)
from carpetdim.grid import pair_value

from conftest import VICSEK_PAIRS


class TestValidateIfs:
    def test_vicsek_valid(self, vicsek):
        assert vicsek.base == 3
        assert len(vicsek.digits) == 5

    def test_full_grid_rejected(self):
        with pytest.raises(NotProperSubsetError):
            validate_ifs(2, [(u, v) for u in range(2) for v in range(2)])

    def test_corner_valid(self, corner):
        assert len(corner.digits) == 3

    def test_base_too_small(self):
        with pytest.raises(BaseTooSmallError):
            validate_ifs(1, [(0, 0)])

    def test_too_few_maps(self):
        with pytest.raises(TooFewMapsError):
            validate_ifs(3, [(0, 0)])

    def test_digit_out_of_range(self):
        with pytest.raises(DigitOutOfRangeError):
            validate_ifs(3, [(0, 0), (3, 1)])

    def test_duplicate_pair(self):
        with pytest.raises(DuplicatePairError):
            validate_ifs(3, [(0, 0), (0, 0), (1, 1)])


class TestRowsAndColumns:
    def test_vicsek_row_zero(self, vicsek):
        assert vicsek.row_set(0) == {DigitPair(0, 0), DigitPair(2, 0)}

    def test_vicsek_row_one(self, vicsek):
        assert vicsek.row_set(1) == {DigitPair(1, 1)}

    def test_rows_partition_digits(self, vicsek):
        union = set()
        for a in range(3):
            union |= vicsek.row_set(a)
        assert union == vicsek.digits

    def test_row_digit_out_of_range(self, vicsek):
        with pytest.raises(DigitOutOfRangeError):
            vicsek.row_set(3)


@st.composite
def grid_systems(draw):
    b = draw(st.sampled_from([2, 3]))
    cells = [(u, v) for u in range(b) for v in range(b)]
    size = draw(st.integers(min_value=2, max_value=b * b - 1))
    pairs = draw(st.permutations(cells))[:size]
    return validate_ifs(b, pairs)


@given(grid_systems())
@settings(max_examples=60, deadline=None)
def test_row_and_column_sizes_sum_to_digit_count(ifs):
    assert sum(len(ifs.row_set(a)) for a in range(ifs.base)) == len(ifs.digits)
    assert sum(map(ifs.row_size, range(ifs.base))) == len(ifs.digits)


class TestAttractorDimension:
    def test_vicsek(self, vicsek):
        expected = math.log(5) / math.log(3)
        assert abs(vicsek.attractor_dimension() - expected) < 1e-15

    def test_full_row_gives_one(self):
        ifs = validate_ifs(3, [(0, 0), (1, 0), (2, 0)])
        assert abs(ifs.attractor_dimension() - 1.0) < 1e-15

    def test_corner_gives_one(self, corner):
        assert abs(corner.attractor_dimension() - 1.0) < 1e-15


class TestProjectPrefix:
    """The base-b square of a coding prefix of length m has its corner at
    pair_value(prefix) / b^m."""

    def test_single_zero_digit(self, vicsek):
        assert pair_value([(0, 0)], vicsek.base) == (0, 0)

    def test_two_digits(self, vicsek):
        # corner (5/9, 5/9)
        assert pair_value([(1, 1), (2, 2)], vicsek.base) == (5, 5)

    def test_empty_prefix_is_unit_square(self, vicsek):
        assert pair_value([], vicsek.base) == (0, 0)

    def test_sibling_prefixes_get_distinct_boxes(self, vicsek):
        import itertools

        prefixes = list(itertools.product(sorted(vicsek.digits), repeat=3))
        corners = {pair_value(p, vicsek.base) for p in prefixes}
        assert len(corners) == len(prefixes)


@given(st.integers(2, 12), st.data())
@settings(max_examples=80, deadline=None)
def test_pair_value_reads_each_axis_as_a_numeral(base, data):
    # lengths on both sides of the split into halves, as a tuple, a list or an iterator
    digit = st.integers(0, base - 1)
    size = data.draw(st.integers(0, 200))
    pairs = data.draw(st.lists(st.tuples(digit, digit), min_size=size, max_size=size))
    form = data.draw(st.sampled_from([tuple, list, iter]))
    expected = tuple(
        int("".join("0123456789ab"[d] for d in axis) or "0", base) for axis in ([u for u, _ in pairs], [v for _, v in pairs])
    )
    assert pair_value(form(pairs), base) == expected


def test_a_long_period_projects_in_quasi_linear_time():
    # one multiply-add per digit on a growing integer took 4.3 s at 2 * 10^5 pairs
    rng = random.Random(5)
    pairs = sorted(map(DigitPair._make, VICSEK_PAIRS))
    word = DigitWord.periodic((), tuple(rng.choice(pairs) for _ in range(4 * 10**5)))
    start = time.perf_counter()
    x, y, den, width = word.hull(3)
    assert time.perf_counter() - start < 3.0
    assert (den, width) == (3 ** len(word.period) - 1, 0) and 0 <= x <= den and 0 <= y <= den


@st.composite
def vicsek_words(draw):
    pairs = st.sampled_from(sorted(VICSEK_PAIRS))
    pre = draw(st.lists(pairs, max_size=4))
    per = draw(st.lists(pairs, min_size=1, max_size=4))
    return DigitWord.periodic(pre, per)


@given(vicsek_words(), st.integers(min_value=0, max_value=30))
@settings(max_examples=150, deadline=None)
def test_shift_conjugates_with_digit_shift_of_coordinates(word, n):
    # projecting the shifted word equals stripping n digits from the projection
    b = 3
    x, y = word.point(b)
    xs, ys = word.shift(n).point(b)
    head_x = sum(word.pair_at(i).u * b ** (n - i) for i in range(1, n + 1))
    head_y = sum(word.row_digit(i) * b ** (n - i) for i in range(1, n + 1))
    assert xs == x * b ** n - head_x
    assert ys == y * b ** n - head_y
