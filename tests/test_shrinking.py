import decimal
import itertools
import math
import time
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carpetdim.grid as grid
import carpetdim.shrinking as shrinking
from carpetdim import (
    DigitWord,
    GridIFS,
    RateSchedule,
    axis_digits_admissible,
    axis_window_patterns,
    closed_form_for,
    dimension_report,
    digit_frequencies,
    frequency_slice_value,
    make_target,
    max_row_counts,
    row_agreement_length,
    stage_exponent,
    target_from_word,
    validate_ifs,
    window_hit,
)
from carpetdim.errors import InsufficientDepthError, ScheduleError

LOG2 = math.log(2)


def _origin(ifs):
    return make_target(ifs, 0, 0)


class TestAxisWindowPatterns:
    def test_all_zero_window(self, vicsek):
        pats = axis_window_patterns(vicsek, (0, 0, 0, 0), 5)
        kinds = {(p.deviate_pos, p.deviate_sign) for p in pats}
        assert kinds == {(None, None), (4, 1)}

    def test_all_high_window(self, vicsek):
        pats = axis_window_patterns(vicsek, (2, 2, 2), 4)
        kinds = {(p.deviate_pos, p.deviate_sign) for p in pats}
        assert kinds == {(None, None), (3, -1)}

    def test_length_two_middle_digit(self, vicsek):
        pats = axis_window_patterns(vicsek, (1,), 2)
        assert len(pats) == 3
        digits = {p.digits for p in pats}
        assert digits == {(1,), (0,), (2,)}

    def test_trailing_zero_run_enables_interior_deviation(self, vicsek):
        pats = axis_window_patterns(vicsek, (1, 0, 0), 4)
        dev = {(p.deviate_pos, p.deviate_sign): p.digits for p in pats if p.deviate_pos}
        assert dev == {(1, -1): (0, 2, 2), (3, 1): (1, 0, 1)}

    def test_empty_window(self, vicsek):
        pats = axis_window_patterns(vicsek, (), 1)
        assert len(pats) == 1 and pats[0].deviate_pos is None


@st.composite
def axis_cases(draw):
    b = draw(st.sampled_from([2, 3]))
    length = draw(st.integers(min_value=1, max_value=6))
    digits = tuple(draw(st.integers(min_value=0, max_value=b - 1)) for _ in range(length - 1))
    return b, digits, length


@given(axis_cases())
@settings(max_examples=200, deadline=None)
def test_patterns_enumerate_exactly_the_admissible_strings(case):
    # oracle: test every digit string against the defining predicate
    b, target, length = case
    ifs = validate_ifs(b, [(0, 0), (b - 1, b - 1)])
    admissible = {
        w
        for w in itertools.product(range(b), repeat=length - 1)
        if axis_digits_admissible(b, target, w)
    }
    from_patterns = {p.digits for p in axis_window_patterns(ifs, target, length)}
    assert from_patterns == admissible


class TestWindowHit:
    def test_exact_continuation_hits(self, vicsek, linear12):
        target = _origin(vicsek)
        word = DigitWord.periodic([(1, 1), (2, 2), (0, 2)], [(0, 0)])
        assert window_hit(vicsek, target, linear12, 3, word)

    def test_double_deviation_misses(self, vicsek, linear12):
        target = _origin(vicsek)
        # offset digits start at 2 = target digit 0 plus two
        word = DigitWord.periodic([(0, 0)], [(2, 2)])
        assert not window_hit(vicsek, target, linear12, 1, word)

    def test_deviation_with_carry_tail_hits(self, vicsek):
        # target digits (2,0,0,...) on both axes; the word steps down once at
        # the window start and carries high digits after
        target = target_from_word(vicsek, DigitWord.periodic([(2, 2)], [(0, 0)]))
        sch = RateSchedule.linear(1, 2)
        n = 3
        word = DigitWord.periodic(
            [(0, 0)] * 3 + [(1, 1)] + [(2, 2)] * 4, [(0, 0)]
        )
        assert window_hit(vicsek, target, sch, n, word)

    def test_truncation_needs_full_window(self, vicsek, linear12):
        target = _origin(vicsek)
        word = DigitWord.truncation([(0, 0)] * 8)
        with pytest.raises(InsufficientDepthError):
            window_hit(vicsek, target, linear12, 3, word)  # needs depth 9


class TestAgreementLength:
    def test_origin_agreement(self, vicsek, linear12):
        target = _origin(vicsek)
        for n in (2, 5, 9):
            assert row_agreement_length(vicsek, target, linear12, n) == 2 * n - 2

    def test_corner_origin_has_no_realizable_deviation(self, corner, linear12):
        # stepping off a zero row would need the empty middle row
        target = _origin(corner)
        assert row_agreement_length(corner, target, linear12, 4) == 8 - 1

    def test_ratio_approaches_vertical_rate(self, vicsek, linear12):
        target = target_from_word(
            vicsek, DigitWord.periodic([], [(0, 0), (1, 1), (2, 2)])
        )
        k = row_agreement_length(vicsek, target, linear12, 400)
        assert abs(k / 400 - 2.0) <= 0.05

    def test_needs_window_of_two(self, vicsek):
        sch = RateSchedule.from_tables([1], [1])
        with pytest.raises(ScheduleError):
            row_agreement_length(vicsek, _origin(vicsek), sch, 1)


class TestMaxRowCounts:
    def test_frozen_origin_value(self, vicsek, linear12):
        target = _origin(vicsek)
        counts = max_row_counts(vicsek, target, linear12, 10, 15)
        assert counts == (6, 0, 0)
        assert abs(vicsek.weighted_row_count(counts) - 6 * LOG2) < 1e-12

    def test_single_position(self, vicsek, linear12):
        target = _origin(vicsek)
        counts = max_row_counts(vicsek, target, linear12, 5, 5)
        assert counts == (1, 0, 0)

    def test_nondecreasing_in_j(self, vicsek, linear12):
        target = target_from_word(
            vicsek, DigitWord.periodic([], [(0, 2), (2, 0), (1, 1)])
        )
        n = 7
        values = [
            vicsek.weighted_row_count(max_row_counts(vicsek, target, linear12, n, j))
            for j in range(7, 15)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_periodic_target_linear_growth(self, vicsek, linear12):
        # balanced cycle: row weight per window position is (2/3) log 2
        target = target_from_word(
            vicsek, DigitWord.periodic([], [(0, 0), (1, 1), (2, 2)])
        )
        n = 200
        a = vicsek.weighted_row_count(max_row_counts(vicsek, target, linear12, n, 2 * n))
        per_position = frequency_slice_value(vicsek, digit_frequencies(vicsek, target.word))
        expected = n * per_position * math.log(3)
        assert abs(a - expected) / n <= 0.05


class TestStageExponent:
    def test_converges_to_closed_form(self, vicsek, linear12):
        target = _origin(vicsek)
        rec = stage_exponent(vicsek, target, linear12, 60)
        assert abs(rec.value - 0.6986344247631281) <= 0.02
        assert rec.argmin_j == 120

    def test_degenerate_schedule_single_depth(self, vicsek):
        sch = RateSchedule.linear(2, 2)
        target = _origin(vicsek)
        rec = stage_exponent(vicsek, target, sch, 5)
        assert rec.argmin_j == 10
        a = vicsek.weighted_row_count(rec.row_counts)
        expected = (5 * math.log(5) + a) / (15 * math.log(3))
        assert abs(rec.value - expected) < 1e-12

    def test_bounds_and_argmin_range(self, vicsek, linear12):
        target = _origin(vicsek)
        gamma = vicsek.attractor_dimension()
        for n in range(1, 30):
            rec = stage_exponent(vicsek, target, linear12, n)
            assert 0 < rec.value <= gamma + 1e-12
            assert rec.lam <= rec.argmin_j <= rec.xi

    def test_empty_vertical_window(self, vicsek):
        # xi(n) = 1 constrains nothing: the single depth is a free slot
        sch = RateSchedule.from_tables([1], [1])
        target = _origin(vicsek)
        rec = stage_exponent(vicsek, target, sch, 1)
        assert rec.argmin_j == 1
        assert rec.row_counts == (1, 0, 0)
        expected = (math.log(5) + math.log(2)) / (2 * math.log(3))
        assert rec.value == pytest.approx(expected, abs=1e-12)

    def test_exact_tie_resolves_to_smallest_depth(self):
        # two equal-size rows and lam(1) = n + 1 make every depth give the
        # same quotient exactly; the record must settle on the smallest j
        ifs = validate_ifs(3, [(0, 0), (1, 0), (0, 1), (1, 1)])
        target = target_from_word(ifs, DigitWord.periodic([], [(0, 0)]))
        sch = RateSchedule.from_tables([2], [4])
        rec = stage_exponent(ifs, target, sch, 1)
        assert rec.argmin_j == 2
        assert rec.value == pytest.approx(math.log(2) / math.log(3), abs=1e-12)

    def test_block_target_jumps_at_block_boundary(self, corner, linear12):
        # stage windows inside a high-digit block see no row entropy; windows
        # inside a zero block see the full bottom row
        from carpetdim import alternating_block_word

        target = target_from_word(corner, alternating_block_word(depth=80))
        low = stage_exponent(corner, target, linear12, 8).value
        high = stage_exponent(corner, target, linear12, 16).value
        assert high - low > 0.1


@st.composite
def random_stage_cases(draw):
    b = draw(st.sampled_from([2, 3]))
    cells = [(u, v) for u in range(b) for v in range(b)]
    size = draw(st.integers(min_value=2, max_value=b * b - 1))
    pairs = draw(st.permutations(cells))[:size]
    ifs = validate_ifs(b, pairs)
    digits = sorted(ifs.digits)
    per = draw(st.lists(st.sampled_from(digits), min_size=1, max_size=3))
    pre = draw(st.lists(st.sampled_from(digits), max_size=2))
    target = target_from_word(ifs, DigitWord.periodic(pre, per))
    n = draw(st.integers(min_value=1, max_value=4))
    lam = draw(st.integers(min_value=1, max_value=4))
    xi = draw(st.integers(min_value=lam, max_value=6))
    table = RateSchedule.from_tables([lam] * 4, [xi] * 4)
    return ifs, target, table, n


def _recounted(ifs, target, schedule, n, j):
    """Reference for the stage kernel: walk every realizable pattern's digits
    over window positions lam..j. Returns each pattern's counts and the first
    counts with the largest row product."""
    lam, xi = schedule.lam(n), schedule.xi(n)
    realizable = shrinking.StageKernel(ifs, target, schedule, n).patterns
    every, best, best_prod = [], None, -1
    for v in realizable:
        counts = [0] * ifs.base
        for i in range(lam - 1, min(j, xi - 1)):
            counts[v.digits[i]] += 1
        counts[ifs.max_row_digit] += max(0, j - xi + 1)
        every.append(tuple(counts))
        prod = math.prod(ifs.row_size(a) ** m for a, m in enumerate(counts))
        if prod > best_prod:
            best, best_prod = tuple(counts), prod
    return every, best


@given(random_stage_cases())
@settings(max_examples=120, deadline=None)
def test_stage_invariants_on_random_systems(case):
    ifs, target, schedule, n = case
    gamma = ifs.attractor_dimension()
    rec = stage_exponent(ifs, target, schedule, n)
    assert 0 < rec.value <= gamma + 1e-12
    assert rec.lam <= rec.argmin_j <= rec.xi
    values = [
        ifs.weighted_row_count(max_row_counts(ifs, target, schedule, n, j))
        for j in range(rec.lam, rec.xi + 1)
    ]
    assert all(b2 >= a - 1e-12 for a, b2 in zip(values, values[1:]))
    kernel = shrinking.StageKernel(ifs, target, schedule, n)
    for j in range(rec.lam, rec.xi + 3):
        every, best = _recounted(ifs, target, schedule, n, j)
        assert [kernel.counts(i, j) for i in range(len(every))] == every, j
        assert kernel.best(j)[1] == best, j


def _cross_power_compare(ifs, n, j1, prod1, j2, prod2):
    """Big-int reference for the stage order: sign of value(j1) - value(j2),
    value(j) = log(#J^n * prod) / ((n + j) log b), by cross-raising."""
    lhs = (len(ifs.digits) ** n * prod1) ** (n + j2)
    rhs = (len(ifs.digits) ** n * prod2) ** (n + j1)
    return (lhs > rhs) - (lhs < rhs)


def _random_ifs(draw, b):
    cells = [(u, v) for u in range(b) for v in range(b)]
    size = draw(st.integers(min_value=2, max_value=b * b - 1))
    return validate_ifs(b, draw(st.permutations(cells))[:size])


def _row_counts(draw, ifs, total=None):
    """A count vector on the inhabited rows, summing to `total` if given."""
    rows = [a for a in range(ifs.base) if ifs.row_size(a)]
    counts = [0] * ifs.base
    if total is None:
        for a in rows:
            counts[a] = draw(st.integers(min_value=0, max_value=40))
    else:
        for _ in range(total):
            counts[draw(st.sampled_from(rows))] += 1
    return tuple(counts)


@st.composite
def stage_comparisons(draw):
    """Two depths of one stage with their row counts. Half the cases draw a
    random system and random counts; the other half draw a uniform-fibre
    system (r rows of r pairs each, so #J = r^2) with j - n counts at depth
    j, where every depth's value is exactly log r / log b: an exact tie."""
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        b = draw(st.integers(min_value=2, max_value=6))
        ifs = _random_ifs(draw, b)
        j1, j2 = draw(st.integers(1, 30)), draw(st.integers(1, 30))
        return ifs, n, j1, _row_counts(draw, ifs), j2, _row_counts(draw, ifs)
    b = draw(st.integers(min_value=3, max_value=6))
    r = draw(st.integers(min_value=2, max_value=b - 1))
    rows = draw(st.permutations(range(b)))[:r]
    ifs = validate_ifs(b, [(u, v) for v in rows for u in draw(st.permutations(range(b)))[:r]])
    j1, j2 = draw(st.integers(n, n + 20)), draw(st.integers(n, n + 20))
    return ifs, n, j1, _row_counts(draw, ifs, j1 - n), j2, _row_counts(draw, ifs, j2 - n)


@given(stage_comparisons())
@settings(max_examples=300, deadline=None)
def test_exponent_vector_order_matches_big_int_order(case):
    ifs, n, j1, c1, j2, c2 = case
    x1, x2 = ifs.exponents(c1, n), ifs.exponents(c2, n)
    assert math.prod(p**e for p, e in zip(ifs.primes, x1)) == (
        len(ifs.digits) ** n * ifs.row_product(c1)
    )
    p1, p2 = ifs.row_product(c1), ifs.row_product(c2)
    assert shrinking._depth_sign(ifs, n, j1, x1, j2, x2) == _cross_power_compare(
        ifs, n, j1, p1, j2, p2
    )
    assert shrinking._product_exceeds(ifs, c1, c2) == (p1 > p2)
    assert shrinking._product_exceeds(ifs, c2, c1) == (p2 > p1)


@given(
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]), min_size=1,
             max_size=4, unique=True).map(sorted),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_log_sign_matches_exact_rationals(primes, data):
    weight = st.integers(-300, 300) | st.integers(-10**5, 10**5)
    w = data.draw(st.lists(weight, min_size=len(primes), max_size=len(primes)))
    value = math.prod(Fraction(p) ** e for p, e in zip(primes, w))
    ifs = SimpleNamespace(primes=tuple(primes))
    assert GridIFS.log_sign(ifs, w) == (value > 1) - (value < 1)
    assert GridIFS.log_sign(ifs, [0] * len(primes)) == 0
    # an infinite rounding bound sends every nonzero sign to the big-integer powers
    with mock.patch.object(grid, "_SIGN_ROUNDING", math.inf):
        assert GridIFS.log_sign(ifs, w) == (value > 1) - (value < 1)


def _power_sign(primes, w):
    """The sign of prod_p p^w_p - 1 by big-integer powers alone."""
    gain = math.prod(p**x for p, x in zip(primes, w) if x > 0)
    loss = math.prod(p**-x for p, x in zip(primes, w) if x < 0)
    return (gain > loss) - (gain < loss)


# convergents q/p of log 3 / log 2: 2^q against 3^p, ever closer ties
_LOG3_LOG2_CONVERGENTS = [(3, 2), (8, 5), (19, 12), (65, 41), (84, 53), (485, 306), (1054, 665),
                          (24727, 15601), (50508, 31867), (125743, 79335), (176251, 111202),
                          (301994, 190537)]


@pytest.mark.parametrize("q, p", _LOG3_LOG2_CONVERGENTS)
def test_log_sign_decides_convergent_near_ties(q, p):
    ifs = SimpleNamespace(primes=(2, 3))
    for w in ([q, -p], [-q, p]):
        assert GridIFS.log_sign(ifs, w) == _power_sign((2, 3), w) != 0
        with mock.patch.object(grid, "_SIGN_ROUNDING", math.inf):
            assert GridIFS.log_sign(ifs, w) == _power_sign((2, 3), w)


# lattice-reduced near-ties inside the rounding bound, where even the correctly rounded sum
# of the rounded terms has the wrong sign
_FLOAT_WRONG_TIES = [
    ((2, 3, 5, 7), [-363, 32924, -17756, -3773]),
    ((2, 3, 5, 7, 11), [8880, 2733, 137, -2276, -2064]),
    ((2, 3, 5, 7, 11, 13), [178, 449, -439, -153, -140, 282]),
]


@pytest.mark.parametrize("primes, w", _FLOAT_WRONG_TIES)
def test_log_sign_sends_a_tie_inside_the_float_error_to_the_powers(primes, w):
    top = max(map(abs, w))
    total = math.fsum(x / top * math.log(p) for p, x in zip(primes, w))
    assert (total > 0) - (total < 0) != _power_sign(primes, w)
    assert GridIFS.log_sign(SimpleNamespace(primes=primes), w) == _power_sign(primes, w)


@pytest.mark.parametrize("w", [[10**7, -4306765], [-10**7, 4306765], [10**300, -(10**300 * 43067655807 // 10**11)]])
def test_log_sign_is_a_float_sum_away_from_ties(w):
    # big-integer powers alone took seconds at 10^7 and could never finish at 10^300;
    # the reference is the same sum in 400-digit `decimal`
    ifs = SimpleNamespace(primes=(2, 5))
    start = time.perf_counter()
    sign = GridIFS.log_sign(ifs, w)
    assert time.perf_counter() - start < 0.1
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        total = w[0] * decimal.Decimal(2).ln() + w[1] * decimal.Decimal(5).ln()
    assert sign == (total > 0) - (total < 0) != 0


@given(random_stage_cases(), st.randoms())
@settings(max_examples=100, deadline=None)
def test_exact_continuation_always_hits(case, rng):
    ifs, target, schedule, n = case
    xi = schedule.xi(n)
    digits = sorted(ifs.digits)
    head = [rng.choice(digits) for _ in range(n)]
    tail = [target.word.pair_at(i) for i in range(1, xi + 1)]
    word = DigitWord.truncation(head + tail)
    assert window_hit(ifs, target, schedule, n, word)


def test_generic_frequency_target_converges_at_400(vicsek, linear12):
    target = target_from_word(vicsek, DigitWord.periodic([], [(0, 0), (1, 1), (2, 2)]))
    cf, _, source = closed_form_for(vicsek, target, linear12)
    assert source == "frequency-closed-form"
    rec = stage_exponent(vicsek, target, linear12, 400)
    assert abs(rec.value - cf) <= 0.02


class TestDimensionReport:
    def test_origin_report(self, vicsek, linear12):
        target = _origin(vicsek)
        report = dimension_report(vicsek, target, linear12, range(1, 121))
        assert len(report.records) == 120
        cf, _, source = closed_form_for(vicsek, target, linear12)
        assert cf == pytest.approx(0.6986344247631281, abs=1e-12)
        assert source == "zero-row-target"
        # the sequence decreases toward the limit here
        assert not report.still_rising
        assert report.running_max == report.records[0].value
        assert report.limsup_estimate < report.running_max

    def test_estimate_gap_shrinks_with_range(self, vicsek, linear12):
        target = _origin(vicsek)
        short = dimension_report(vicsek, target, linear12, range(1, 101))
        long = dimension_report(vicsek, target, linear12, range(1, 401))
        cf, _, _ = closed_form_for(vicsek, target, linear12)
        assert abs(long.limsup_estimate - cf) < abs(short.limsup_estimate - cf)

    def test_subsampling_never_raises_the_estimate(self, vicsek, linear12):
        target = _origin(vicsek)
        full = dimension_report(vicsek, target, linear12, range(1, 61))
        sub = dimension_report(vicsek, target, linear12, range(3, 61, 3))
        assert sub.running_max <= full.running_max + 1e-15

    def test_smoke_table_schedule(self, vicsek):
        target = _origin(vicsek)
        sch = RateSchedule.from_tables([1, 2, 3], [2, 4, 6])
        report = dimension_report(vicsek, target, sch, [1, 2, 3])
        assert len(report.records) == 3
        running = -math.inf
        for rec in report.records:
            running = max(running, rec.value)
        assert report.running_max == running

    def test_rejects_decreasing_range(self, vicsek, linear12):
        with pytest.raises(ValueError):
            dimension_report(vicsek, _origin(vicsek), linear12, [3, 2])
