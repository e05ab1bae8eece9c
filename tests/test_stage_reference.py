"""The stage path against reference copies of its per-position form.

The references below walk the target's digits position by position: the
window predicate by its first mismatch and carry tail, the backward scan for
axis patterns, the row-by-row realizability test, and a float scan over
every depth j with the exact tie-break. The stage path reads the same
answers from base-b numerals and the per-target table
(`shrinking._target_rows`).
"""

import itertools
import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carpetdim.shrinking as shrinking
from carpetdim import (
    DigitWord,
    RateSchedule,
    target_from_word,
    validate_ifs,
    window_hit,
)
from carpetdim.errors import InsufficientDepthError
from carpetdim.shrinking import _TIE_EPS

# The references' patterns are whole digit strings; the stage path's are
# positions against the target, compared by `_shape`.
WindowPattern = namedtuple("WindowPattern", "deviate_pos deviate_sign digits")


def _shape(pattern):
    return pattern.deviate_pos, pattern.deviate_sign, pattern.digits


def _ref_axis_digits_admissible(base, target_digits, word_digits):
    """Single-axis window condition, walked digit by digit: an exact match,
    or one +-1 deviation at the first mismatch followed by a carry tail."""
    last = len(target_digits)
    mismatch = -1
    for i in range(last):
        if word_digits[i] != target_digits[i]:
            mismatch = i
            break
    if mismatch < 0:
        return True
    delta = word_digits[mismatch] - target_digits[mismatch]
    if delta == -1:
        return all(
            word_digits[i] - target_digits[i] == base - 1 for i in range(mismatch + 1, last)
        )
    if delta == 1:
        return all(
            target_digits[i] - word_digits[i] == base - 1 for i in range(mismatch + 1, last)
        )
    return False


@pytest.mark.parametrize("base, longest", [(2, 5), (3, 5), (4, 4)])
def test_numeral_predicate_matches_the_digit_walk(base, longest):
    pairs = 0
    for length in range(longest + 1):
        strings = list(itertools.product(range(base), repeat=length))
        for t in strings:
            for w in strings:
                assert shrinking.axis_digits_admissible(base, t, w) == (
                    _ref_axis_digits_admissible(base, t, w)
                ), (t, w)
            pairs += len(strings)
    assert pairs == sum(base ** (2 * k) for k in range(longest + 1))


def test_window_hit_matches_the_digit_walk():
    # a target whose column and row digits both leave room for deviations
    # down and up, on a table schedule with lam < xi; window_hit reads only
    # window positions 1..xi-1, so the prefix and the last pair stay fixed
    ifs = validate_ifs(3, [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (1, 0)])
    target = target_from_word(ifs, DigitWord.periodic([(1, 1), (2, 0)], [(1, 0), (2, 2)]))
    schedule = RateSchedule.from_tables([2, 3], [4, 5])
    for n in (1, 2):
        lam, xi = schedule.lam(n), schedule.xi(n)
        tcols, trows = target.col_digits(lam - 1), target.row_digits(xi - 1)
        hits = 0
        for window in itertools.product(ifs.sorted_digits(), repeat=xi - 1):
            word = DigitWord.truncation(((2, 2),) * n + window + ((0, 0),))
            expected = _ref_axis_digits_admissible(
                3, tcols, [p.u for p in window[: lam - 1]]
            ) and _ref_axis_digits_admissible(3, trows, [p.v for p in window])
            assert window_hit(ifs, target, schedule, n, word) == expected, window
            hits += expected
        assert hits


def _ref_axis_patterns(base, target_digits, length):
    t = tuple(target_digits)
    pats = [WindowPattern(None, None, t)]
    last = length - 1
    tail_zero = tail_high = True
    for j in range(last, 0, -1):
        d = t[j - 1]
        if d >= 1 and tail_zero:
            digits = t[: j - 1] + (d - 1,) + (base - 1,) * (last - j)
            pats.append(WindowPattern(j, -1, digits))
        if d <= base - 2 and tail_high:
            digits = t[: j - 1] + (d + 1,) + (0,) * (last - j)
            pats.append(WindowPattern(j, +1, digits))
        tail_zero = tail_zero and d == 0
        tail_high = tail_high and d == base - 1
        if not tail_zero and not tail_high:
            break
    return pats


def _ref_patterns(ifs, target, schedule, n):
    lam, xi = schedule.lam(n), schedule.xi(n)
    hpats = _ref_axis_patterns(ifs.base, target.col_digits(lam - 1), lam)
    vpats = _ref_axis_patterns(ifs.base, target.row_digits(xi - 1), xi)

    def paired(h, v):
        return all(map(ifs.digits.__contains__, zip(h.digits, v.digits)))

    realizable = [
        v for v in vpats
        if all(map(ifs.row_size, v.digits[lam - 1:])) and any(paired(h, v) for h in hpats)
    ]
    return hpats, vpats, realizable


def _ref_best(ifs, lam, xi, realizable, j):
    """First realizable pattern with the largest exact row product at depth
    j, by walking its digits."""
    best, best_prod = None, -1
    for v in realizable:
        counts = [0] * ifs.base
        for a in v.digits[lam - 1: min(j, xi - 1)]:
            counts[a] += 1
        counts[ifs.max_row_digit] += max(0, j - xi + 1)
        prod = math.prod(ifs.row_size(a) ** m for a, m in enumerate(counts))
        if prod > best_prod:
            best, best_prod = (v, tuple(counts)), prod
    return best


def _ref_argmin(ifs, n, lam, xi, realizable, upto):
    """Per-depth float scan; near-ties within _TIE_EPS settled exactly."""
    n_log_j, log_b = n * math.log(len(ifs.digits)), math.log(ifs.base)
    sums = [
        list(accumulate(map(ifs.row_log, v.digits[lam - 1:]), initial=0.0)) for v in realizable
    ]
    a_max = list(map(max, *sums)) if len(sums) > 1 else sums[0]
    a_max.append(a_max[-1] + math.log(ifs.max_row_size))
    best_j, best_val, best_vec = lam, math.inf, None
    for j in range(lam, upto + 1):
        v = (n_log_j + a_max[j - lam + 1]) / ((n + j) * log_b)
        if v < best_val - _TIE_EPS:
            best_j, best_val, best_vec = j, v, None
        elif v < best_val + _TIE_EPS:
            if best_vec is None:
                best_vec = ifs.exponents(_ref_best(ifs, lam, xi, realizable, best_j)[1], n)
            vec = ifs.exponents(_ref_best(ifs, lam, xi, realizable, j)[1], n)
            if shrinking._depth_sign(ifs, n, j, vec, best_j, best_vec) < 0:
                best_j, best_val, best_vec = j, v, vec
    return best_j, _ref_best(ifs, lam, xi, realizable, best_j)[1]


def _draw_ifs(draw, b):
    cells = [(u, v) for u in range(b) for v in range(b)]
    size = draw(st.integers(min_value=2, max_value=b * b - 1))
    return validate_ifs(b, draw(st.permutations(cells))[:size])


@st.composite
def stage_runs(draw):
    """A random system, a periodic or truncated target whose rows may end in
    long constant 0 or (b-1) runs, a linear or table schedule, and the stages
    to run on it in random order (so the table is reused and regrown). Some
    truncations are shorter than the deepest window."""
    b = draw(st.integers(min_value=2, max_value=4))
    ifs = _draw_ifs(draw, b)
    digits = sorted(ifs.digits)
    constant = [p for p in digits if p[1] in (0, b - 1)] or digits
    pre = draw(st.lists(st.sampled_from(digits), max_size=4))
    run = [draw(st.sampled_from(constant))] * draw(st.integers(min_value=0, max_value=25))
    if draw(st.booleans()):
        per = draw(st.one_of(
            st.lists(st.sampled_from(digits), min_size=1, max_size=3),
            st.just(run[-1:] or [digits[0]]),
        ))
        word = DigitWord.periodic(pre + run, per)
    else:
        more = draw(st.lists(st.sampled_from(digits), max_size=6))
        word = DigitWord.truncation(pre + run + more or digits[:1])
    target = target_from_word(ifs, word)
    stages = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        lam = draw(st.lists(st.integers(1, 12), min_size=stages, max_size=stages))
        xi = [l + draw(st.integers(0, 14)) for l in lam]
        schedule = RateSchedule.from_tables(lam, xi)
    else:
        rate = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 3)]))
        schedule = RateSchedule.linear(*rate)
    ns = draw(st.permutations(range(1, stages + 1)))
    return ifs, target, schedule, ns


def _compare_stage(ifs, target, schedule, n):
    try:
        ref = _ref_patterns(ifs, target, schedule, n)
    except InsufficientDepthError as exc:
        with pytest.raises(InsufficientDepthError, match=f"^{re.escape(str(exc))}$"):
            shrinking.StageKernel(ifs, target, schedule, n)
        return
    kernel = shrinking.StageKernel(ifs, target, schedule, n)
    got = (kernel.hpats, kernel.vpats, kernel.patterns)
    assert [list(map(_shape, pats)) for pats in got] == [list(map(_shape, pats)) for pats in ref]
    lam, xi = schedule.lam(n), schedule.xi(n)
    realizable = ref[2]
    for j in range(lam, xi + 3):
        _check_best(kernel, ifs, lam, xi, realizable, j)
    for upto in (xi, xi - 1):
        assert kernel.argmin(upto) == _ref_argmin(ifs, n, lam, xi, realizable, upto), upto
    _check_surface(kernel)
    _check_stage_exponent(ifs, target, schedule, n, realizable)


def _check_surface(kernel):
    """The stage's surface row and its quotients equal `weighted_row_count`
    of `best` and `quotient` at each depth, by `repr`."""
    depths = range(kernel.lam, kernel.xi + 1)
    ref = [kernel.ifs.weighted_row_count(kernel.best(j)[1]) for j in depths]
    row = kernel.weighted_row_counts()
    assert list(map(repr, row)) == list(map(repr, ref))
    ref_q = [kernel.quotient(j, a) for j, a in zip(depths, ref)]
    assert list(map(repr, kernel.quotients(depths, row))) == list(map(repr, ref_q))


def _check_best(kernel, ifs, lam, xi, realizable, j):
    pattern, counts = kernel.best(j)
    ref_pattern, ref_counts = _ref_best(ifs, lam, xi, realizable, j)
    assert (_shape(pattern), counts) == (_shape(ref_pattern), ref_counts), j


def _check_stage_exponent(ifs, target, schedule, n, realizable):
    rec = shrinking.stage_exponent(ifs, target, schedule, n)
    j, counts = _ref_argmin(ifs, n, rec.lam, rec.xi, realizable, rec.xi)
    # the row logs added one at a time, by ascending row digit
    value = (n * math.log(len(ifs.digits)) + reduce(
        add, (m * ifs.row_log(a) for a, m in enumerate(counts) if m), 0
    )) / ((n + j) * math.log(ifs.base))
    assert (rec.argmin_j, rec.row_counts, repr(rec.value)) == (j, counts, repr(value))


@given(stage_runs())
@settings(max_examples=250, deadline=None)
def test_stage_path_matches_the_per_position_reference(case):
    ifs, target, schedule, ns = case
    for n in ns:
        _compare_stage(ifs, target, schedule, n)
    # the same target under a larger digit set gets a table of its own
    missing = sorted({(u, v) for u in range(ifs.base) for v in range(ifs.base)} - ifs.digits)
    if len(missing) > 1:
        wider = validate_ifs(ifs.base, sorted(ifs.digits) + missing[:1])
        for n in ns:
            _compare_stage(wider, target, schedule, n)


@given(stage_runs())
@settings(max_examples=60, deadline=None)
def test_dimension_report_matches_the_reference_stages(case):
    ifs, target, schedule, ns = case
    ns = sorted(ns)
    if schedule.kind == "table":
        lams = [schedule.lam(n) for n in ns]
        schedule = RateSchedule.from_tables(sorted(lams), [l + 3 for l in sorted(lams)])
    for n in ns:
        try:
            _ref_patterns(ifs, target, schedule, n)
        except InsufficientDepthError as exc:
            # the run sizes its table to the word and fails at the first
            # stage that needs more, as the per-stage reference does
            with pytest.raises(InsufficientDepthError, match=f"^{re.escape(str(exc))}$"):
                shrinking.dimension_report(ifs, target, schedule, ns)
            return
    report = shrinking.dimension_report(ifs, target, schedule, ns)
    assert [r.n for r in report.records] == ns
    for rec in report.records:
        lam, xi = rec.lam, rec.xi
        realizable = _ref_patterns(ifs, target, schedule, rec.n)[2]
        assert (rec.argmin_j, rec.row_counts) == _ref_argmin(
            ifs, rec.n, lam, xi, realizable, xi
        )


_RATES = st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 3), (1, Fraction(5, 2))])


@st.composite
def periodic_stages(draw):
    """A random system, an eventually periodic target of preperiod 0-4 and
    period 1-5, a linear, table or alternating schedule, one stage n in
    20..150, a depth bound `upto` anywhere in lam..xi and a few depths j.
    At these sizes the stretch below the first deviation holds many
    periods, so `argmin` ranks only its class ends."""
    b = draw(st.integers(min_value=2, max_value=4))
    ifs = _draw_ifs(draw, b)
    digits = sorted(ifs.digits)
    pre = draw(st.lists(st.sampled_from(digits), max_size=4))
    per = draw(st.lists(st.sampled_from(digits), min_size=1, max_size=5))
    target = target_from_word(ifs, DigitWord.periodic(pre, per))
    n = draw(st.integers(min_value=20, max_value=150))
    kind = draw(st.sampled_from(["linear", "table", "alternating"]))
    if kind == "linear":
        schedule = RateSchedule.linear(*draw(_RATES))
    elif kind == "table":
        lam = draw(st.integers(1, 2 * n))
        xi = lam + draw(st.integers(0, 2 * n))
        schedule = RateSchedule.from_tables([1] * (n - 1) + [lam], [1] * (n - 1) + [xi])
    else:
        schedule = RateSchedule.alternating(draw(st.lists(_RATES, min_size=1, max_size=3)))
    lam, xi = schedule.lam(n), schedule.xi(n)
    upto = draw(st.integers(lam, xi))
    depths = draw(st.lists(st.integers(lam, xi + 2), max_size=4))
    return ifs, target, schedule, n, upto, depths


@given(periodic_stages())
@settings(max_examples=150, deadline=None)
def test_periodic_stage_ranks_class_ends_like_the_reference(case):
    ifs, target, schedule, n, upto, depths = case
    lam, xi = schedule.lam(n), schedule.xi(n)
    realizable = _ref_patterns(ifs, target, schedule, n)[2]
    kernel = shrinking.StageKernel(ifs, target, schedule, n)
    assert kernel.argmin(upto) == _ref_argmin(ifs, n, lam, xi, realizable, upto), upto
    for j in depths:
        _check_best(kernel, ifs, lam, xi, realizable, j)
    _check_surface(kernel)
    _check_stage_exponent(ifs, target, schedule, n, realizable)


@pytest.mark.parametrize("n", [20, 100, 150, 400])
def test_all_tie_stage_returns_lam(n):
    # every row holds two pairs and the target's rows are 0: every depth
    # of the window gives the quotient 1/2 exactly
    ifs = validate_ifs(4, [(0, 0), (1, 0), (0, 1), (1, 1)])
    target = target_from_word(ifs, DigitWord.periodic([], [(0, 0)]))
    schedule = RateSchedule.from_tables([1] * (n - 1) + [n + 1], [1] * (n - 1) + [2 * n])
    kernel = shrinking.StageKernel(ifs, target, schedule, n)
    lam, xi = kernel.lam, kernel.xi
    for upto in (lam, lam + 1, n + n // 2, xi - 1, xi):
        assert kernel.argmin(upto)[0] == lam
    if n <= 150:
        realizable = _ref_patterns(ifs, target, schedule, n)[2]
        assert kernel.argmin(xi) == _ref_argmin(ifs, n, lam, xi, realizable, xi)
        _check_stage_exponent(ifs, target, schedule, n, realizable)


_VICSEK = validate_ifs(3, [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)])
# rows 0..3 hold 3, 1, 2 and 4 maps
_BASE4 = validate_ifs(4, [(0, 0), (1, 0), (3, 0), (2, 1), (0, 2), (3, 2),
                          (0, 3), (1, 3), (2, 3), (3, 3)])


@pytest.mark.parametrize("ifs, pre, per, n", [
    # vicsek (1/3, 1/3): the first deviation is at 1, so g = lam
    (_VICSEK, [(0, 0)], [(2, 2)], 5),
    # rows 3, 0, 2 repeating up to g = 39: three row logs above 0, whose
    # float sums depend on the order in which they are added
    (_BASE4, [], [(3, 3), (1, 0), (0, 2)], 20),
])
def test_surface_row_on_pinned_stages(ifs, pre, per, n):
    target = target_from_word(ifs, DigitWord.periodic(pre, per))
    _check_surface(shrinking.StageKernel(ifs, target, RateSchedule.linear(1, 2), n))


@st.composite
def block_words(draw):
    """A random system and a truncated block word: runs of one digit pair
    each, of lengths 1-200, under a linear or table schedule, with a few
    stages whose windows the word covers."""
    b = draw(st.integers(min_value=2, max_value=5))
    ifs = _draw_ifs(draw, b)
    digits = sorted(ifs.digits)
    runs = draw(st.lists(
        st.tuples(st.sampled_from(digits), st.integers(1, 200)), min_size=1, max_size=8
    ))
    word = [pair for pair, length in runs for _ in range(length)]
    target = target_from_word(ifs, DigitWord.truncation(word))
    depth = len(word)
    ends = list(accumulate(length for _, length in runs))
    top = 0
    if draw(st.booleans()):
        schedule = RateSchedule.linear(*draw(_RATES))
        # a one-pair word covers no window of the rates with xi(1) = 3: a table schedule then
        top = max((n for n in range(1, depth + 2) if schedule.xi(n) - 1 <= depth), default=0)
    if top:
        ns = draw(st.lists(st.integers(1, top), min_size=1, max_size=3, unique=True))
    else:
        lam = draw(st.integers(1, depth + 1))
        xi = draw(st.integers(lam, depth + 1))
        schedule, ns = RateSchedule.from_tables([lam], [xi]), [1]
    return ifs, target, schedule, ns, ends


@given(block_words())
@settings(max_examples=120, deadline=None)
def test_truncation_ranks_its_run_ends_like_the_full_scan(case):
    ifs, target, schedule, ns, ends = case
    for n in ns:
        lam, xi = schedule.window(n)
        realizable = _ref_patterns(ifs, target, schedule, n)[2]
        kernel = shrinking.StageKernel(ifs, target, schedule, n)
        # bounds at and just past each run's end make it the last end ranked
        bounds = {lam, xi - 1, xi} | {e + k for e in ends for k in (0, 1) if lam <= e + k <= xi}
        for upto in sorted(bounds):
            assert kernel.argmin(upto) == _ref_argmin(ifs, n, lam, xi, realizable, upto), upto
        _check_stage_exponent(ifs, target, schedule, n, realizable)


def _unkeyed_shape(table, lam, xi):
    """`_TargetRows.shape` without its memo: the stage's own axis patterns."""
    return shrinking._stage_parts(table, lam, xi), None


# constant-tail targets: every row of vicsek-origin is 0; the uniform-fibre
# carpet of the `ties` benchmark (base 4, rows 0 and 1 of two maps each) has
# the target (0, 0), so both of its axes end in a constant 0
_CONSTANT_TAILS = [
    (_VICSEK, [], [(0, 0)]),
    (validate_ifs(4, [(0, 0), (1, 0), (0, 1), (1, 1)]), [], [(0, 0)]),
    # rows 0, 1 and 2 hold 1, 3 and 2 maps: the deviation down at the fixed
    # position 1 (tail 2) loses to the one up at xi - 1 on a gap of 1 and
    # wins on any longer gap, so its winner is decided per stage
    (validate_ifs(3, [(0, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2)]), [(0, 1)], [(0, 0)]),
]


@st.composite
def keyed_runs(draw):
    """A random system of base 2-5 and an eventually periodic target (or a
    constant-tail one), a linear, table or alternating schedule and a run of
    up to 40 consecutive stages from n0 on. Small n0 gives windows that
    straddle the preperiod, before and after the shapes are keyed."""
    if draw(st.integers(0, 4)) == 0:
        ifs, pre, per = draw(st.sampled_from(_CONSTANT_TAILS))
    else:
        b = draw(st.integers(min_value=2, max_value=5))
        ifs = _draw_ifs(draw, b)
        digits = sorted(ifs.digits)
        pre = draw(st.lists(st.sampled_from(digits), max_size=5))
        constant = [p for p in digits if {p[0], p[1]} & {0, b - 1}]
        per = draw(st.one_of(
            st.lists(st.sampled_from(digits), min_size=1, max_size=4),
            # one axis (or both) ends in a constant 0 or b - 1
            st.lists(st.sampled_from(constant or digits), min_size=1, max_size=1),
        ))
    target = target_from_word(ifs, DigitWord.periodic(pre, per))
    n0 = draw(st.integers(1, 30))
    count = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["linear", "table", "alternating"]))
    if kind == "linear":
        schedule = RateSchedule.linear(*draw(_RATES))
    elif kind == "table":
        # windows around the threshold lam - 1 = L + 2p of the keyed shapes,
        # with gaps below p, which leave vertical deviations inside lam - 1
        period = len(target.word.period)
        reach = len(target.word.preperiod) + 2 * period
        lams = st.integers(max(1, reach - 3), reach + 3 * period + 3)
        lams = sorted(draw(st.lists(lams, min_size=count, max_size=count)))
        gaps = st.one_of(st.integers(0, 2 * period), st.integers(0, 30))
        xis = [lam + draw(gaps) for lam in lams]
        schedule = RateSchedule.from_tables([1] * (n0 - 1) + lams, [1] * (n0 - 1) + xis)
    else:
        schedule = RateSchedule.alternating(
            draw(st.lists(_RATES, min_size=1, max_size=3)), block_base=2
        )
    return ifs, target, schedule, range(n0, n0 + count)


def _compare_keyed(ifs, target, schedule, n):
    """The stage built through the memo against a fresh build of its own."""
    kernel = shrinking.StageKernel(ifs, target, schedule, n)
    lam, xi = kernel.lam, kernel.xi
    with mock.patch.object(shrinking._TargetRows, "shape", _unkeyed_shape):
        fresh = shrinking.StageKernel(ifs, target, schedule, n)
    assert kernel._parts == fresh._parts, n
    assert list(map(_shape, kernel.patterns)) == list(map(_shape, fresh.patterns)), n
    assert kernel.first_deviation == fresh.first_deviation, n
    for j in range(lam, xi + 2):
        pattern, counts = kernel.best(j)
        ref_pattern, ref_counts = fresh.best(j)
        assert (_shape(pattern), counts) == (_shape(ref_pattern), ref_counts), (n, j)
    assert kernel.argmin(xi) == fresh.argmin(xi), n
    rec = shrinking.stage_exponent(ifs, target, schedule, n)
    with mock.patch.object(shrinking._TargetRows, "shape", _unkeyed_shape):
        ref = shrinking.stage_exponent(ifs, target, schedule, n)
    assert (rec.argmin_j, rec.row_counts, repr(rec.value)) == (
        ref.argmin_j, ref.row_counts, repr(ref.value)
    ), n


@given(keyed_runs())
@settings(max_examples=200, deadline=None)
def test_keyed_stage_shape_matches_a_fresh_build(case):
    ifs, target, schedule, ns = case
    for n in ns:
        _compare_keyed(ifs, target, schedule, n)
    # a run past the threshold reads its shapes from the memo
    pre, period = len(target.word.preperiod), len(target.word.period)
    keyed = any(schedule.lam(n) - 1 >= pre + 2 * period for n in ns)
    assert bool(target._rows._shapes) == keyed


@pytest.mark.parametrize("base, pairs, pre, per, lam, xi", [
    # a gap xi - lam below the period: the vertical deviation at 13 lies
    # inside the horizontal window and fails to pair there
    (4, [(0, 0), (0, 2), (1, 0), (1, 2), (1, 3), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)],
     [], [(0, 2), (0, 0), (0, 0), (1, 3)], 14, 16),
    (4, [(0, 0), (1, 2), (1, 3), (2, 3), (3, 1), (3, 3)],
     [], [(2, 3), (2, 3), (3, 1), (1, 3)], 17, 19),
    # lam - 1 = L + 2p - 1, one short of the keyed shapes: the row deviation
    # down at the fixed position 2 pairs only with the column deviation up at
    # lam - 1 = 3, right after it; one period further on, the column digit 1
    # at 3 lies between them, and its pair (1, 2) with the row tail is not in J
    (3, [(1, 0), (2, 1), (2, 2)], [(2, 1), (2, 2)], [(1, 0)], 4, 15),
])
def test_keyed_shape_at_the_pinned_windows(base, pairs, pre, per, lam, xi):
    ifs = validate_ifs(base, pairs)
    target = target_from_word(ifs, DigitWord.periodic(pre, per))
    _compare_keyed(ifs, target, RateSchedule.from_tables([lam], [xi]), 1)


@pytest.mark.parametrize("ifs, pre, per", _CONSTANT_TAILS + [
    (_VICSEK, [], [(1, 1)]),  # vicsek-center
    (_VICSEK, [(1, 1)], [(0, 2), (2, 0), (1, 1)]),
])
def test_keyed_stages_of_a_long_run_match_the_reference(ifs, pre, per):
    # a run of linear (1, 2) stages visits each key many times
    target = target_from_word(ifs, DigitWord.periodic(pre, per))
    schedule = RateSchedule.linear(1, 2)
    report = shrinking.dimension_report(ifs, target, schedule, range(1, 161))
    for rec in report.records[::7]:
        realizable = _ref_patterns(ifs, target, schedule, rec.n)[2]
        assert (rec.argmin_j, rec.row_counts) == _ref_argmin(
            ifs, rec.n, rec.lam, rec.xi, realizable, rec.xi
        ), rec.n
