"""The verify checks that decide once per class, against per-word references.

The references below are the word-by-word forms of six paths in `verify`:
the window oracle's predicate walk over every window, the exhaustive set
relation over every prefix and constant tail, both containment checks over
every truncation, the containment pass's verdicts as the window's digit
walk and rectangle products on each truncation's shifted square, the
cover's count as its enumerated corners, and the Holder ball mass at every
grid level as a sum of cell masses. On random small systems, eventually
periodic targets and linear or table schedules, each class path must give
the same full report. Each run may also patch the predicate a path calls by
name with a pure stand-in that fails often, so the rebuilt failure records
are compared too.
"""

import contextlib
import itertools
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carpetdim.shrinking as shrinking
import carpetdim.verify as verify
from carpetdim import (
    DigitWord,
    RateSchedule,
    build_cover,
    build_lower_bound_measure,
    check_containment_backward,
    check_containment_forward,
    holder_exponent_samples,
    target_from_word,
    validate_ifs,
)
from carpetdim.errors import CarpetError, InsufficientDepthError
from carpetdim.grid import pair_value
from test_stage_reference import _ref_axis_digits_admissible

LIMIT = 3000  # largest per-word enumeration a reference runs


def _ref_brute_force_window_set(ifs, target, schedule, n):
    """The window oracle, one predicate call per axis for every window."""
    lam, xi = schedule.lam(n), schedule.xi(n)
    tcols = target.col_digits(lam - 1)
    trows = target.row_digits(xi - 1)
    out = set()
    for win in itertools.product(ifs.sorted_digits(), repeat=xi):
        cols = tuple(p.u for p in win[: lam - 1])
        rows = tuple(p.v for p in win[: xi - 1])
        if shrinking.axis_digits_admissible(ifs.base, tcols, cols) and (
            shrinking.axis_digits_admissible(ifs.base, trows, rows)
        ):
            out.add(win)
    return out


def _ref_exhaustive_relation_check(ifs, target, schedule, n, depth):
    """The exhaustive set relation, one verdict for every prefix and constant tail."""
    lam, xi = schedule.lam(n), schedule.xi(n)
    z, w = verify.target_point(target)
    interior = 0 < z < 1 and 0 < w < 1
    verify._interior_thresholds(ifs, target, schedule, n)
    b = ifs.base
    tail_mod = b ** (depth - n)
    den = (b - 1) * tail_mod
    digits = ifs.sorted_digits()
    cells = (ifs.digits,) * n
    report = verify.CheckReport("set-relation-exhaustive", True, 0, details={"interior": interior})
    nonzero = 0
    for prefix in itertools.product(digits, repeat=depth):
        xnum, ynum = pair_value(prefix, b)
        kx, ax = divmod(xnum, tail_mod)
        ky, ay = divmod(ynum, tail_mod)
        for t in sorted({digits[0], digits[-1]}):
            word = DigitWord(prefix, (t,))
            report.checked += 1
            valid_sx = verify._valid_shifts((b - 1) * ax + t.u, den, z.numerator, z.denominator, b ** lam)
            valid_sy = verify._valid_shifts((b - 1) * ay + t.v, den, w.numerator, w.denominator, b ** xi)
            if any(abs(s) > 1 for s in list(valid_sx) + list(valid_sy)):
                verify._fail(report, word, "witness shift outside {-1,0,1}")
                continue
            witnesses = [(sx, sy) for sx in valid_sx for sy in valid_sy
                         if verify._in_supports(kx - sx, ky - sy, cells, b)]
            eq1 = 0 in valid_sx and 0 in valid_sy
            eq2 = bool(witnesses)
            if eq1 and (0, 0) not in witnesses:
                verify._fail(report, word, "rectangle hit but own prefix not a witness")
            if interior:
                if eq2 != eq1:
                    verify._fail(report, word, f"interior equivalence broken: eq1={eq1} eq2={eq2}")
                if any(s != (0, 0) for s in witnesses):
                    verify._fail(report, word, "interior witness with nonzero shift")
            else:
                if eq1 and not eq2:
                    verify._fail(report, word, "rectangle hit without any witness")
                nonzero += sum(1 for s in witnesses if s != (0, 0))
    report.details["nonzero_shift_witnesses"] = nonzero
    return report


def _ref_containment_exhaustive(ifs, target, schedule, n, depth):
    """Both containment checks over every truncation of the depth."""
    return [check(ifs, target, schedule, n,
                  map(DigitWord.truncation, itertools.product(ifs.sorted_digits(), repeat=depth)))
            for check in (check_containment_forward, check_containment_backward)]


def _ref_hull_relation(
    rectangle: tuple[tuple[int, int, int], ...], word: DigitWord, base: int, n: int
) -> tuple[bool, bool]:
    """(inside, meets): does the shift-n hull of the word lie inside the
    closed rectangle, and does it meet it?"""
    x, y, den, width = word.shift(n).hull(base)
    inside = meets = True
    for v, (lo, hi, rden) in zip((x, y), rectangle):
        vlo, vhi, lo, hi = v * rden, (v + width) * rden, lo * den, hi * den
        inside = inside and lo <= vlo and vhi <= hi
        meets = meets and lo <= vhi and vlo <= hi
    return inside, meets


def _ref_holder_exponent_samples(builder, sample_points, levels):
    """Holder samples with the mass of each closed ball of radius b^-L summed
    over the level-L cells it meets."""
    b = builder.ifs.base
    out = []
    for level in levels:
        scale = b ** level
        r = Fraction(1, scale)
        for word in sample_points:
            x, y = word.point(b)
            nu = Fraction(0)
            for kx in range(max(0, math.ceil((x - r) * scale) - 1),
                            min(scale - 1, math.floor((x + r) * scale)) + 1):
                for ky in range(max(0, math.ceil((y - r) * scale) - 1),
                                min(scale - 1, math.floor((y + r) * scale)) + 1):
                    nu += builder.mass(kx, ky, level)
            exponent = math.inf if nu == 0 else (
                (math.log(nu.numerator) - math.log(nu.denominator))
                / (math.log(r.numerator) - math.log(r.denominator)))
            out.append(verify.HolderSample((x, y), r, level, nu, exponent))
    return out


# pure stand-ins for the predicates the class paths call by name; each reads
# only what the real one reads, and each fails often
def _digit_sum_not_one_mod_3(base, target_digits, word_digits):
    return sum(word_digits) % 3 != 1


def _tail_even(window, word, x, y):
    return sum(map(sum, word.preperiod[window.n:])) % 2 == 0


def _shifts_by_residue(num, den, cn, cd, scale):
    return [[0], [-1, 0], [0, 1, 2], []][num % 4]


@st.composite
def systems(draw):
    """A random system of 2 to 5 digit pairs in base 2 to 4, an eventually
    periodic target, a linear or table schedule and a stage n."""
    b = draw(st.integers(min_value=2, max_value=4))
    cells = [(u, v) for u in range(b) for v in range(b)]
    size = draw(st.integers(min_value=2, max_value=min(5, b * b - 1)))
    ifs = validate_ifs(b, draw(st.permutations(cells))[:size])
    digits = sorted(ifs.digits)
    pre = draw(st.lists(st.sampled_from(digits), max_size=3))
    per = draw(st.lists(st.sampled_from(digits), min_size=1, max_size=3))
    target = target_from_word(ifs, DigitWord.periodic(pre, per))
    n = draw(st.integers(min_value=1, max_value=2))
    if draw(st.booleans()):
        lam = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        schedule = RateSchedule.from_tables(lam, [l + draw(st.integers(0, 2)) for l in lam])
    else:
        schedule = RateSchedule.linear(*draw(st.sampled_from([(1, 1), (1, 2), (2, 3)])))
    return ifs, target, schedule, n


def _same_outcome(reference, fast):
    """Both calls give the same value, or raise the same error."""
    try:
        expected = reference()
    except CarpetError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            fast()
        return None
    got = fast()
    assert got == expected
    return got


def _dicts(reports):
    return [r.to_dict() for r in reports]


@given(systems(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_oracle_matches_the_per_window_walk(case, patched):
    ifs, target, schedule, n = case
    if len(ifs.digits) ** schedule.xi(n) > LIMIT:
        return
    patch = mock.patch.object(shrinking, "axis_digits_admissible", _digit_sum_not_one_mod_3)
    with patch if patched else contextlib.nullcontext():
        ref = _ref_brute_force_window_set(ifs, target, schedule, n)
        fast = verify.brute_force_window_set(ifs, target, schedule, n)
        assert list(fast) == list(ref)  # same windows, inserted in the same order
        report = verify.oracle_window_report(ifs, target, schedule, n).to_dict()
        with mock.patch.object(verify, "brute_force_window_set", _ref_brute_force_window_set):
            assert verify.oracle_window_report(ifs, target, schedule, n).to_dict() == report


@given(systems(), st.integers(min_value=0, max_value=2), st.booleans())
@settings(max_examples=80, deadline=None)
def test_exhaustive_relation_matches_the_per_word_verdicts(case, extra, patched):
    ifs, target, schedule, n = case
    depth = n + extra
    if len(ifs.digits) ** depth > LIMIT:
        return
    shifts = _shifts_by_residue if patched else verify._valid_shifts
    with mock.patch.object(verify, "_valid_shifts", shifts):
        _same_outcome(
            lambda: _ref_exhaustive_relation_check(ifs, target, schedule, n, depth).to_dict(),
            lambda: verify.exhaustive_relation_check(ifs, target, schedule, n, depth).to_dict(),
        )


@given(systems(), st.integers(min_value=0, max_value=1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_exhaustive_containment_matches_the_per_word_checks(case, extra, patched):
    ifs, target, schedule, n = case
    depth = n + schedule.xi(n) + extra
    if len(ifs.digits) ** depth > LIMIT:
        return
    hit = _tail_even if patched else verify._window_verdict
    with mock.patch.object(verify, "_window_verdict", hit):
        _same_outcome(
            lambda: _dicts(_ref_containment_exhaustive(ifs, target, schedule, n, depth)),
            lambda: _dicts(verify.containment_exhaustive_reports(ifs, target, schedule, 0, n, depth)),
        )


@given(systems(), st.sampled_from([(1, 1), (1, 2)]), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_holder_ball_mass_matches_the_cell_sum(case, rate, seed):
    ifs, target, _, n0 = case
    schedule = RateSchedule.linear(*rate)
    bps = [n0, 2 * (schedule.xi(n0) + 2) + 1]
    builder = build_lower_bound_measure(ifs, target, schedule, bps, 2)
    assert verify._supports_follow_spines(builder)
    rng = random.Random(seed)
    points = [builder.support_word(builder.depth, rng) for _ in range(2)]
    levels = range(1, builder.depth + 1)
    assert holder_exponent_samples(builder, points, levels) == (
        _ref_holder_exponent_samples(builder, points, levels))


@given(systems(), st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_shift_of_a_minimal_word_is_minimal(case, n):
    _, target, _, _ = case
    word = target.word
    shifted = word.shift(n)
    assert shifted == DigitWord(shifted.preperiod, shifted.period)  # normalising changes nothing
    assert shifted.pairs_up_to(6) == word.pairs_up_to(n + 6)[n:]


_COORDINATES = {
    "boundary": st.sampled_from([Fraction(0), Fraction(1)]),
    "interior": st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda c: 0 < c < 1),
}


@st.composite
def hull_cases(draw):
    """A base 2 to 5, a linear, table or alternating schedule, a stage n, a
    target point with interior or boundary coordinates, a target word (the
    point's own digits or random digits: the verdicts read the point for the
    rectangle and the word for the window), a rectangle scale of 1 or b^2
    whose edges the words are drawn near, and truncations of depth n + xi(n)
    to n + xi(n) + 6 whose shift-n squares fall near those edges."""
    b = draw(st.integers(min_value=2, max_value=5))
    kind = draw(st.sampled_from(["linear", "table", "alternating"]))
    if kind == "linear":
        schedule = RateSchedule.linear(*draw(st.sampled_from([(1, 1), (1, 2), (2, 3), ("1/2", "3/2")])))
    elif kind == "table":
        lam = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
        schedule = RateSchedule.from_tables(lam, [l + draw(st.integers(0, 2)) for l in lam])
    else:
        schedule = RateSchedule.alternating([(1, 2), ("1/2", 1)], block_base=2)
    n = draw(st.integers(min_value=1, max_value=3))
    point = tuple(draw(_COORDINATES[draw(st.sampled_from(sorted(_COORDINATES)))]) for _ in "zw")
    pair = st.tuples(st.integers(0, b - 1), st.integers(0, b - 1))
    if draw(st.booleans()):  # digit i of c is floor(c b^i) mod b, all b - 1 for c = 1
        digits = [[min(math.floor(c * b ** i), b ** i - 1) % b for c in point]
                  for i in range(1, schedule.xi(n))]
    else:
        digits = draw(st.lists(pair, min_size=schedule.xi(n) - 1, max_size=schedule.xi(n) - 1))
    target = SimpleNamespace(point=point, word=DigitWord.truncation(digits))
    scale = draw(st.sampled_from([1, b * b]))
    ifs = validate_ifs(b, [(0, 0), (b - 1, b - 1)])
    edges = [Fraction(lo, den) for axis in verify._stage_rectangle(ifs, target, schedule, n, scale)
             for lo, den in ((axis[0], axis[2]), (axis[1], axis[2]))]
    words = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        k = schedule.xi(n) + draw(st.integers(0, 6))

        def numeral(edge):  # a tail numeral of k digits within two squares of an edge
            near = math.floor(edge * b ** k) + draw(st.integers(-2, 2))
            return min(max(near, 0), b ** k - 1)

        x = numeral(draw(st.sampled_from(edges[:2])))
        y = numeral(draw(st.sampled_from(edges[2:])))
        tail = [(x // b ** i % b, y // b ** i % b) for i in reversed(range(k))]
        head = draw(st.lists(pair, min_size=n, max_size=n))
        words.append(DigitWord.truncation(head + tail))
    return ifs, target, schedule, n, words


@given(hull_cases())
@settings(max_examples=300, deadline=None)
def test_hull_test_matches_the_hull_products(case):
    """The containment pass's four verdicts per truncation: the window hit
    against the digit walk, and the shifted square's relations to the stage
    rectangle and to the b^2-enlarged one against the rectangle products. A
    truncation cut below n + xi(n) pairs, or continued periodically, raises."""
    ifs, target, schedule, n, words = case
    b, (lam, xi) = ifs.base, schedule.window(n)
    verdicts = verify._containment_stage(ifs, target, schedule, n)
    rectangle, enlarged = (verify._stage_rectangle(ifs, target, schedule, n, s) for s in (1, b * b))
    tcols = [p.u for p in target.word.pairs_up_to(lam - 1)]
    trows = [p.v for p in target.word.pairs_up_to(xi - 1)]
    for word in words:
        window = word.pairs_up_to(n + xi)[n:]
        hit = _ref_axis_digits_admissible(b, tcols, [p.u for p in window[: lam - 1]]) and (
            _ref_axis_digits_admissible(b, trows, [p.v for p in window[: xi - 1]]))
        inside, meets = _ref_hull_relation(rectangle, word, b, n)
        assert verdicts(word) == (hit, inside, meets, _ref_hull_relation(enlarged, word, b, n)[1])
        with pytest.raises(InsufficientDepthError):
            verdicts(DigitWord.truncation(word.preperiod[: n + xi - 1]))
        with pytest.raises(InsufficientDepthError, match="must be truncations"):
            verdicts(DigitWord.periodic(word.preperiod, [(0, 0)]))


@given(systems(), st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_cover_count_matches_its_corners(case, n):
    ifs, target, schedule, _ = case
    with contextlib.suppress(CarpetError):  # a table schedule may end before n
        lam, xi = schedule.window(n)
        for j in range(lam, xi + 1):
            if len(ifs.digits) ** (n + j) > 20 * LIMIT:
                break
            family = build_cover(ifs, target, schedule, n, j)
            assert family.boxes == len(family.corners) == len(set(family.corners))


def _grid_point(x, y, level, b):
    """The word of the point (x, y) / b^level, for 0 <= x, y <= b^level."""
    (x, u), (y, v) = ((c, 0) if c < b ** level else (c - 1, b - 1) for c in (x, y))
    return DigitWord.periodic([(x // b ** i % b, y // b ** i % b) for i in reversed(range(level))],
                              [(u, v)])


@given(systems(), st.data())
@settings(max_examples=40, deadline=None)
def test_holder_ball_mass_matches_the_cell_sum_at_any_centre(case, data):
    # centres anywhere: level-L grid points (a period of 0s, whose ball also
    # reaches the cell two below), the top or right edge (a period of b - 1s,
    # or the point 1), and long runs of 0 or b - 1 (a neighbour's borrow or carry)
    ifs, target, _, n0 = case
    b = ifs.base
    schedule = RateSchedule.linear(1, 2)
    bps = [n0, 2 * (schedule.xi(n0) + 2) + 1]
    builder = build_lower_bound_measure(ifs, target, schedule, bps, 2)
    pair = st.sampled_from([(0, 0), (b - 1, b - 1), (0, b - 1), (b - 1, 0)]) | st.tuples(
        st.integers(0, b - 1), st.integers(0, b - 1))
    runs = st.lists(st.tuples(pair, st.integers(1, builder.depth)), max_size=4)
    period = st.sampled_from([[(0, 0)], [(b - 1, b - 1)], [(0, b - 1)]]) | st.lists(
        pair, min_size=1, max_size=2)
    points = [DigitWord.periodic([p for p, k in data.draw(runs) for _ in range(k)],
                                 data.draw(period)) for _ in range(3)]
    # level-L grid points two cells past a positive cell, whose balls reach back to it
    level = data.draw(st.integers(1, builder.depth))
    kx, ky = pair_value(builder.support_word(level, random.Random(level)).pairs_up_to(level), b)
    points += [_grid_point(min(kx + sx, b ** level), min(ky + sy, b ** level), level, b)
               for sx, sy in ((2, 2), (2, 0), (0, 2))]
    levels = range(1, builder.depth + 1)
    assert holder_exponent_samples(builder, points, levels) == (
        _ref_holder_exponent_samples(builder, points, levels))
