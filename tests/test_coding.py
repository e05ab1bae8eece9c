import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carpetdim import (
    DigitWord,
    alternating_block_word,
    base_expansions,
    canonical_representative,
    digit_frequencies,
    expansions_of,
    make_target,
    slice_dimension,
    target_from_word,
    validate_ifs,
)
from carpetdim.coding import _combine_axes
from carpetdim.errors import (
    CodingTooLongError,
    DegenerateExpansionError,
    EmptyCandidateSetError,
    FiniteTruncationError,
    InadmissiblePairError,
    NotInAttractorError,
    UndecidableDominanceError,
)

from conftest import VICSEK_PAIRS


class TestBaseExpansions:
    def test_zero_and_one(self):
        assert base_expansions(Fraction(0), 3) == [((), (0,))]
        assert base_expansions(Fraction(1), 3) == [((), (2,))]

    def test_third_has_two(self):
        exps = set(base_expansions(Fraction(1, 3), 3))
        assert exps == {((1,), (0,)), ((0,), (2,))}

    def test_half_base_three_single(self):
        assert base_expansions(Fraction(1, 2), 3) == [((), (1,))]

    def test_values_recovered(self):
        for num in range(0, 28):
            r = Fraction(num, 27)
            for pre, per in base_expansions(r, 3):
                w = DigitWord.periodic([(d, d) for d in pre], [(d, d) for d in per])
                assert w.point(3)[0] == r

    def test_float_rejected(self):
        ifs = validate_ifs(3, VICSEK_PAIRS)
        with pytest.raises(ValueError):
            expansions_of(ifs, 0.5, 0)

    @given(st.integers(2, 12), st.integers(1, 4000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_remainders_match_the_long_division(self, base, q, data):
        r = Fraction(data.draw(st.integers(0, q)), q)
        assert base_expansions(r, base) == _ref_base_expansions(r, base)

    @pytest.mark.parametrize("q, base", [(3 ** 40, 3), (2 ** 30 * 5 ** 12, 10), (6 ** 9 * 7, 12)])
    def test_long_preperiods_match_the_long_division(self, q, base):
        for r in (Fraction(1, q), Fraction(q - 2, q)):
            assert base_expansions(r, base) == _ref_base_expansions(r, base)

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=300, deadline=None)
    def test_preperiod_by_one_conversion_matches_the_digit_loop(self, base, data):
        # denominators q1 * q2: q1 made of the primes of the base, often to high powers
        primes = [p for p in (2, 3, 5, 7, 11, 13) if base % p == 0]
        q1 = math.prod(p ** data.draw(st.integers(0, 200)) for p in primes)
        coprime = [c for c in (1, 3, 7, 11, 49, 97, 999) if math.gcd(c, base) == 1]
        q2 = data.draw(st.sampled_from(coprime))
        q = q1 * q2
        r = Fraction(data.draw(st.integers(0, q)), q)
        assert base_expansions(r, base) == _digit_loop_expansions(r, base)

    def test_long_terminating_preperiod_is_one_conversion(self):
        start = time.perf_counter()
        [(pre, per), (pre2, per2)] = base_expansions(Fraction("1e-300000"), 10)
        assert time.perf_counter() - start < 5.0  # the digit loop takes about 12 s
        assert (len(pre), pre[-1], set(pre[:-1]), per) == (300000, 1, {0}, (0,))
        assert (len(pre2), pre2[-1], per2) == (300000, 0, (9,))

    def test_expansions_past_the_guard_are_refused_before_any_digit(self, vicsek):
        start = time.perf_counter()
        with pytest.raises(CodingTooLongError):
            base_expansions(Fraction("1e-99999"), 3)  # the part of 10^99999 coprime to 3
        with pytest.raises(CodingTooLongError):
            # periods 19998 and 5003 are each under the guard; their lcm is not
            expansions_of(vicsek, Fraction(1, 99991), Fraction(1, 10007))
        assert time.perf_counter() - start < 1.0


class TestExpansionsOf:
    def test_origin_unique(self, vicsek):
        assert expansions_of(vicsek, 0, 0) == {DigitWord.periodic([], [(0, 0)])}

    def test_one_third_pair(self, vicsek):
        got = expansions_of(vicsek, Fraction(1, 3), Fraction(1, 3))
        assert got == {
            DigitWord.periodic([(1, 1)], [(0, 0)]),
            DigitWord.periodic([(0, 0)], [(2, 2)]),
        }

    def test_point_off_attractor(self, vicsek):
        with pytest.raises(NotInAttractorError):
            expansions_of(vicsek, Fraction(1, 2), Fraction(1, 3))


class TestCanonicalRepresentative:
    def test_prefers_larger_row_products(self, vicsek):
        cands = {
            DigitWord.periodic([(1, 1)], [(0, 0)]),
            DigitWord.periodic([(0, 0)], [(2, 2)]),
        }
        assert canonical_representative(vicsek, cands) == DigitWord.periodic([(0, 0)], [(2, 2)])

    def test_singleton(self, vicsek):
        w = DigitWord.periodic([], [(1, 1)])
        assert canonical_representative(vicsek, [w]) == w

    def test_tied_products_break_on_origin_pair_count(self):
        # rows all the same size, so the running products agree everywhere;
        # the word carrying (0,0) forever must win
        ifs = validate_ifs(3, [(0, 0), (1, 0), (2, 0), (1, 1)])
        a = DigitWord.periodic([(1, 0)], [(0, 0)])  # x = 1/3 coded 0.10...
        b = DigitWord.periodic([(0, 0)], [(2, 0)])  # x = 1/3 coded 0.02...
        assert canonical_representative(ifs, [a, b]) == a

    def test_empty_candidates(self, vicsek):
        with pytest.raises(EmptyCandidateSetError):
            canonical_representative(vicsek, [])

    def test_truncation_rejected(self, vicsek):
        with pytest.raises(UndecidableDominanceError):
            canonical_representative(vicsek, [DigitWord.truncation([(0, 0)])])

    def test_distinct_points_rejected(self, vicsek):
        with pytest.raises(ValueError):
            canonical_representative(
                vicsek,
                [DigitWord.periodic([], [(0, 0)]), DigitWord.periodic([], [(1, 1)])],
            )

    def test_full_tie_raises_instead_of_guessing(self):
        # single-row system: equal products everywhere and no marked pair
        # appears in either coding, so nothing separates them
        ifs = validate_ifs(3, [(0, 1), (1, 1), (2, 1)])
        a = DigitWord.periodic([(1, 1)], [(0, 1)])
        b = DigitWord.periodic([(0, 1)], [(2, 1)])
        assert a.point(3)[0] == b.point(3)[0] == Fraction(1, 3)
        with pytest.raises(UndecidableDominanceError):
            canonical_representative(ifs, [a, b])

    def test_selection_preserves_the_point(self, vicsek):
        cands = expansions_of(vicsek, Fraction(1, 3), Fraction(1, 3))
        chosen = canonical_representative(vicsek, cands)
        pts = {c.point(3) for c in cands}
        assert chosen.point(3) in pts and len(pts) == 1


def _ref_representative(ifs, candidates):
    """`canonical_representative` on big-integer row products, as it was first
    written: per-cycle products raised to lcm / period, then every prefix
    product across one aligned cycle, then the marked-pair keys."""
    cands = list(dict.fromkeys(candidates))
    if len(cands) == 1:
        return cands[0]
    L = math.lcm(*(len(c.period) for c in cands))

    def cycle_product(c):
        return math.prod(ifs.row_size(p.v) for p in c.period)

    rates = [cycle_product(c) ** (L // len(c.period)) for c in cands]
    cands = [c for c, r in zip(cands, rates) if r == max(rates)]
    if len(cands) == 1:
        return cands[0]
    start = max(len(c.preperiod) for c in cands)
    tables = [list(itertools.accumulate(
        (ifs.row_size(c.row_digit(i)) for i in range(1, start + L + 1)), lambda a, b: a * b
    )) for c in cands]
    dominant = [
        c for c, ti in zip(cands, tables)
        if all(ti[n] >= tj[n] for n in range(start, start + L) for tj in tables)
    ]
    if not dominant:
        raise UndecidableDominanceError("no dominant candidate")

    def key(c):
        b = ifs.base
        window = c.preperiod + c.period
        return tuple(x for m in [(0, 0), (0, b - 1), (b - 1, 0)]
                     for x in (Fraction(c.period.count(m), len(c.period)), window.count(m)))

    keyed = sorted(dominant, key=key, reverse=True)
    if len([c for c in keyed if key(c) == key(keyed[0])]) > 1:
        raise UndecidableDominanceError("tied keys")
    return keyed[0]


def _ref_combine_axes(x_exp, y_exp):
    """`_combine_axes` index by index, as it was first written."""
    (xp, xq), (yp, yq) = x_exp, y_exp
    p, q = max(len(xp), len(yp)), math.lcm(len(xq), len(yq))

    def dig(pre, per, i):
        return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]

    pre = tuple((dig(xp, xq, i), dig(yp, yq, i)) for i in range(p))
    per = tuple((dig(xp, xq, p + i), dig(yp, yq, p + i)) for i in range(q))
    return pre, per


def _ref_target_word(ifs, z, w):
    """The representative coding of (z, w), every step by its first reference."""
    found = set()
    for xe in base_expansions(z, ifs.base):
        for ye in base_expansions(w, ifs.base):
            pre, per = _ref_combine_axes(xe, ye)
            if all(p in ifs.digits for p in pre + per):
                found.add(DigitWord.periodic(pre, per))
    if not found:
        raise NotInAttractorError("no admissible coding")
    return _ref_representative(ifs, found)


def _outcome(f, *args):
    try:
        return f(*args)
    except (NotInAttractorError, UndecidableDominanceError) as exc:
        return type(exc)


@st.composite
def systems_and_points(draw):
    """A random base 2-5 system and a point whose coordinates are mostly
    b-adic (two expansions each), some with a period from a factor 3 or 7."""
    base = draw(st.integers(2, 5))
    grid = [(u, v) for u in range(base) for v in range(base)]
    pairs = draw(st.sets(st.sampled_from(grid), min_size=2, max_size=base * base - 1))

    def coordinate():
        den = base ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 1, 1, 3, 7]))
        return Fraction(draw(st.integers(0, den)), den)

    return validate_ifs(base, pairs), coordinate(), coordinate()


@given(systems_and_points())
@example((validate_ifs(3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)]),
          Fraction(1, 3), Fraction(1, 3)))  # four codings
@example((validate_ifs(4, [(0, 1), (0, 2), (1, 0), (2, 0), (3, 0), (3, 1), (3, 3)]),
          Fraction(1, 2), Fraction(1, 12)))  # the marked pairs tie
@example((validate_ifs(3, VICSEK_PAIRS), Fraction(1, 2), Fraction(1, 3)))  # no coding
@settings(max_examples=600, deadline=None)
def test_representative_matches_the_big_integer_products(case):
    ifs, z, w = case
    ours = _outcome(lambda: canonical_representative(ifs, expansions_of(ifs, z, w)))
    assert ours == _outcome(_ref_target_word, ifs, z, w)


@given(*[st.tuples(st.lists(st.integers(0, 3), max_size=5).map(tuple),
                   st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple))] * 2)
@settings(max_examples=300, deadline=None)
def test_combined_axes_match_the_per_index_zip(x_exp, y_exp):
    assert _combine_axes(x_exp, y_exp) == _ref_combine_axes(x_exp, y_exp)


def test_long_preperiod_representative_in_linear_memory():
    # the representative of (0, 10^-40000) kept every prefix product of row
    # sizes as a big integer: 222 MB
    ifs = validate_ifs(10, [(0, 0), (1, 0), (0, 1), (0, 9), (1, 9)])
    tracemalloc.start()
    try:
        target = make_target(ifs, 0, Fraction(1, 10 ** 40000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 10 ** 6
    assert target.word == DigitWord.periodic([(0, 0)] * 40000, [(0, 9)])


class TestDigitFrequencies:
    def test_constant_word(self, vicsek):
        freqs = digit_frequencies(vicsek, DigitWord.periodic([], [(0, 0)]))
        assert freqs == {0: 1, 1: 0, 2: 0}

    def test_alternating_rows(self, vicsek):
        freqs = digit_frequencies(vicsek, DigitWord.periodic([], [(0, 0), (0, 2)]))
        assert freqs[0] == Fraction(1, 2) and freqs[2] == Fraction(1, 2)

    def test_preperiod_ignored(self, vicsek):
        freqs = digit_frequencies(vicsek, DigitWord.periodic([(0, 0)], [(2, 2)]))
        assert freqs[2] == 1

    def test_truncation_refused(self, vicsek):
        with pytest.raises(FiniteTruncationError):
            digit_frequencies(vicsek, DigitWord.truncation([(0, 0)]))

    def test_empirical_counts(self, vicsek):
        # the counts over one cycle, normalized
        w = DigitWord.periodic([], [(0, 0), (0, 2), (0, 2), (1, 1)])
        freqs = digit_frequencies(vicsek, w)
        assert freqs == {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)}


@st.composite
def vicsek_periodic_words(draw):
    pairs = st.sampled_from(sorted(VICSEK_PAIRS))
    pre = draw(st.lists(pairs, max_size=3))
    per = draw(st.lists(pairs, min_size=1, max_size=4))
    return DigitWord.periodic(pre, per)


@given(vicsek_periodic_words())
@settings(max_examples=80, deadline=None)
def test_frequencies_sum_to_one(vicsek_word):
    ifs = validate_ifs(3, VICSEK_PAIRS)
    assert sum(digit_frequencies(ifs, vicsek_word).values()) == 1


class TestSliceDimension:
    def test_bottom_row_is_cantor(self, vicsek):
        result = slice_dimension(vicsek, DigitWord.periodic([], [(0, 0)]))
        assert result.liminf_attained
        assert abs(result.value - math.log(2) / math.log(3)) < 1e-15

    def test_center_slice_is_a_point(self, vicsek):
        result = slice_dimension(vicsek, DigitWord.periodic([], [(1, 1)]))
        assert result.value == 0.0

    def test_second_expansion_heights_refused(self, vicsek):
        with pytest.raises(DegenerateExpansionError):
            slice_dimension(vicsek, DigitWord.periodic([(1, 1)], [(0, 0)]))

    def test_truncation_gets_windowed_estimate(self, vicsek):
        w = DigitWord.truncation([(0, 0)] * 12)
        result = slice_dimension(vicsek, w)
        assert not result.liminf_attained
        assert abs(result.value - math.log(2) / math.log(3)) < 1e-12

    def test_preperiod_invariance(self, vicsek):
        base = DigitWord.periodic([], [(0, 0), (0, 2), (1, 1)])
        padded = DigitWord.periodic([(2, 2), (1, 1)], [(0, 0), (0, 2), (1, 1)])
        assert slice_dimension(vicsek, base).value == slice_dimension(vicsek, padded).value


@given(vicsek_periodic_words())
@settings(max_examples=80, deadline=None)
def test_slice_bounded_by_one_and_attractor_dimension(word):
    ifs = validate_ifs(3, VICSEK_PAIRS)
    freqs = digit_frequencies(ifs, word)
    if freqs.get(0) == 1 or freqs.get(2) == 1:
        return
    value = slice_dimension(ifs, word).value
    assert -1e-15 <= value <= 1.0 + 1e-15
    assert value <= ifs.attractor_dimension() + 1e-15


def _slice_count(ifs, word, n):
    """Independent oracle: enumerate admissible column strings of length n."""
    count = 0
    rows = [word.row_digit(i) for i in range(1, n + 1)]
    for cols in itertools.product(range(ifs.base), repeat=n):
        if all((u, v) in ifs.digits for u, v in zip(cols, rows)):
            count += 1
    return count


@pytest.mark.parametrize(
    "system_pairs,base,word",
    [
        (VICSEK_PAIRS, 3, DigitWord.periodic([], [(0, 0), (0, 2)])),
        (VICSEK_PAIRS, 3, DigitWord.periodic([(1, 1)], [(0, 2), (2, 2), (1, 1)])),
        ([(0, 0), (1, 1), (1, 0)], 2, DigitWord.periodic([], [(1, 1), (0, 0)])),
    ],
)
def test_slice_against_counting_oracle(system_pairs, base, word):
    ifs = validate_ifs(base, system_pairs)
    q = len(word.period)
    pre = len(word.preperiod)
    n1, n2 = pre + 2 * q, pre + 3 * q
    c1, c2 = _slice_count(ifs, word, n1), _slice_count(ifs, word, n2)
    oracle = (math.log(c2) - math.log(c1)) / (q * math.log(base))
    assert abs(slice_dimension(ifs, word).value - oracle) < 1e-12


class TestTargets:
    def test_center_target(self, vicsek):
        t = make_target(vicsek, Fraction(1, 2), Fraction(1, 2))
        assert t.word == DigitWord.periodic([], [(1, 1)])
        assert t.frequency_map()[1] == 1
        assert t.point == (Fraction(1, 2), Fraction(1, 2))

    def test_origin_target_canonical(self, vicsek):
        t = make_target(vicsek, Fraction(1, 3), Fraction(1, 3))
        assert t.word == DigitWord.periodic([(0, 0)], [(2, 2)])

    def test_truncation_target_has_no_frequencies(self, corner):
        word = alternating_block_word(depth=64)
        t = target_from_word(corner, word)
        assert t.frequencies is None
        assert t.point is None

    def test_block_word_layout(self):
        w = alternating_block_word(block_base=4, depth=70)
        assert [tuple(w.pair_at(i)) for i in (1, 3)] == [(0, 0), (0, 0)]
        assert [tuple(w.pair_at(i)) for i in (4, 15)] == [(0, 2), (0, 2)]
        assert [tuple(w.pair_at(i)) for i in (16, 63)] == [(0, 0), (0, 0)]
        assert tuple(w.pair_at(64)) == (0, 2)

    @pytest.mark.parametrize("block_base", [2, 3, 4, 5])
    def test_block_word_matches_the_per_position_loop(self, block_base):
        for depth in [*range(1, 101), 16384]:
            assert alternating_block_word(block_base, depth) == _ref_block_word(block_base, depth)

    @pytest.mark.parametrize("word, message", [
        (DigitWord.truncation([(0, 0), (0, 2), (1, 1), (2, 2)]),
         "target digit (1, 1) at position 3 not in the digit set"),
        (DigitWord.periodic([(0, 0)], [(2, 0), (2, 2), (1, 1)]),
         "target digit (2, 2) at position 3 not in the digit set"),
        (DigitWord.periodic([], [(1, 2)]), "target digit (1, 2) at position 1 not in the digit set"),
    ])
    def test_inadmissible_target_names_its_first_bad_position(self, corner, word, message):
        with pytest.raises(InadmissiblePairError, match=f"^{re.escape(message)}$"):
            target_from_word(corner, word)


def _ref_block_word(block_base, depth):
    """`alternating_block_word` position by position, as it was first written."""
    digits = []
    j = 0
    for i in range(1, depth + 1):
        while block_base ** (j + 1) <= i:
            j += 1
        digits.append((0, 0) if j % 2 == 0 else (0, 2))
    return DigitWord.truncation(digits)


def _digit_loop_expansions(r, base):
    """`base_expansions` with its preperiod made one digit at a time, as it
    was first written: long division on integer remainders until the first
    remainder that q1, the part of the denominator made of the base's
    primes, divides."""
    if r == 0:
        return [((), (0,))]
    if r == 1:
        return [((), (base - 1,))]
    q = r.denominator
    q1 = math.gcd(q, base)
    while (grown := math.gcd(q, q1 * q1)) != q1:
        q1 = grown
    pre, per, x = [], [], r.numerator
    while x % q1:
        d, x = divmod(x * base, q)
        pre.append(d)
    start = x
    while not per or x != start:
        d, x = divmod(x * base, q)
        per.append(d)
    pre, per = tuple(pre), tuple(per)
    out = [(pre, per)]
    if per == (0,):
        term = list(pre)
        while term and term[-1] == 0:
            term.pop()
        term[-1] -= 1
        out.append((tuple(term), (base - 1,)))
    return out


def _ref_base_expansions(r, base):
    """Long division over Fractions, each remainder kept in a dict until one repeats."""
    if r == 0:
        return [((), (0,))]
    if r == 1:
        return [((), (base - 1,))]
    seen, digits, x = {}, [], r
    while x not in seen:
        seen[x] = len(digits)
        x *= base
        digits.append(int(x))
        x -= int(x)
    pre, per = tuple(digits[: seen[x]]), tuple(digits[seen[x]:])
    out = [(pre, per)]
    if per == (0,):
        term = list(pre)
        while term and term[-1] == 0:
            term.pop()
        term[-1] -= 1
        out.append((tuple(term), (base - 1,)))
    return out
