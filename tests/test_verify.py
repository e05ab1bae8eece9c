import dataclasses
import itertools
import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import carpetdim.shrinking as shrinking
import carpetdim.verify as verify
from carpetdim import (
    DigitWord,
    RateSchedule,
    build_cover,
    build_lower_bound_measure,
    brute_force_window_set,
    check_containment_backward,
    check_containment_forward,
    check_set_relation,
    exhaustive_relation_check,
    holder_exponent_samples,
    make_target,
    oracle_window_report,
    pattern_window_set,
    random_words,
    target_from_word,
    validate_ifs,
    window_hit,
)
from carpetdim.errors import (
    BadBreakPointsError,
    DepthTooLargeError,
    EnumerationTooLargeError,
    RadiusTooSmallError,
    ThresholdNotMetError,
)

from carpetdim.grid import pair_value
from carpetdim.verify import require_enumerable


@pytest.fixture(scope="module")
def origin(vicsek):
    return make_target(vicsek, 0, 0)


@pytest.fixture(scope="module")
def corner_origin(corner):
    return make_target(corner, 0, 0)


class TestContainment:
    def test_exact_continuation_inside_and_member(self, vicsek, origin, linear12):
        n = 3
        word = DigitWord.periodic([(1, 1)] * 3, [(0, 0)])
        rep_f = check_containment_forward(vicsek, origin, linear12, n, [word])
        assert rep_f.passed and rep_f.details["inside"] == 1
        rep_b = check_containment_backward(vicsek, origin, linear12, n, [word])
        assert rep_b.passed and rep_b.details["window_hits"] == 1

    def test_double_deviation_outside_and_nonmember(self, vicsek, origin, linear12):
        n = 3
        word = DigitWord.periodic([(1, 1)] * 3, [(2, 2)])
        assert not window_hit(vicsek, origin, linear12, n, word)
        # the shifted word is the point (1, 1), farther than 1/27 from the origin
        x, _, den, width = word.shift(n).hull(3)
        assert width == 0 and 27 * x > den

    def test_hulls_on_the_rectangle_edge(self, vicsek, origin, linear12):
        # at n = 3 the closed rectangle is [-1/27, 1/27] x [-1/729, 1/729]
        n = 3
        # shifted point (0.000222..., 0) = (1/27, 0) on the edge: inside
        on_edge = DigitWord.periodic([(1, 1)] * 3 + [(0, 0)] * 3, [(2, 0)])
        # shifted square [1/729, 1/729 + 3^-8]^2 meets the edge y = 1/729 only: skipped
        touching = DigitWord.truncation([(1, 1)] * 3 + [(0, 0)] * 5 + [(1, 1)] + [(0, 0)] * 2)
        rep = check_containment_forward(vicsek, origin, linear12, n, [on_edge, touching])
        assert rep.passed and rep.details["inside"] == 1 and rep.skipped == 1

    def test_random_sampling_has_no_violations(self, vicsek, origin, linear12):
        n = 4
        rng = random.Random(7)
        words = random_words(vicsek, origin, linear12, n, 800, n + 8 + 5, rng)
        rep_f = check_containment_forward(vicsek, origin, linear12, n, words)
        rep_b = check_containment_backward(vicsek, origin, linear12, n, words)
        assert rep_f.passed and rep_b.passed
        assert rep_b.details["window_hits"] > 0

    def test_small_exhaustive_corner(self, corner, corner_origin, linear12):
        words = [DigitWord.truncation(p)
                 for p in itertools.product(corner.sorted_digits(), repeat=8)]
        assert len(words) == 3 ** 8
        rep_f = check_containment_forward(corner, corner_origin, linear12, 2, words)
        rep_b = check_containment_backward(corner, corner_origin, linear12, 2, words)
        assert rep_f.passed and rep_b.passed
        assert rep_f.details["inside"] > 0

    def test_exhaustive_at_depth_nine(self, vicsek, origin, linear12):
        # 5^9 words, checked once per tail behind the 5^3 prefixes
        rep_f, rep_b = verify.containment_exhaustive_reports(vicsek, origin, linear12, 0, 3, 9)
        assert rep_f.passed and rep_b.passed
        assert rep_f.checked == 5 ** 9
        assert rep_f.details["inside"] > 0 and rep_b.details["window_hits"] == rep_b.checked > 0

    def test_sampled_words_are_read_once(self, vicsek, linear12, monkeypatch):
        # both reports come from one numeral read per word, plus the target's
        # window numerals once per stage
        target, calls = make_target(vicsek, 0, 0), []

        def counted(pairs, base):
            calls.append(1)
            return pair_value(pairs, base)

        for module in [m for name, m in sys.modules.items() if name.startswith("carpetdim")]:
            if getattr(module, "pair_value", None) is pair_value:
                monkeypatch.setattr(module, "pair_value", counted)
        reports = verify.containment_reports(vicsek, target, linear12, 5, 8, 800, 29)
        assert all(r.passed for r in reports) and len(calls) <= 800 + 1


class TestSetRelation:
    def test_interior_spot_samples(self, vicsek, linear12):
        target = make_target(vicsek, Fraction(4, 9), Fraction(4, 9))
        rng = random.Random(3)
        digits = sorted(vicsek.digits)
        words = [
            DigitWord.periodic((), [rng.choice(digits) for _ in range(9)])
            for _ in range(300)
        ]
        rep = check_set_relation(vicsek, target, linear12, 3, words)
        assert rep.passed and rep.details["interior"]

    def test_interior_threshold(self, vicsek, linear12):
        target = make_target(vicsek, Fraction(4, 9), Fraction(4, 9))
        with pytest.raises(ThresholdNotMetError):
            check_set_relation(vicsek, target, linear12, 1, [])

    def test_boundary_witness_carries_shift(self, vicsek, origin, linear12):
        # shifted point sits at 1 exactly; the witness translate is one box over
        n = 3
        word = DigitWord.periodic([(0, 0)] * 3, [(2, 2)])
        rep = check_set_relation(vicsek, origin, linear12, n, [word])
        assert rep.passed
        assert rep.details["nonzero_shift_witnesses"] >= 1

    def test_exhaustive_small_matches_general(self, vicsek, origin, linear12):
        interior = make_target(vicsek, Fraction(4, 9), Fraction(4, 9))
        digits = sorted(vicsek.digits)
        tails = [digits[0], digits[-1]]
        words = [
            DigitWord.periodic(p, (t,))
            for p in itertools.product(digits, repeat=4)
            for t in tails
        ]
        for target, boundary in ((origin, True), (interior, False)):
            fast = exhaustive_relation_check(vicsek, target, linear12, 2, 4)
            slow = check_set_relation(vicsek, target, linear12, 2, words)
            assert fast.passed and slow.passed
            assert fast.checked == len(words)
            assert fast.details == slow.details
            assert (fast.details["nonzero_shift_witnesses"] > 0) == boundary

    def test_entry_points_report_the_same_failures(self, monkeypatch):
        # the relation only breaks below the interior thresholds
        monkeypatch.setattr(verify, "_interior_thresholds", lambda *args: None)
        ifs = validate_ifs(2, [(0, 0), (0, 1), (1, 0)])
        target = target_from_word(ifs, DigitWord.periodic((), [(1, 0), (0, 1)]))
        schedule = RateSchedule.linear(1, 1)
        digits = ifs.sorted_digits()
        words = [
            DigitWord.periodic(p, (t,))
            for p in itertools.product(digits, repeat=3)
            for t in (digits[0], digits[-1])
        ]
        fast = exhaustive_relation_check(ifs, target, schedule, 1, 3)
        slow = check_set_relation(ifs, target, schedule, 1, words)

        def failures(report):
            return Counter(
                (tuple(map(tuple, f["word"]["preperiod"])), tuple(map(tuple, f["word"]["period"])),
                 f["reason"])
                for f in report.failures
            )

        assert fast.checked == slow.checked == len(words) == 54
        assert failures(fast) == failures(slow)
        # every broken condition of a word is recorded, not only the first
        assert Counter(f["reason"] for f in fast.failures) == {
            "interior equivalence broken: eq1=False eq2=True": 4,
            "interior witness with nonzero shift": 4,
        }

    def test_enumeration_guard(self, vicsek, origin, linear12):
        with pytest.raises(EnumerationTooLargeError):
            exhaustive_relation_check(vicsek, origin, linear12, 2, 30)

    def test_enumeration_guard_compares_exponents(self, vicsek):
        # 5^10 <= 10^7 < 5^11; 5^(10^12) is never built
        require_enumerable(vicsek, 10)
        for k in (11, 10 ** 12):
            with pytest.raises(EnumerationTooLargeError, match=f"5\\^{k} words"):
                require_enumerable(vicsek, k)


class TestWindowOracle:
    def test_vicsek_origin_small(self, vicsek, origin):
        sch = RateSchedule.from_tables([1, 2], [2, 4])
        for n in (1, 2):
            rep = oracle_window_report(vicsek, origin, sch, n)
            assert rep.passed, rep.failures

    def test_pattern_set_equals_brute_set(self, corner, corner_origin):
        sch = RateSchedule.from_tables([2, 2, 3], [3, 4, 5])
        for n in (1, 2, 3):
            assert pattern_window_set(corner, corner_origin, sch, n) == brute_force_window_set(
                corner, corner_origin, sch, n
            )

    def test_corrupted_predicate_is_caught(self, vicsek, origin, monkeypatch):
        # negative control: a predicate that refuses deviations shrinks the
        # brute-force side, and the oracle comparison must notice
        def exact_only(base, target_digits, word_digits):
            return tuple(target_digits) == tuple(word_digits)

        monkeypatch.setattr(shrinking, "axis_digits_admissible", exact_only)
        sch = RateSchedule.from_tables([1, 2], [2, 4])
        rep = oracle_window_report(vicsek, origin, sch, 2)
        assert not rep.passed
        assert rep.failures[0]["reason"] == "window sets differ"


class TestCover:
    def test_cover_matches_direct_enumeration(self, vicsek, origin, linear12):
        n, j = 2, 3
        family = build_cover(vicsek, origin, linear12, n, j)
        # oracle: walk every depth-6 truncation through the membership test
        corners = set()
        for word in map(DigitWord.truncation, itertools.product(vicsek.sorted_digits(), repeat=6)):
            if window_hit(vicsek, origin, linear12, n, word):
                digits = word.preperiod[: n + j]
                xn = yn = 0
                for u, v in digits:
                    xn = xn * 3 + u
                    yn = yn * 3 + v
                corners.add((xn, yn))
        assert family.corners == tuple(sorted(corners))
        assert len(family.corners) <= family.cardinality_bound

    def test_minimal_stage_cover(self, vicsek, origin, linear12):
        family = build_cover(vicsek, origin, linear12, 1, 2)
        assert family.corners and len(family.corners) <= family.cardinality_bound

    def test_depth_range_validated(self, vicsek, origin, linear12):
        with pytest.raises(ValueError):
            build_cover(vicsek, origin, linear12, 2, 1)


def _direct_mass_table(builder, depth):
    """Independent oracle: apply the three mass rules by plain recursion."""
    ifs = builder.ifs
    schedule = builder.schedule
    bps = builder.break_points
    table = {(): Fraction(1)}
    for level in range(1, depth + 1):
        rule = None
        for n_k in bps:
            lam_k, xi_k = schedule.lam(n_k), schedule.xi(n_k)
            if n_k < level <= n_k + lam_k + 2:
                rule = ("point", builder.spines[n_k][level - n_k - 1])
                break
            if n_k + lam_k + 2 < level <= n_k + xi_k + 2:
                rule = ("row", builder.spines[n_k][level - n_k - 1].v)
                break
        nxt = {}
        for prefix, mass in table.items():
            if rule is None:
                for pair in ifs.sorted_digits():
                    nxt[prefix + (pair,)] = mass / len(ifs.digits)
            elif rule[0] == "point":
                nxt[prefix + (rule[1],)] = mass
            else:
                row = sorted(ifs.row_set(rule[1]))
                for pair in row:
                    nxt[prefix + (pair,)] = mass / len(row)
        table = nxt
    return table


def _enumerate_level(builder, level):
    """Every positive cylinder of a level with its exact mass."""
    slots = [sorted(support) for support in builder.supports[:level]]
    support = math.prod(map(len, slots))
    if support > 10 ** 6:
        raise EnumerationTooLargeError(f"level {level} support has {support} cylinders")
    for prefix in itertools.product(*slots):
        yield prefix, builder.mass(*pair_value(prefix, builder.ifs.base), len(prefix))


def _point_phase_mass_explicit(builder, k):
    """The mass of a positive cell just past break point k from the closed
    bookkeeping formula: uniform levels contribute 1/#J each, earlier
    row-split phases their row sizes."""
    n_k = builder.break_points[k]
    uniform_levels = n_k - sum(
        builder.schedule.xi(builder.break_points[i]) + 2 for i in range(k)
    )
    m = Fraction(1, len(builder.ifs.digits) ** uniform_levels)
    for l in range(k):
        n_l = builder.break_points[l]
        lam_l, xi_l = builder.schedule.lam(n_l), builder.schedule.xi(n_l)
        spine = builder.spines[n_l]
        for i in range(lam_l + 3, xi_l + 3):
            m *= Fraction(1, builder.ifs.row_size(spine[i - 1].v))
    return m


@pytest.fixture(scope="module")
def measure(vicsek, linear12):
    origin = make_target(vicsek, 0, 0)
    return build_lower_bound_measure(vicsek, origin, linear12, [3, 17], 2)


class TestMeasure:
    def test_level_sums_are_exactly_one(self, measure):
        assert measure.depth == 17 + 34 + 2
        for m in range(1, 14):
            assert sum(mass for _, mass in _enumerate_level(measure, m)) == 1
        assert all(measure.supports)

    def test_against_direct_recursion(self, measure):
        # level 13 spans all three phases: uniform, follow-the-word, row split
        table = _direct_mass_table(measure, 13)
        assert sum(table.values()) == 1
        for prefix, mass in list(table.items())[:500]:
            assert measure.mass(*pair_value(prefix, 3), len(prefix)) == mass
        enumerated = dict(_enumerate_level(measure, 13))
        assert enumerated == {p: m for p, m in table.items() if m > 0}
        assert sum(enumerated.values()) == 1

    def test_uniform_levels_before_first_break(self, measure):
        for prefix, mass in _enumerate_level(measure, 3):
            assert mass == Fraction(1, 125)

    def test_point_phase_mass_and_formula_agree(self, measure):
        for k in range(2):
            n_k = measure.break_points[k]
            assert Fraction(1, measure.sizes[n_k]) == _point_phase_mass_explicit(measure, k)

    @pytest.mark.parametrize("level", ["point-phase", "row-phase", "uniform"])
    def test_normalization_fails_on_a_corrupted_builder(self, vicsek, linear12, monkeypatch, level):
        # each corruption keeps every support nonempty and the sizes consistent
        def corrupted(*args):
            builder = build_lower_bound_measure(*args)
            n_k = builder.break_points[0]
            i = {"point-phase": n_k, "row-phase": n_k + linear12.lam(n_k) + 2, "uniform": 0}[level]
            pair = min(builder.supports[i])
            swap = {"point-phase": vicsek.row_set(pair.v), "row-phase": frozenset((pair,)),
                    "uniform": frozenset((pair,))}[level]
            builder.supports[i] = swap
            builder.sizes[:] = itertools.accumulate(map(len, builder.supports), operator.mul, initial=1)
            return builder

        monkeypatch.setattr(verify, "build_lower_bound_measure", corrupted)
        origin = make_target(vicsek, 0, 0)
        norm = verify.measure_reports(vicsek, origin, linear12, 0, [3, 17], 2, 0.05)[0]
        assert not norm.passed
        assert {"reason": "level support differs from the construction"} in norm.failures

    def test_mass_bound_holds(self, measure):
        assert measure.mass_bound_holds(0)
        assert measure.mass_bound_holds(1)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mass_bound_is_the_big_integer_comparison(self, measure, data):
        # levels drawn from the three support kinds, so the bound fails too
        ifs = validate_ifs(4, data.draw(st.sampled_from(
            [[(0, 0), (1, 0), (2, 0), (0, 1), (3, 3)], [(0, 0), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2)]])))
        kinds = [ifs.digits] + [frozenset((p,)) for p in ifs.digits] + [
            ifs.row_set(a) for a in range(4) if ifs.row_size(a) > 1]
        supports = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12))
        delta = Fraction(data.draw(st.integers(2, 40)), data.draw(st.integers(1, 20)))
        assume(delta > 1)
        n_k = data.draw(st.integers(1, len(supports)))
        sizes = list(itertools.accumulate(map(len, supports), operator.mul, initial=1))
        builder = dataclasses.replace(measure, ifs=ifs, break_points=(n_k,), delta=delta,
                                      supports=supports, sizes=sizes)
        p, q = delta.numerator, delta.denominator
        assert builder.mass_bound_holds(0) == (len(ifs.digits) ** (n_k * (p - q)) <= sizes[n_k] ** p)

    def test_break_point_conditions_enforced(self, vicsek, linear12):
        origin = make_target(vicsek, 0, 0)
        with pytest.raises(BadBreakPointsError):
            build_lower_bound_measure(vicsek, origin, linear12, [3, 12], 2)
        with pytest.raises(BadBreakPointsError):
            build_lower_bound_measure(vicsek, origin, linear12, [3, 17], Fraction(1, 2))

    def test_argmin_below_xi_settles_exact_ties_on_lam(self):
        # uniform-fibre carpet: rows 0 and 1 hold two pairs each, so with
        # lam(n) = n + 1 every depth gives the quotient 1/2 exactly
        ifs = validate_ifs(4, [(0, 0), (1, 0), (0, 1), (1, 1)])
        target = make_target(ifs, 0, 0)
        table = range(1, 41)
        sch = RateSchedule.from_tables([n + 1 for n in table], [2 * n for n in table])
        for n in (3, 10, 40):
            kernel = shrinking.StageKernel(ifs, target, sch, n)
            assert kernel.argmin(kernel.xi - 1)[0] == n + 1

    def test_argmin_below_xi_is_lam_when_xi_equals_lam(self, vicsek):
        origin = make_target(vicsek, 0, 0)
        sch = RateSchedule.linear(1, 1)
        for n in (1, 4, 9):
            kernel = shrinking.StageKernel(vicsek, origin, sch, n)
            assert kernel.argmin(kernel.xi - 1)[0] == n

    def test_depth_guard(self, measure):
        # the last phase ends at depth 53; one level past it has no support
        word = measure.support_word(measure.depth)
        kx, ky = pair_value(word.pairs_up_to(measure.depth), 3)
        assert measure.mass(kx, ky, measure.depth) > 0
        with pytest.raises(DepthTooLargeError):
            measure.mass(3 * kx, 3 * ky, measure.depth + 1)
        with pytest.raises(DepthTooLargeError):
            measure.mass(0, 0, -1)
        for upto in (0, measure.depth + 1):
            with pytest.raises(DepthTooLargeError):
                measure.support_word(upto)
        # every level-3 cell of the digit set is positive; the numerals -1 and
        # 3^3 read as such a cell's digits but lie outside [0, 3^3)
        assert measure.mass(0, 0, 3) > 0
        assert measure.mass(-1, 0, 3) == 0
        assert measure.mass(3 ** 3, 0, 3) == 0

    def test_support_word_has_positive_mass(self, measure):
        word = measure.support_word(measure.depth)
        assert measure.mass(*pair_value(word.preperiod[: measure.depth], 3), measure.depth) > 0

    def test_holder_exponents_clear_threshold(self, measure):
        points = [measure.support_word(measure.depth)]
        radii = [Fraction(1, 3 ** m) for m in range(4, measure.depth + 1)]
        samples = holder_exponent_samples(measure, points, radii)
        for s in samples:
            k = max(i for i, n_k in enumerate(measure.break_points) if n_k < s.level)
            threshold = 0.5 * measure.stage_values[measure.break_points[k]] - 0.05
            assert s.exponent >= threshold, (s.level, s.exponent, threshold)

    def test_point_phase_ball_mass_is_the_cylinder_mass(self, measure):
        # inside the follow-the-word phase the ball meets one positive box
        word = measure.support_word(measure.depth)
        level = measure.break_points[0] + 2
        r = Fraction(1, 3 ** level)
        (sample,) = holder_exponent_samples(measure, [word], [r])
        point_mass = Fraction(1, measure.sizes[measure.break_points[0]])
        assert point_mass == _point_phase_mass_explicit(measure, 0)
        assert point_mass <= sample.ball_mass <= 9 * point_mass

    @given(
        st.lists(st.tuples(st.sampled_from([(u, v) for u in range(3) for v in range(3)]),
                           st.integers(min_value=1, max_value=25)), max_size=4),
        st.lists(st.sampled_from([(0, 0), (2, 2), (2, 0), (1, 1), (0, 1)]), min_size=1, max_size=2),
        st.integers(min_value=0, max_value=52),
        st.integers(min_value=334, max_value=1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_ball_mass_is_the_cell_sum(self, measure, runs, period, m, permille):
        # any point, also on the top or right edge and with long runs of 0 or 2
        # (the carries of a neighbouring cell), and radii between the powers of 3
        word = DigitWord.periodic([p for p, k in runs for _ in range(k)], period)
        r = Fraction(min(permille, 999 if m == 0 else 1000), 1000 * 3 ** m)
        (sample,) = holder_exponent_samples(measure, [word], [r])
        x, y = word.point(3)
        scale = 3 ** sample.level
        assert Fraction(1, 3 * scale) < r <= Fraction(1, scale)
        cells = [range(max(0, math.ceil((c - r) * scale) - 1), min(scale - 1, math.floor((c + r) * scale)) + 1)
                 for c in (x, y)]
        assert sample.ball_mass == sum(measure.mass(kx, ky, sample.level)
                                       for kx in cells[0] for ky in cells[1])

    def test_radius_guards(self, measure):
        word = measure.support_word(measure.depth)
        with pytest.raises(RadiusTooSmallError):
            holder_exponent_samples(measure, [word], [Fraction(1, 3 ** (measure.depth + 1))])
        with pytest.raises(RadiusTooSmallError):
            holder_exponent_samples(measure, [word], [Fraction(2)])


class TestDraw:
    # sizes 2^j reject about half the raw draws: getrandbits takes j + 1 bits
    SIZES = st.one_of(st.integers(min_value=1, max_value=70), st.sampled_from([128, 129, 1000]))
    SEEDS = st.integers(min_value=0, max_value=2 ** 64)

    @given(SEEDS, SIZES, st.integers(min_value=0, max_value=40))
    @settings(max_examples=400, deadline=None)
    def test_same_picks_and_state_as_choice(self, seed, size, count):
        seq = [f"s{i}" for i in range(size)]
        rng, ref = random.Random(seed), random.Random(seed)
        assert verify._draw(rng, [seq] * count) == [ref.choice(seq) for _ in range(count)]
        assert rng.getstate() == ref.getstate()

    @given(SEEDS, st.lists(SIZES, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_one_pick_from_each_sequence(self, seed, sizes):
        seqs = [range(size) for size in sizes]
        rng, ref = random.Random(seed), random.Random(seed)
        assert verify._draw(rng, seqs) == [ref.choice(seq) for seq in seqs]
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("size", [2 ** j for j in range(11)])
    def test_powers_of_two(self, size):
        seq = range(size)
        rng, ref = random.Random(size), random.Random(size)
        assert verify._draw(rng, [seq] * 200) == [ref.choice(seq) for _ in range(200)]
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seqs", [[[]], [[], [1]], [[1, 2], []]], ids=["empty", "first", "second"])
    def test_empty_sequence_raises(self, seqs):
        with pytest.raises(IndexError):
            verify._draw(random.Random(0), seqs)
