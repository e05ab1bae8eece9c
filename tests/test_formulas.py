import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetdim import (
    DigitWord,
    RateSchedule,
    alternating_block_word,
    closed_form_dimension,
    closed_form_for,
    frequency_slice_value,
    make_target,
    ratio_limsup_dimension,
    target_from_word,
    validate_ifs,
)
from carpetdim import formulas, grid
from carpetdim.errors import FrequenciesDoNotExistError, InvalidRatesError

GAMMA = math.log(5) / math.log(3)
CANTOR = math.log(2) / math.log(3)


class TestClosedForm:
    """`closed_form_dimension` gives the value; `closed_form_for` labels its
    branch, exactly."""

    def test_vicsek_origin_value(self, vicsek):
        value = closed_form_dimension(GAMMA, CANTOR, 1, 2)
        assert value == pytest.approx(min(GAMMA / 2, (GAMMA + CANTOR) / 3), abs=1e-15)
        assert value == pytest.approx(0.6986344247631281, abs=1e-12)
        origin = make_target(vicsek, 0, 0)
        assert closed_form_for(vicsek, origin, RateSchedule.linear(1, 2))[:2] == (value, "xi")

    def test_equal_rates_collapse(self, vicsek):
        value = closed_form_dimension(GAMMA, CANTOR, 2, 2)
        assert value == pytest.approx(GAMMA / 3, abs=1e-15)
        origin = make_target(vicsek, 0, 0)
        assert closed_form_for(vicsek, origin, RateSchedule.linear(2, 2))[:2] == (value, "both")

    def test_zero_slice_gives_xi_branch(self, vicsek):
        # the centre's rows are all the one-pair middle row: a zero slice term
        value = closed_form_dimension(GAMMA, 0.0, 1, 2)
        assert value == pytest.approx(GAMMA / 3, abs=1e-15)
        centre = make_target(vicsek, Fraction(1, 2), Fraction(1, 2))
        assert closed_form_for(vicsek, centre, RateSchedule.linear(1, 2))[:2] == (value, "xi")

    def test_monotone_in_slice_term(self):
        values = [closed_form_dimension(GAMMA, g2, 1, 2) for g2 in
                  [0.0, 0.1, 0.2, 0.4, 0.6, CANTOR]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_continuity_at_equal_rates(self):
        at_eq = closed_form_dimension(GAMMA, CANTOR, 1, 1)
        near = closed_form_dimension(GAMMA, CANTOR, 1, Fraction(101, 100))
        assert at_eq == pytest.approx(GAMMA / 2, abs=1e-15)
        assert abs(near - at_eq) < 0.01

    def test_rate_order_enforced(self):
        with pytest.raises(InvalidRatesError):
            closed_form_dimension(GAMMA, CANTOR, 2, 1)


class TestSpecialCase:
    """The constant-row form: `closed_form_for` on a target whose row digits
    are constant 0 (or constant high)."""

    def test_vicsek_bottom_row_matches_general_form(self, vicsek):
        value, branch, source = closed_form_for(vicsek, make_target(vicsek, 0, 0),
                                                RateSchedule.linear(1, 2))
        general = closed_form_dimension(GAMMA, CANTOR, 1, 2)
        assert (value, branch, source) == (general, "xi", "zero-row-target")

    def test_single_pair_row_drops_slice_term(self):
        ifs = validate_ifs(3, [(0, 0), (1, 1), (2, 1)])
        gamma = ifs.attractor_dimension()
        value, _, source = closed_form_for(ifs, make_target(ifs, 0, 0), RateSchedule.linear(1, 2))
        assert source == "zero-row-target"
        assert value == pytest.approx(gamma / 3, abs=1e-15)

    def test_corner_top_row(self, corner):
        # the top row holds a single pair, so its log vanishes
        gamma = corner.attractor_dimension()
        value, _, source = closed_form_for(corner, make_target(corner, 0, 1),
                                           RateSchedule.linear(1, 2))
        assert source == "top-row-target"
        assert value == pytest.approx(gamma / 3, abs=1e-15)


class TestErgodic:
    """Typical targets of a shift-invariant measure: `closed_form_dimension`
    of the `frequency_slice_value` of its row marginals."""

    def test_uniform_bernoulli_on_vicsek(self, vicsek):
        probs = {0: Fraction(2, 5), 1: Fraction(1, 5), 2: Fraction(2, 5)}
        value = closed_form_dimension(GAMMA, frequency_slice_value(vicsek, probs), 1, 2)
        gamma2 = Fraction(4, 5) * CANTOR
        expected = min(GAMMA / 2, (GAMMA + float(gamma2)) / 3)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_point_mass_reduces_to_bottom_row(self, vicsek):
        probs = {0: 1, 1: 0, 2: 0}
        value = closed_form_dimension(GAMMA, frequency_slice_value(vicsek, probs), 1, 2)
        special = closed_form_for(vicsek, make_target(vicsek, 0, 0), RateSchedule.linear(1, 2))
        assert value == special[0]

    def test_middle_row_mass_gives_zero_slice(self, vicsek):
        value = closed_form_dimension(GAMMA, frequency_slice_value(vicsek, {1: 1}), 1, 2)
        assert value == pytest.approx(GAMMA / 3, abs=1e-15)

    def test_mass_on_empty_row(self, corner):
        # an uninhabited row has log size -inf, a slice value the closed form refuses
        with pytest.raises(ValueError):
            closed_form_dimension(corner.attractor_dimension(),
                                  frequency_slice_value(corner, {1: 1}), 1, 2)


class TestRatioLimsup:
    def test_linear_matches_closed_form(self, vicsek):
        target = target_from_word(vicsek, DigitWord.periodic([], [(0, 0), (1, 1), (2, 2)]))
        schedule = RateSchedule.linear(1, 2)
        got = ratio_limsup_dimension(vicsek, target, schedule, range(1, 201))
        cf = closed_form_for(vicsek, target, schedule)[0]
        assert abs(got - cf) <= 1e-9

    def test_alternating_blocks_pick_the_better_ratio(self, vicsek):
        target = target_from_word(vicsek, DigitWord.periodic([], [(0, 0), (1, 1), (2, 2)]))
        schedule = RateSchedule.alternating([(1, 2), (2, 2)], block_base=4)
        got = ratio_limsup_dimension(vicsek, target, schedule, range(1, 300))
        gamma2 = (2 / 3) * CANTOR
        better = min(GAMMA / 2, (GAMMA + gamma2) / 3)
        assert got == pytest.approx(better, abs=1e-12)

    def test_single_stage(self, vicsek):
        target = target_from_word(vicsek, DigitWord.periodic([], [(0, 0), (1, 1), (2, 2)]))
        schedule = RateSchedule.linear(1, 2)
        gamma2 = (2 / 3) * CANTOR
        expected = min(GAMMA / 2, (GAMMA + gamma2) / 3)
        assert ratio_limsup_dimension(vicsek, target, schedule, [7]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_block_target_refused(self, corner):
        target = target_from_word(corner, alternating_block_word(depth=64))
        with pytest.raises(FrequenciesDoNotExistError):
            ratio_limsup_dimension(corner, target, RateSchedule.linear(1, 2), [4])

    def test_constant_zero_rows_refused(self, vicsek):
        target = make_target(vicsek, 0, 0)
        with pytest.raises(FrequenciesDoNotExistError):
            ratio_limsup_dimension(vicsek, target, RateSchedule.linear(1, 2), [4])


class TestClosedFormRouting:
    def test_origin_routes_to_bottom_row(self, vicsek):
        target = make_target(vicsek, 0, 0)
        value, branch, source = closed_form_for(vicsek, target, RateSchedule.linear(1, 2))
        assert source == "zero-row-target"
        assert value == pytest.approx(0.6986344247631281, abs=1e-12)

    def test_top_routes_to_top_row(self, vicsek):
        target = make_target(vicsek, 1, 1)
        value, branch, source = closed_form_for(vicsek, target, RateSchedule.linear(1, 2))
        assert source == "top-row-target"
        assert value == pytest.approx(0.6986344247631281, abs=1e-12)

    def test_center_routes_to_frequency_form(self, vicsek):
        target = make_target(vicsek, Fraction(1, 2), Fraction(1, 2))
        value, branch, source = closed_form_for(vicsek, target, RateSchedule.linear(1, 2))
        assert source == "frequency-closed-form"
        assert value == pytest.approx(GAMMA / 3, abs=1e-12)

    def test_degenerate_height_gets_none(self, vicsek):
        # the representative of height 4/9 ends in the top row forever but
        # the height is neither 0 nor 1: no closed form is claimed
        target = make_target(vicsek, Fraction(4, 9), Fraction(4, 9))
        assert target.frequency_map()[2] == 1
        assert closed_form_for(vicsek, target, RateSchedule.linear(1, 2)) is None

    def test_nonlinear_schedule_gets_none(self, vicsek):
        target = make_target(vicsek, 0, 0)
        schedule = RateSchedule.alternating([(1, 2)])
        assert closed_form_for(vicsek, target, schedule) is None

    def test_truncation_target_gets_none(self, corner):
        target = target_from_word(corner, alternating_block_word(depth=64))
        assert closed_form_for(corner, target, RateSchedule.linear(1, 2)) is None

    def test_exact_branch_tie_is_both(self):
        # base 25 with five pairs in every row: both branches are exactly 1/2
        ifs = validate_ifs(25, [(u, v) for u in range(5) for v in range(25)])
        got = closed_form_for(ifs, make_target(ifs, 0, 0), RateSchedule.linear(2, 3))
        assert got == (0.5, "both", "zero-row-target")


@st.composite
def closed_form_cases(draw):
    b = draw(st.integers(min_value=2, max_value=4))
    cells = [(u, v) for u in range(b) for v in range(b)]
    size = draw(st.integers(min_value=2, max_value=b * b - 1))
    ifs = validate_ifs(b, draw(st.permutations(cells))[:size])
    digits = sorted(ifs.digits)
    per = draw(st.lists(st.sampled_from(digits), min_size=1, max_size=4))
    target = target_from_word(ifs, DigitWord.periodic([], per))
    lam = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    xi = lam + Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 3)))
    return ifs, target, RateSchedule.linear(lam, xi)


@given(closed_form_cases())
@settings(max_examples=200, deadline=None)
def test_exact_branch_matches_clearly_separated_floats(case):
    ifs, target, schedule = case
    got = closed_form_for(ifs, target, schedule)
    if got is None:
        return
    lam, xi = (float(schedule.params[k]) for k in ("lam", "xi"))
    gamma = ifs.attractor_dimension()
    gamma2 = frequency_slice_value(ifs, target.frequency_map())
    gap = gamma / (1 + lam) - (gamma + (xi - lam) * gamma2) / (1 + xi)
    if abs(gap) > 1e-9:
        assert got[1] == ("xi" if gap > 0 else "lambda")
    if lam == xi:
        assert got[1] == "both"


def _ref_branch(ifs, freqs, lam, xi):
    """The branch by `GridIFS.log_sign` alone, on the weights scaled to
    integers by the lcm of their denominators."""
    lam, xi = Fraction(lam), Fraction(xi)
    slice_counts = [-(1 + lam) * freqs.get(a, 0) for a in range(ifs.base)]
    w = [(xi - lam) * Fraction(e) for e in ifs.exponents(slice_counts, 1)]
    scale = math.lcm(*(e.denominator for e in w))
    sign = ifs.log_sign([int(e * scale) for e in w])
    return "both" if sign == 0 else "xi" if sign > 0 else "lambda"


@given(closed_form_cases())
@settings(max_examples=200, deadline=None)
def test_float_branch_sign_matches_log_sign(case):
    ifs, target, schedule = case
    freqs = target.frequency_map()
    lam, xi = schedule.params["lam"], schedule.params["xi"]
    expected = _ref_branch(ifs, freqs, lam, xi)
    assert formulas._exact_branch(ifs, freqs, lam, xi) == expected
    # an infinite rounding bound sends every nonzero sign to the big-integer powers
    with mock.patch.object(grid, "_SIGN_ROUNDING", math.inf):
        assert formulas._exact_branch(ifs, freqs, lam, xi) == expected


@pytest.mark.parametrize("lam", ["1e-6", "1e-8", "1e-300"])
def test_tiny_lambda_rate_decides_its_branch_at_once(vicsek, lam):
    # the lcm of the weights' denominators is about 1/lam: `log_sign` alone
    # took 1 s at 1e-6 and never finished at 1e-300
    target = make_target(vicsek, Fraction(1, 2), Fraction(1, 2))
    start = time.perf_counter()
    got = closed_form_for(vicsek, target, RateSchedule.linear(Fraction(lam), 2))
    assert time.perf_counter() - start < 1.0
    assert got[1:] == ("xi", "frequency-closed-form")
