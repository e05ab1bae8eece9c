"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them in order)."""

import itertools
import math
import random
import time
from fractions import Fraction

from carpetdim import (
    DigitWord,
    RateSchedule,
    alternating_block_word,
    build_lower_bound_measure,
    check_containment_backward,
    check_containment_forward,
    closed_form_dimension,
    closed_form_for,
    dimension_report,
    exhaustive_relation_check,
    holder_exponent_samples,
    make_target,
    oracle_window_report,
    random_words,
    row_agreement_length,
    stage_exponent,
    target_from_word,
    validate_ifs,
)

from conftest import CORNER_PAIRS, VICSEK_PAIRS

GAMMA = math.log(5) / math.log(3)
CANTOR = math.log(2) / math.log(3)
CLOSED_FORM_ORIGIN = min(GAMMA / 2, (GAMMA + CANTOR) / 3)


def _criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} [{label}] failed {suffix}"


def test_criterion_1_golden_values(vicsek):
    start = time.perf_counter()
    dim_ok = abs(vicsek.attractor_dimension() - GAMMA) <= 1e-12

    origin = make_target(vicsek, 0, 0)
    schedule = RateSchedule.linear(1, 2)
    value, branch, _ = closed_form_for(vicsek, origin, schedule)
    origin_ok = abs(value - CLOSED_FORM_ORIGIN) <= 1e-12 and branch == "xi"
    direct = closed_form_dimension(GAMMA, CANTOR, 1, 2)
    origin_ok = origin_ok and abs(direct - CLOSED_FORM_ORIGIN) <= 1e-12

    center = make_target(vicsek, Fraction(1, 2), Fraction(1, 2))
    cvalue, _, _ = closed_form_for(vicsek, center, schedule)
    center_ok = abs(cvalue - GAMMA / 3) <= 1e-12

    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "golden values",
        dim_ok and origin_ok and center_ok and elapsed < 1.0,
        f"gamma={vicsek.attractor_dimension():.12f} origin={value:.12f} "
        f"center={cvalue:.12f} {elapsed:.2f}s",
    )


def test_criterion_2_convergence(vicsek, linear12):
    start = time.perf_counter()
    origin = make_target(vicsek, 0, 0)
    report = dimension_report(vicsek, origin, linear12, range(1, 401))
    # the stage values decrease toward the limit here, so the meaningful
    # estimate is the trailing-window maximum the report carries
    est_ok = abs(report.limsup_estimate - CLOSED_FORM_ORIGIN) <= 0.02
    tail = [r.value for r in report.records if r.n > 320]
    tail_ok = abs(max(tail) - CLOSED_FORM_ORIGIN) <= 0.01
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "convergence at n<=400",
        est_ok and tail_ok and elapsed < 60.0,
        f"estimate={report.limsup_estimate:.5f} closed={CLOSED_FORM_ORIGIN:.5f} "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_window_oracle_grid():
    start = time.perf_counter()
    systems = {
        "vicsek": validate_ifs(3, VICSEK_PAIRS),
        "corner": validate_ifs(3, CORNER_PAIRS),
        "two-row": validate_ifs(2, [(0, 0), (1, 1), (1, 0)]),
        "four-map": validate_ifs(3, [(0, 0), (1, 1), (2, 0), (2, 2)]),
    }
    targets = {
        "vicsek": [
            DigitWord.periodic([], [(0, 0)]),
            DigitWord.periodic([], [(1, 1)]),
            DigitWord.periodic([], [(0, 0), (2, 2)]),
        ],
        "corner": [
            DigitWord.periodic([], [(0, 0)]),
            DigitWord.periodic([], [(2, 0), (0, 2)]),
            alternating_block_word(depth=12),
        ],
        "two-row": [
            DigitWord.periodic([], [(0, 0)]),
            DigitWord.periodic([], [(1, 1), (0, 0)]),
        ],
        "four-map": [
            DigitWord.periodic([], [(1, 1)]),
            DigitWord.periodic([], [(0, 0), (2, 2)]),
            DigitWord.periodic([], [(2, 2)]),
        ],
    }
    schedules = [
        RateSchedule.from_tables([1, 1, 2, 2], [2, 3, 4, 5]),
        RateSchedule.from_tables([1, 2, 3, 4], [1, 2, 3, 4]),
        RateSchedule.from_tables([1, 2, 2, 3], [3, 4, 5, 6]),
        RateSchedule.from_tables([2, 2, 3, 4], [2, 3, 5, 6]),
        RateSchedule.from_tables([1, 1, 2, 2], [6, 6, 6, 6]),
    ]
    instances = 0
    mismatches = []
    for name, ifs in systems.items():
        for word in targets[name]:
            target = target_from_word(ifs, word)
            for schedule in schedules:
                for n in range(1, 5):
                    report = oracle_window_report(ifs, target, schedule, n)
                    instances += 1
                    if not report.passed:
                        mismatches.append((name, n, report.failures[:1]))
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "window oracle equality",
        not mismatches and instances >= 200 and elapsed < 120.0,
        f"{instances} instances, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_rectangle_sandwich(vicsek, corner, linear12):
    start = time.perf_counter()
    violations = 0

    corner_origin = make_target(corner, 0, 0)
    words = [DigitWord.truncation(p)
             for p in itertools.product(corner.sorted_digits(), repeat=10)]
    rep_f = check_containment_forward(corner, corner_origin, linear12, 3, words)
    rep_b = check_containment_backward(corner, corner_origin, linear12, 3, words)
    violations += len(rep_f.failures) + len(rep_b.failures)
    exhaustive_count = rep_f.checked

    origin = make_target(vicsek, 0, 0)
    rng = random.Random(2024)
    samples = random_words(vicsek, origin, linear12, 8, 10_000, 29, rng)
    rep_rf = check_containment_forward(vicsek, origin, linear12, 8, samples)
    rep_rb = check_containment_backward(vicsek, origin, linear12, 8, samples)
    violations += len(rep_rf.failures) + len(rep_rb.failures)

    elapsed = time.perf_counter() - start
    _criterion(
        4,
        "rectangle sandwich",
        violations == 0 and exhaustive_count == 3 ** 10 and rep_rf.checked == 10_000,
        f"exhaustive {exhaustive_count}, random {rep_rf.checked}, "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_5_measure_construction(vicsek, linear12):
    start = time.perf_counter()
    origin = make_target(vicsek, 0, 0)
    builder = build_lower_bound_measure(vicsek, origin, linear12, [4, 21], 2)
    depth_ok = builder.depth == 21 + 42 + 2

    sums_ok = all(builder.supports)
    bounds_ok = all(builder.mass_bound_holds(k) for k in range(2))

    rng = random.Random(5)
    points = [builder.support_word(builder.depth)] + [
        builder.support_word(builder.depth, rng) for _ in range(2)
    ]
    radii = [Fraction(1, 3 ** m) for m in range(5, builder.depth + 1)]
    samples = holder_exponent_samples(builder, points, radii)
    holder_ok = True
    worst = math.inf
    for s in samples:
        k = max(i for i, n_k in enumerate(builder.break_points) if n_k < s.level)
        threshold = (1 - 1 / 2) * builder.stage_values[builder.break_points[k]] - 0.05
        worst = min(worst, s.exponent - threshold)
        if s.exponent < threshold:
            holder_ok = False
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        "measure construction",
        depth_ok and sums_ok and bounds_ok and holder_ok,
        f"depth={builder.depth} exact sums, mass bounds, "
        f"holder margin {worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_block_target_exceeds_naive_value(corner, linear12):
    start = time.perf_counter()
    target = target_from_word(corner, alternating_block_word(depth=12300))
    gamma = corner.attractor_dimension()
    expected = min(gamma / 2, (gamma + CANTOR) / 3)
    naive = gamma / 3

    ok = True
    values = {}
    for n in (16, 256, 4096):
        rec = stage_exponent(corner, target, linear12, n)
        values[n] = rec.value
        if abs(rec.value - expected) > 0.03 or rec.value <= naive + 0.05:
            ok = False
    elapsed = time.perf_counter() - start
    detail = " ".join(f"s_{n}={v:.4f}" for n, v in values.items())
    _criterion(
        6,
        "block target strict excess",
        ok,
        f"{detail} vs min-form {expected:.4f} and naive {naive:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_set_relations(vicsek, linear12):
    start = time.perf_counter()
    interior = make_target(vicsek, Fraction(4, 9), Fraction(4, 9))
    rep_int = exhaustive_relation_check(vicsek, interior, linear12, 3, 8)
    # every depth-8 prefix appears under two constant tail extensions
    interior_ok = rep_int.passed and rep_int.checked == 2 * 5 ** 8 and rep_int.details["interior"]

    origin = make_target(vicsek, 0, 0)
    rep_bnd = exhaustive_relation_check(vicsek, origin, linear12, 3, 6)
    boundary_ok = (
        rep_bnd.passed
        and not rep_bnd.details["interior"]
        and rep_bnd.details["nonzero_shift_witnesses"] > 0
    )
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        "set relations",
        interior_ok and boundary_ok,
        f"interior {rep_int.checked} words, boundary {rep_bnd.checked} words "
        f"({rep_bnd.details['nonzero_shift_witnesses']} shifted witnesses), {elapsed:.1f}s",
    )


def test_criterion_8_agreement_length_ratio(vicsek, linear12):
    origin = make_target(vicsek, 0, 0)
    k = row_agreement_length(vicsek, origin, linear12, 400)
    ratio = k / 400
    _criterion(8, "agreement length ratio", abs(ratio - 2.0) <= 0.05, f"k/n={ratio:.4f}")
