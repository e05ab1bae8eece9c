"""Finite-depth verification of the cover and measure constructions.

Everything here runs in exact rational or integer arithmetic. Both
containment reports come from one pass that reads each sample's tail past n
once: a truncation's tail numerals are compared in integers with bounds
formed once per stage and tail length, for the window condition
|W - T| <= 1 (see `shrinking`), the closed stage rectangle and its
b^2-enlargement, so no sample can be misclassified by rounding; an
eventually periodic word's point (`DigitWord.hull`) is compared exactly.
Both set-relation checks feed integer samples to one verdict
(`_relation_stage`). A grid cell is the base-b numerals of its corner,
tested against one support per level by `_in_supports`: a set-relation
witness is a translated level-n cell of the digit set, and the lower-bound
measure gives a positive level-L cell 1/size(L), with size(L) the product
of the support sizes of levels 1..L. A Holder ball shares its centre's
digits, read once per sample point, and tests only the last digits in
which each of its cells differs.

The exhaustive checks decide once per class of inputs, not once per word. The
oracle tests each head's columns once and each distinct row string once; the
exhaustive containment pass walks its |J|^(depth-n) tails once, and the
exhaustive set relation forms one verdict per prefix and class of valid
shifts. The cover counts its squares, |J|^n prefixes times the window
tails, summed over the distinct slot lists without building a tail.
Failures are rebuilt in enumeration order, up to the 20 a report shows.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .coding import TargetSpec
from .errors import (
    BadBreakPointsError,
    DepthTooLargeError,
    EnumerationTooLargeError,
    InsufficientDepthError,
    RadiusTooSmallError,
    ThresholdNotMetError,
)
from .grid import DigitPair, GridIFS, pair_value
from .schedules import RateSchedule
from .shrinking import StageKernel, StageWindow, WindowPattern, stage_exponent
from .words import DigitWord

ENUMERATION_GUARD = 10 ** 7


def require_enumerable(ifs: GridIFS, k: int) -> None:
    """Refuse to enumerate the |J|^k words of length k beyond ENUMERATION_GUARD,
    by comparing k with the largest exponent the guard allows: |J|^k is never built."""
    count, allowed = len(ifs.digits), 0
    while count > 1 and count ** (allowed + 1) <= ENUMERATION_GUARD:
        allowed += 1
    if k > allowed and count > 1:
        raise EnumerationTooLargeError(f"{count}^{k} words exceed the guard {ENUMERATION_GUARD}")


@dataclass
class CheckReport:
    """Outcome of one verification pass."""

    name: str
    passed: bool
    checked: int
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self), "failures": self.failures[:20]}


def _fail(report: CheckReport, word: DigitWord, reason: str) -> None:
    report.passed = False
    report.failures.append(
        {"word": {"preperiod": [list(p) for p in word.preperiod],
                  "period": [list(p) for p in word.period]},
         "reason": reason}
    )


def target_point(target: TargetSpec) -> tuple[Fraction, Fraction]:
    """The target's exact point; a truncated target has none."""
    if target.point is None:
        raise InsufficientDepthError(
            "this check needs an exact target point; the target is a truncation"
        )
    return target.point


def _stage_rectangle(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, scale: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The closed stage-n rectangle about the target point, with half-sides
    scale * b^-lam(n) and scale * b^-xi(n), per axis as integers (lo, hi, den)
    for the interval [lo/den, hi/den]."""
    def axis(c: Fraction, k: int) -> tuple[int, int, int]:
        mid, radius = c.numerator * ifs.base ** k, scale * c.denominator
        return mid - radius, mid + radius, c.denominator * ifs.base ** k

    z, w = target_point(target)
    return axis(z, schedule.lam(n)), axis(w, schedule.xi(n))


def _containment_stage(ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int):
    """A word's verdicts at stage n: (hit, inside, meets, meets_enlarged), its
    window verdict (`_window_verdict`) and whether its shift-n hull lies
    inside the closed `_stage_rectangle`, meets it, and meets it enlarged b^2
    times. A truncation's k tail numerals (x, y) are read once, against the
    window divisors b^(k-lam+1), b^(k-xi+1) and each axis' ceil(lo b^k / den)
    and floor(hi b^k / den), formed once per k; an eventually periodic word's
    window is read from its first xi pairs past n, its point compared exactly."""
    b = ifs.base
    rectangles = [_stage_rectangle(ifs, target, schedule, n, scale) for scale in (1, b * b)]
    window, per_length = StageWindow.of(ifs, target, schedule, n), {}

    def verdicts(word: DigitWord) -> tuple[bool, bool, bool, bool]:
        tail = word.pairs_up_to(n + window.xi)[n:] if word.period else word.preperiod[n:]
        k = len(tail)
        if k not in per_length:
            word.require_depth(n + window.xi)  # a shallower truncation raises
            per_length[k] = (b ** (k - window.lam + 1), b ** (k - window.xi + 1), *(
                (-(-lo * b ** k // den), hi * b ** k // den) for r in rectangles for lo, hi, den in r))
        dx, dy, (xl, xh), (yl, yh), (el, eh), (fl, fh) = per_length[k]
        x, y = pair_value(tail, b)
        hit = _window_verdict(window, word, x // dx, y // dy)
        if word.period:
            x, y, den, _ = word.shift(n).hull(b)
            inside, enlarged = (all(lo * den <= v * rden <= hi * den for v, (lo, hi, rden) in zip((x, y), r))
                                for r in rectangles)
            return hit, inside, inside, enlarged
        return (hit, xl <= x < xh and yl <= y < yh, xl <= x + 1 and x <= xh and yl <= y + 1 and y <= yh,
                el <= x + 1 and x <= eh and fl <= y + 1 and y <= fh)

    return verdicts


def _window_verdict(window: StageWindow, word: DigitWord, x: int, y: int) -> bool:
    """The window verdict on a word whose window numerals are x and y
    (`StageWindow.hit`), called by name once per word of a containment pass."""
    return window.hit(x, y)


def _containment_pass(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, samples: Iterable[DigitWord]
) -> tuple[CheckReport, CheckReport]:
    """The forward and backward containment reports, filled in one pass over
    the samples in their order."""
    verdicts = _containment_stage(ifs, target, schedule, n)
    forward = CheckReport("containment-forward", True, 0, details={"inside": 0})
    backward = CheckReport("containment-backward", True, 0)
    for word in samples:
        hit, inside, meets, enlarged = verdicts(word)
        forward.checked += 1
        if inside:
            forward.details["inside"] += 1
            if not hit:
                _fail(forward, word, "shifted point inside the rectangle but window miss")
        elif meets:
            forward.skipped += 1
        if hit:
            backward.checked += 1
            if not enlarged:
                _fail(backward, word, "window hit but shifted point outside the enlarged rectangle")
    backward.details["window_hits"] = backward.checked
    return forward, backward


def check_containment_forward(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, samples: Iterable[DigitWord]
) -> CheckReport:
    """Samples whose shifted hull sits inside the stage rectangle must hit
    the window conditions. Hulls that meet the rectangle without sitting
    inside it are skipped. The first report of `_containment_pass`."""
    return _containment_pass(ifs, target, schedule, n, samples)[0]


def check_containment_backward(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, samples: Iterable[DigitWord]
) -> CheckReport:
    """Samples hitting the window conditions must land in the enlarged
    rectangle (two grid levels wider per axis): their shifted hull must meet
    it. The second report of `_containment_pass`."""
    return _containment_pass(ifs, target, schedule, n, samples)[1]


def _interior_thresholds(ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int) -> None:
    """For an interior target, the two-sided margin exponents kz, kw must be
    dominated by the window sizes: lam(n) > kz and xi(n) > kw. The set-relation
    checks apply this rule, and the CLI reads it with their options."""
    z, w = target_point(target)
    if not (0 < z < 1 and 0 < w < 1):
        return

    def margin(c: Fraction) -> int:
        k = 1
        while not Fraction(1, ifs.base ** k) < c < 1 - Fraction(1, ifs.base ** k):
            k += 1
        return k

    kz, kw = margin(z), margin(w)
    lam, xi = schedule.lam(n), schedule.xi(n)
    if lam <= kz or xi <= kw:
        raise ThresholdNotMetError(
            f"stage too small: need lam > {kz} and xi > {kw}, got ({lam}, {xi})"
        )


def _in_supports(kx: int, ky: int, supports: Sequence[frozenset[DigitPair]], base: int) -> bool:
    """Does the level-L cell with lower-left corner (kx, ky)/b^L, L = len(supports),
    lie in the unit square with its i-th most significant digit pair in
    supports[i-1]? A numeral outside [0, b^L) leaves a nonzero quotient."""
    for support in reversed(supports):
        kx, u = divmod(kx, base)
        ky, v = divmod(ky, base)
        if (u, v) not in support:
            return False
    return kx == ky == 0


def _valid_shifts(num: int, den: int, cn: int, cd: int, scale: int) -> list[int]:
    """Shifts s in -2..2 with |s + num/den - cn/cd| <= 1/scale, in integers."""
    step = den * cd
    off = num * cd - cn * den
    return [s for s in (-2, -1, 0, 1, 2) if abs(s * step + off) * scale <= step]


def _relation_stage(ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int):
    """The set-relation verdict of stage n, as (interior, shifts, verdict).

    `shifts(xs, ys, den)`: the valid shifts s per axis of the shift-n point
    (xs/den, ys/den), those with s plus the coordinate within the stage radius
    of the target. `verdict(kx, ky, valid_sx, valid_sy)`: the broken
    conditions of a sample with level-n prefix numerals (kx, ky), and its
    count of nonzero-shift witnesses. A witness is a valid (sx, sy) whose
    translated cell (kx - sx, ky - sy) is a cell of the digit set.
    """
    lam, xi = schedule.lam(n), schedule.xi(n)
    z, w = target_point(target)
    interior = 0 < z < 1 and 0 < w < 1
    _interior_thresholds(ifs, target, schedule, n)
    b = ifs.base
    blam, bxi = b ** lam, b ** xi
    zn, zd, wn, wd = z.numerator, z.denominator, w.numerator, w.denominator
    cells = (ifs.digits,) * n

    def shifts(xs: int, ys: int, den: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(_valid_shifts(xs, den, zn, zd, blam)), tuple(_valid_shifts(ys, den, wn, wd, bxi))

    def verdict(kx: int, ky: int, valid_sx, valid_sy) -> tuple[list[str], int]:
        if any(abs(s) > 1 for s in valid_sx + valid_sy):
            return ["witness shift outside {-1,0,1}"], 0
        witnesses = [
            (sx, sy) for sx in valid_sx for sy in valid_sy
            if _in_supports(kx - sx, ky - sy, cells, b)
        ]
        eq1 = 0 in valid_sx and 0 in valid_sy
        eq2 = bool(witnesses)
        reasons = []
        if eq1 and (0, 0) not in witnesses:
            reasons.append("rectangle hit but own prefix not a witness")
        if interior:
            if eq2 != eq1:
                reasons.append(f"interior equivalence broken: eq1={eq1} eq2={eq2}")
            if any(s != (0, 0) for s in witnesses):
                reasons.append("interior witness with nonzero shift")
            return reasons, 0
        if eq1 and not eq2:
            reasons.append("rectangle hit without any witness")
        return reasons, sum(1 for s in witnesses if s != (0, 0))

    return interior, shifts, verdict


def check_set_relation(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, samples: Iterable[DigitWord]
) -> CheckReport:
    """Rectangle hits versus image-translate hits, on exact sample points.

    Each sample enters as integers: the numerals of its level-n prefix and
    the hull of its shift-n point. The candidate witness prefixes are
    recovered from them; each witness carries an integer shift per axis which must
    lie in {-1, 0, 1}, and for interior targets must vanish (making the two
    conditions equivalent). Boundary targets only get the one-sided
    implications plus the 3x3 rectangle containment. Every broken condition
    of a sample is recorded. The verdict is `_relation_stage`'s, shared with
    exhaustive_relation_check.
    """
    b = ifs.base
    interior, shifts, verdict = _relation_stage(ifs, target, schedule, n)
    report = CheckReport("set-relation", True, 0, details={"interior": interior})
    nonzero_shift_witnesses = 0
    for word in samples:
        if not word.is_periodic:
            raise InsufficientDepthError("set-relation samples must be eventually periodic")
        kx, ky = pair_value(word.pairs_up_to(n), b)
        xs, ys, den, _ = word.shift(n).hull(b)
        report.checked += 1
        reasons, nonzero = verdict(kx, ky, *shifts(xs, ys, den))
        for reason in reasons:
            _fail(report, word, reason)
        nonzero_shift_witnesses += nonzero
    report.details["nonzero_shift_witnesses"] = nonzero_shift_witnesses
    return report


def exhaustive_relation_check(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, depth: int
) -> CheckReport:
    """check_set_relation over every depth-`depth` prefix extended by a
    constant tail (the lowest and highest pair of the digit set).

    The constant-tail extensions matter: they include the words whose shifted
    point sits at a box boundary, where witness translates pick up a nonzero
    shift for boundary targets.

    A verdict reads the first n pairs only as numerals and the rest of the
    word only as its valid shifts, so it is formed once per head and class of
    valid shifts and counted by the class size. Failures are rebuilt prefix
    slowest, then the constant tail.
    """
    b = ifs.base
    require_enumerable(ifs, depth)
    if depth < n:
        raise InsufficientDepthError(f"depth {depth} below n = {n}")
    interior, shifts, verdict = _relation_stage(ifs, target, schedule, n)
    # shifted coordinate of prefix + constant tail (alpha, beta):
    #   xs = ((b-1) * A' + alpha) / ((b-1) * b^(depth-n))
    # with A' the value of the last depth-n prefix digits
    den = (b - 1) * b ** (depth - n)
    digits = ifs.sorted_digits()
    ends = sorted({digits[0], digits[-1]})

    def tails():
        return itertools.product(itertools.product(digits, repeat=depth - n), ends)

    classes: dict[tuple, int] = {}  # class of valid shifts -> its index
    members = []  # the class index of each (tail, constant pair), in enumeration order
    for tail, end in tails():
        ax, ay = pair_value(tail, b)
        key = shifts((b - 1) * ax + end.u, (b - 1) * ay + end.v, den)
        members.append(classes.setdefault(key, len(classes)))
    class_size = Counter(members)

    report = CheckReport("set-relation-exhaustive", True, len(digits) ** n * len(members),
                         details={"interior": interior})
    nonzero_shift_witnesses = 0
    for head in itertools.product(digits, repeat=n):
        kx, ky = pair_value(head, b)
        verdicts = [verdict(kx, ky, *key) for key in classes]
        nonzero_shift_witnesses += sum(k * class_size[i] for i, (_, k) in enumerate(verdicts))
        if not any(reasons for reasons, _ in verdicts):
            continue
        report.passed = False
        for (tail, end), i in zip(tails(), members):
            if len(report.failures) >= 20:
                break
            for reason in verdicts[i][0]:
                _fail(report, DigitWord(head + tail, (end,)), reason)
    report.details["nonzero_shift_witnesses"] = nonzero_shift_witnesses
    return report


# window enumeration: definition-style oracle versus pattern expansion


def brute_force_window_set(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int
) -> set[tuple[DigitPair, ...]]:
    """Every length-xi(n) pair window passing the window conditions, found by
    direct predicate evaluation over J^xi(n): the column condition once per
    head (pairs 1..lam-1), the row condition once per distinct row string of
    pairs 1..xi-1, the last pair free. Windows are added in lexicographic order.
    """
    lam, xi = schedule.lam(n), schedule.xi(n)
    require_enumerable(ifs, xi)
    # looked up when called, so the oracle follows a patched shrinking predicate
    from .shrinking import axis_digits_admissible

    tcols = target.col_digits(lam - 1)
    trows = target.row_digits(xi - 1)
    b = ifs.base
    digits = ifs.sorted_digits()
    rows_admissible: dict[tuple[int, ...], bool] = {}
    out = set()
    for head in itertools.product(digits, repeat=lam - 1):
        if not axis_digits_admissible(b, tcols, tuple(p.u for p in head)):
            continue
        head_rows = tuple(p.v for p in head)
        for middle in itertools.product(digits, repeat=xi - lam):
            rows = head_rows + tuple(p.v for p in middle)
            if rows not in rows_admissible:
                rows_admissible[rows] = axis_digits_admissible(b, trows, rows)
            if rows_admissible[rows]:
                body = head + middle
                out.update(body + (last,) for last in digits)
    return out


def _pair_slots(
    ifs: GridIFS, h: WindowPattern, v: WindowPattern, lam: int
) -> list[tuple[DigitPair, ...]]:
    """Digit-pair choices at window positions 1..xi-1 of the horizontal
    pattern h paired with the vertical pattern v: below lam the single pair
    (h_i, v_i), or no choice where that pair is not in J; from lam on the
    sorted pairs of row v_i."""
    forced = [(p,) if p in ifs.digits else () for p in map(DigitPair, h.digits, v.digits)]
    return forced + [tuple(sorted(ifs.row_set(a))) for a in v.digits[lam - 1 :]]


def _window_slots(kernel: StageKernel, j: int) -> list[list[tuple[DigitPair, ...]]]:
    """Digit-pair choices at window positions 1..j, one slot list for each
    realizable pairing of a horizontal with a vertical pattern."""
    free = [kernel.ifs.sorted_digits()] * max(0, j - kernel.xi + 1)
    return [
        _pair_slots(kernel.ifs, h, v, kernel.lam)[:j] + free
        for v in kernel.patterns
        for h in kernel.partners(v)
    ]


def pattern_window_set(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int
) -> set[tuple[DigitPair, ...]]:
    """The same windows, expanded from the stage kernel's patterns."""
    kernel = StageKernel(ifs, target, schedule, n)
    return {win for s in _window_slots(kernel, kernel.xi) for win in itertools.product(*s)}


def oracle_window_report(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int
) -> CheckReport:
    """Pattern machinery versus the exhaustive predicate oracle: the window
    sets must coincide and the best row products must agree at every depth."""
    brute = brute_force_window_set(ifs, target, schedule, n)
    patt = pattern_window_set(ifs, target, schedule, n)
    report = CheckReport("window-oracle", True, len(brute))
    if brute != patt:
        report.passed = False
        sample = list(brute.symmetric_difference(patt))[:5]
        report.failures.append(
            {"reason": "window sets differ",
             "brute_only": len(brute - patt),
             "pattern_only": len(patt - brute),
             "examples": [[list(p) for p in w] for w in sample]}
        )
        return report
    row_strings = {tuple(p.v for p in win) for win in brute}
    kernel = StageKernel(ifs, target, schedule, n)
    for j in range(kernel.lam, kernel.xi + 1):
        best = max(math.prod(map(ifs.row_size, rows[kernel.lam - 1 : j])) for rows in row_strings)
        fast = ifs.row_product(kernel.best(j)[1])
        if fast != best:
            report.passed = False
            report.failures.append(
                {"reason": "row product mismatch", "j": j, "brute": best, "pattern": fast}
            )
    return report


# covers


@dataclass(frozen=True)
class CoverFamily:
    """Distinct level-(n+j) squares occupied by the stage-n window words. A
    corner numeral is prefix * b^j + tail, any level-n prefix and a window
    tail below b^j, so distinct pairs give distinct squares: boxes = |J|^n *
    |tails|. At each position two slots are equal or disjoint (one pair, one
    row, or J in every list), so the distinct slot lists have disjoint
    products, and |tails| is the sum of their slot-size products."""

    ifs: GridIFS
    n: int
    j: int
    slots: tuple[tuple[tuple[DigitPair, ...], ...], ...]
    boxes: int
    cardinality_bound: int

    @cached_property
    def corners(self) -> tuple[tuple[int, int], ...]:
        """Each square as the integer numerals (x, y) of its lower-left corner, sorted."""
        b, scale = self.ifs.base, self.ifs.base ** self.j
        heads = (pair_value(p, b) for p in itertools.product(self.ifs.sorted_digits(), repeat=self.n))
        tails = [pair_value(t, b) for s in self.slots for t in itertools.product(*s)]
        return tuple(sorted((px * scale + tx, py * scale + ty) for px, py in heads for tx, ty in tails))


def build_cover(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, j: int
) -> CoverFamily:
    """Collect the distinct slot lists of the window tails of depth j, the
    squares' last j digit pairs, and count the level-(n+j) squares they make
    with every level-n prefix."""
    lam, xi = schedule.lam(n), schedule.xi(n)
    if not lam <= j <= xi:
        raise ValueError(f"need lam(n) <= j <= xi(n), got j={j} with ({lam}, {xi})")
    require_enumerable(ifs, n)
    kernel = StageKernel(ifs, target, schedule, n)
    # every slot list has length j
    slots = tuple(dict.fromkeys(map(tuple, _window_slots(kernel, j))))
    tails = sum(math.prod(map(len, s)) for s in slots)
    bound = 9 * len(ifs.digits) ** n * ifs.row_product(kernel.best(j)[1])
    return CoverFamily(ifs, n, j, slots, len(ifs.digits) ** n * tails, bound)


# lower-bound measure


@dataclass
class MeasureBuilder:
    """Level-by-level supports of the lower-bound measure.

    Each level is uniform on its support: the digit set, one spine pair, or
    that pair's row. So a level-L cell, read as the numerals of its corner,
    weighs 1/sizes[L] when its digit pairs lie in the supports of levels 1..L
    and 0 otherwise, where sizes[L] is the product of the support sizes of
    levels 1..L (sizes[0] = 1); no cell is enumerated to weigh it.
    """

    ifs: GridIFS
    schedule: RateSchedule
    break_points: tuple[int, ...]
    delta: Fraction
    supports: list[frozenset[DigitPair]]
    sizes: list[int]
    spines: dict[int, tuple[DigitPair, ...]]
    stage_values: dict[int, float]

    @property
    def depth(self) -> int:
        return len(self.supports)

    def mass(self, kx: int, ky: int, level: int) -> Fraction:
        """Exact mass of the level-`level` cell with lower-left corner
        (kx, ky)/b^level: 1/sizes[level] inside the supports, else 0."""
        if not 0 <= level <= self.depth:
            raise DepthTooLargeError(f"level {level} outside 0..{self.depth}")
        inside = _in_supports(kx, ky, self.supports[:level], self.ifs.base)
        return Fraction(inside, self.sizes[level])

    def mass_bound_holds(self, k: int) -> bool:
        """point mass <= (#J)^(-n_k (1 - 1/delta)), compared exactly: with
        delta = p/q, #J^(n_k (p - q)) <= sizes[n_k]^p, by `GridIFS.log_sign`.
        A support is J, one pair or one row, so sizes[n_k] factors as well."""
        n_k = self.break_points[k]
        p, q = self.delta.numerator, self.delta.denominator
        ifs, levels = self.ifs, self.supports[:n_k]
        rows = Counter(min(s).v for s in levels if len(s) > 1 and s != ifs.digits)
        size = ifs.exponents([rows[a] for a in range(ifs.base)], levels.count(ifs.digits))
        whole = ifs.exponents([0] * ifs.base, n_k * (p - q))
        return ifs.log_sign([x - p * y for x, y in zip(whole, size)]) <= 0

    def support_word(self, upto: int, rng: random.Random | None = None) -> DigitWord:
        """A periodic word whose first `upto` levels all carry positive mass."""
        if not 1 <= upto <= self.depth:
            raise DepthTooLargeError(f"level {upto} outside 1..{self.depth}")
        choices = list(map(sorted, self.supports[:upto]))
        digits = [c[0] for c in choices] if rng is None else _draw(rng, choices)
        return DigitWord.periodic(digits, (digits[-1],))


def measure_delta(delta) -> Fraction:
    """The measure's exponent as a Fraction; it must exceed 1."""
    delta = Fraction(delta)
    if delta <= 1:
        raise BadBreakPointsError(f"delta must exceed 1, got {delta}")
    return delta


def measure_break_points(
    schedule: RateSchedule, break_points: Sequence[int], delta: Fraction
) -> tuple[int, ...]:
    """The break points as a tuple: positive, each one past the previous
    phase end and beyond delta times the sum of all earlier phase lengths."""
    bps = tuple(int(n) for n in break_points)
    if len(bps) < 1 or any(n < 1 for n in bps):
        raise BadBreakPointsError("need at least one positive break point")
    for k in range(len(bps) - 1):
        tail_sum = sum(schedule.xi(bps[i]) + 2 for i in range(k + 1))
        if not (bps[k + 1] > delta * tail_sum and bps[k + 1] > bps[k] + schedule.xi(bps[k]) + 2):
            raise BadBreakPointsError(f"break point {bps[k + 1]} too close after {bps[: k + 1]}")
    return bps


def build_lower_bound_measure(
    ifs: GridIFS,
    target: TargetSpec,
    schedule: RateSchedule,
    break_points: Sequence[int],
    delta,
) -> MeasureBuilder:
    """Assemble the level supports of the lower-bound measure.

    Mass is uniform over the digit set away from the break points; just past
    each break point it rides a single chosen window word for lam+2 levels,
    then spreads over that word's rows until xi+2 levels past the break.
    """
    delta = measure_delta(delta)
    bps = measure_break_points(schedule, break_points, delta)

    # spine: window positions 1..xi+2 of a word with the best rows at j*, then the fullest row
    filler = (min(ifs.row_set(ifs.max_row_digit)),) * 3
    spines: dict[int, tuple[DigitPair, ...]] = {}
    stage_values: dict[int, float] = {}
    supports = [ifs.digits] * (bps[-1] + schedule.xi(bps[-1]) + 2)
    for n_k in bps:
        stage_values[n_k] = stage_exponent(ifs, target, schedule, n_k).value
        kernel = StageKernel(ifs, target, schedule, n_k)
        # the measure stops the window one level short: depths lam..xi-1 (lam if none)
        v, _ = kernel.best(kernel.argmin(kernel.xi - 1)[0])
        slots = _pair_slots(ifs, kernel.partners(v)[0], v, kernel.lam)
        spine = spines[n_k] = tuple(map(min, slots)) + filler
        # the phases are disjoint (`measure_break_points`): the spine's first
        # lam+2 pairs one by one, then the rows of the rest
        supports[n_k : n_k + len(spine)] = [
            frozenset((p,)) if i < kernel.lam + 2 else ifs.row_set(p.v)
            for i, p in enumerate(spine)
        ]

    return MeasureBuilder(
        ifs=ifs,
        schedule=schedule,
        break_points=bps,
        delta=delta,
        supports=supports,
        sizes=list(itertools.accumulate(map(len, supports), operator.mul, initial=1)),
        spines=spines,
        stage_values=stage_values,
    )


@dataclass(frozen=True)
class HolderSample:
    point: tuple[Fraction, Fraction]
    radius: Fraction
    level: int
    ball_mass: Fraction
    exponent: float


def _expansion(c: Fraction, base: int, depth: int) -> tuple:
    """c in [0, 1] for `_ball_cells`: its first `depth` base-b digits, the first
    L spelling min(floor(c b^L), b^L - 1); (rem, q) with c = 0.digits + (rem / q)
    b^-depth; and runs[k][i], how many 0s (k = 0) or b - 1s (k = 1) in a row end digits[:i]."""
    p, q, digits = c.numerator, c.denominator, []
    if c == 1:
        p, q, digits = 1, 1, [base - 1] * depth
    for _ in range(depth - len(digits)):
        d, p = divmod(p * base, q)
        digits.append(d)
    runs = tuple(list(itertools.accumulate(digits, lambda n, d: n + 1 if d == v else 0, initial=0))
                 for v in (0, base - 1))
    return digits, p, q, runs


def _ball_cells(axis: tuple, rho: Fraction, level: int, base: int) -> list[tuple[int, list[int]]]:
    """The level-L cells along one axis that a ball of radius rho b^-L
    (1/b < rho <= 1) about c counts, each as (t, the last t digits of its
    numeral, least significant first), for the smallest t such that it shares
    its first L - t digits with c's numeral M (`_expansion`). The numerals are
    M + d in [0, b^L), lo <= d <= hi, with f = c b^L - M, hi = floor(f + rho),
    lo = ceil(f - rho) - 1: f's digits, c's past the L-th, are read against
    the other side's up to the first that differs. A borrow runs through the
    0s before the last digit, a carry through the b - 1s."""
    digits, rem, q, runs = axis

    def sign(t: Fraction) -> int:  # of f - t, for 0 < t < 1
        tn, td = t.numerator, t.denominator
        for d in itertools.islice(digits, level, None):
            e, tn = divmod(tn * base, td)
            if d != e:
                return d - e
        return rem * td - tn * q

    if rho == 1:  # then f <= rho, f >= 1 - rho, and lo = -2 when f = 0
        lo, hi = (-2 if rem == 0 and runs[0][-1] >= len(digits) - level else -1), 1
    else:
        lo, hi = (0 if sign(rho) > 0 else -1), (1 if sign(1 - rho) >= 0 else 0)
    if runs[0][level] == level:  # M = 0
        lo = 0
    elif runs[0][level - 1] == level - 1 and digits[level - 1] == 1:  # M = 1
        lo = max(lo, -1)
    if runs[1][level] == level:  # M = b^L - 1
        hi = 0
    out = []
    for d in range(lo, hi + 1):
        if not d:
            out.append((0, []))
            continue
        carry, last = divmod(digits[level - 1] + d, base)
        if not carry:
            out.append((1, [last]))
            continue
        run = runs[carry > 0][level - 1]
        stop = digits[level - 2 - run] + carry
        out.append((run + 2, [last] + [0 if carry > 0 else base - 1] * run + [stop]))
    return out


def holder_exponent_samples(
    builder: MeasureBuilder,
    sample_points: Sequence[DigitWord],
    radii: Sequence[Fraction],
) -> list[HolderSample]:
    """Mass decay exponents log(mass of ball) / log(radius).

    The ball of radius r meets at most nine grid cells at the matching
    level L, all within two cells of the point's own cell; the ball mass is
    the count of them inside the supports over sizes[L]. Each coordinate's
    digits are read once, to the builder's depth (`_expansion`), and so is
    how many leading levels of the point's own cells lie in the supports. A
    neighbouring cell differs from the point's cell in its last few digits
    only (`_ball_cells`), and only those levels are tested again.
    """
    b, supports = builder.ifs.base, builder.supports
    points = []
    for word in sample_points:
        x, y = word.point(b)
        xaxis, yaxis = _expansion(x, b, builder.depth), _expansion(y, b, builder.depth)
        reach = sum(1 for _ in itertools.takewhile(
            bool, map(operator.contains, supports, zip(xaxis[0], yaxis[0]))))
        points.append((x, y, xaxis, yaxis, reach))
    out = []
    for r in radii:
        r = Fraction(r)
        if not 0 < r < 1:
            raise RadiusTooSmallError(f"radius {r} outside (0, 1)")
        if r < Fraction(1, b ** builder.depth):
            raise RadiusTooSmallError(f"radius {r} finer than depth {builder.depth}")
        # level L with b^-(L+1) < r <= b^-L: the largest L with b^L <= floor(1/r),
        # from a float estimate corrected in integers
        inv = r.denominator // r.numerator
        level = int(math.log(inv, b))
        while b ** level > inv:
            level -= 1
        while b ** (level + 1) <= inv:
            level += 1
        rho, log_r = r * b ** level, math.log(r.numerator) - math.log(r.denominator)
        for x, y, xaxis, yaxis, reach in points:
            (xd, *_), (yd, *_) = xaxis, yaxis
            xrow, yrow = _ball_cells(xaxis, rho, level, b), _ball_cells(yaxis, rho, level, b)
            # every cell keeps the point's first level - t digit pairs; the last
            # t are tested deepest first, where a neighbour mostly leaves
            t = max(k for k, _ in xrow + yrow)
            inside = 0
            if reach >= level - t:
                deep = supports[level - t : level][::-1]
                xs = [tail + xd[level - t : level - k][::-1] for k, tail in xrow]
                ys = [tail + yd[level - t : level - k][::-1] for k, tail in yrow]
                inside = sum(all(map(operator.contains, deep, zip(u, v))) for u in xs for v in ys)
            nu = Fraction(inside, builder.sizes[level])
            exponent = (math.log(nu.numerator) - math.log(nu.denominator)) / log_r if nu else math.inf
            out.append(HolderSample((x, y), r, level, nu, exponent))
    return out


# sample word generation


def _draw(rng: random.Random, seqs: Iterable[Sequence]) -> list:
    """One pick from each sequence of seqs in turn: the picks that
    `rng.choice` would make on them, leaving rng in the same state. A pick
    from a sequence of m items takes getrandbits(k), with k the bit length
    of m, until the value is below m, and indexes the sequence with it. An
    empty sequence raises IndexError (getrandbits(0) is always 0, which is
    never below 0)."""
    getrandbits = rng.getrandbits
    out: list = []
    append = out.append
    last = None
    for seq in seqs:
        if seq is not last:  # a run of one sequence reads its size once
            last, m = seq, len(seq)
            if not m:
                raise IndexError("cannot draw from an empty sequence")
            k = m.bit_length()
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        append(seq[i])
    return out


def random_words(
    ifs: GridIFS,
    target: TargetSpec,
    schedule: RateSchedule,
    n: int,
    count: int,
    depth: int,
    rng: random.Random,
) -> list[DigitWord]:
    """Sample truncations biased toward the window boundary: a mix of plain
    uniform words, exact-match continuations, and pattern-following words.

    Every pick goes through `_draw`, which keeps `Random.choice`'s rule
    (getrandbits of the bit length of the sequence's size, retried until it
    is below the size) in the package: Python documents only the sequence of
    `random()` as stable across versions, so the sampled words depend on
    `getrandbits` alone."""
    digits = ifs.sorted_digits()
    kernel = StageKernel(ifs, target, schedule, n)
    # pair_slots[h][v]: drawing h, then v, draws one row, then one slot list
    pair_slots = [[_pair_slots(ifs, h, v, kernel.lam) for v in kernel.vpats]
                  for h in kernel.hpats]
    out = []
    for i in range(count):
        pairs = _draw(rng, [digits] * n)
        if i % 4 >= 2:
            # follow a random pattern pair, drawing up to its first empty slot;
            # if it has one, start over uniformly
            (row,) = _draw(rng, [pair_slots])
            (slots,) = _draw(rng, [row])
            drawn = _draw(rng, itertools.takewhile(bool, slots))
            if len(drawn) == len(slots):
                pairs += drawn
        pairs += _draw(rng, [digits] * (depth - len(pairs)))
        # every pair is a DigitPair of the digit set, so the word is minimal as it stands
        out.append(DigitWord._minimal(tuple(pairs[:depth]), ()))
    return out


# check families: each runs one `verify.checks` entry from the keyword options
# the CLI read, and returns its reports; sampled ones draw from Random(seed)


def oracle_reports(ifs, target, schedule, seed, n) -> list[CheckReport]:
    return [oracle_window_report(ifs, target, schedule, n)]


def containment_reports(ifs, target, schedule, seed, n, samples, depth) -> list[CheckReport]:
    words = random_words(ifs, target, schedule, n, samples, depth, random.Random(seed))
    return list(_containment_pass(ifs, target, schedule, n, words))


def containment_exhaustive_reports(ifs, target, schedule, seed, n, depth) -> list[CheckReport]:
    """Both containment checks over every depth-`depth` truncation. Their
    verdicts read only the shift-n tail, so one pass runs over the tails
    behind the lowest prefix, each report's counts are multiplied by the
    |J|^n prefixes, and its failures are rebuilt prefix slowest."""
    digits = ifs.sorted_digits()
    k = min(n, depth)
    lowest, scale = (digits[0],) * k, len(digits) ** k

    def tails() -> Iterator[DigitWord]:
        require_enumerable(ifs, depth)
        for tail in itertools.product(digits, repeat=depth - k):
            # pairs of the digit set, so the word is minimal as it stands
            yield DigitWord._minimal(lowest + tail, ())

    reports = list(_containment_pass(ifs, target, schedule, n, tails()))
    for report in reports:
        report.checked *= scale
        report.skipped *= scale
        report.details = {key: count * scale for key, count in report.details.items()}
        rebuilt = (
            {"word": {"preperiod": [list(p) for p in prefix] + f["word"]["preperiod"][k:],
                      "period": []},
             "reason": f["reason"]}
            for prefix in itertools.product(digits, repeat=k) for f in report.failures
        )
        report.failures = list(itertools.islice(rebuilt, 20))
    return reports


def set_relation_reports(
    ifs, target, schedule, seed, n, depth, exhaustive, samples=None
) -> list[CheckReport]:
    """Exhaustive at `depth`, or on purely periodic words of period `depth`."""
    if exhaustive:
        return [exhaustive_relation_check(ifs, target, schedule, n, depth)]
    rng = random.Random(seed)
    digits = ifs.sorted_digits()
    words = [DigitWord.periodic((), _draw(rng, [digits] * depth)) for _ in range(samples)]
    return [check_set_relation(ifs, target, schedule, n, words)]


def cover_reports(ifs, target, schedule, seed, n, j) -> list[CheckReport]:
    family = build_cover(ifs, target, schedule, n, j)
    boxes, bound = family.boxes, family.cardinality_bound
    return [CheckReport("cover-bound", boxes <= bound, boxes,
                        details={"boxes": boxes, "bound": bound})]


def _supports_follow_spines(builder: MeasureBuilder) -> bool:
    """The level half of measure-normalization. Past each break point n_k the
    first lam(n_k) + 2 levels must carry exactly {spine pair} and the rest of
    the spine that pair's row; every other level carries the digit set, and
    every spine pair is in it. Then each level's masses sum to 1."""
    ifs = builder.ifs
    prescribed = {}
    for n_k, spine in builder.spines.items():
        lam = builder.schedule.lam(n_k)
        for i, p in enumerate(spine):
            prescribed[n_k + i] = frozenset((p,)) if i < lam + 2 else ifs.row_set(p.v)
    return all(p in ifs.digits for spine in builder.spines.values() for p in spine) and all(
        support == prescribed.get(i, ifs.digits) for i, support in enumerate(builder.supports)
    )


def measure_reports(
    ifs, target, schedule, seed, break_points, delta, holder_slack
) -> list[CheckReport]:
    """Mass at every level and the point-phase mass bounds, then the mass-decay
    exponents past each break point n_k against (1 - 1/delta) s_{n_k} -
    holder_slack, at three support words and every radius b^-m past n_0."""
    builder = build_lower_bound_measure(ifs, target, schedule, break_points, delta)
    level_ok = _supports_follow_spines(builder)
    bound_ok = all(builder.mass_bound_holds(k) for k in range(len(break_points)))
    norm = CheckReport("measure-normalization", level_ok and bound_ok, builder.depth,
                       details={"depth": builder.depth, "mass_bounds": bound_ok})
    if not level_ok:
        norm.failures.append({"reason": "level support differs from the construction"})
    if not bound_ok:
        norm.failures.append({"reason": "point-phase mass bound violated"})
    rng = random.Random(seed)
    points = [builder.support_word(builder.depth)] + [
        builder.support_word(builder.depth, rng) for _ in range(2)
    ]
    radii = [Fraction(1, ifs.base ** m) for m in range(break_points[0] + 1, builder.depth + 1)]
    samples = holder_exponent_samples(builder, points, radii)
    threshold = {n_k: (1.0 - 1.0 / float(delta)) * builder.stage_values[n_k] - holder_slack
                 for n_k in break_points}
    bad = [{"level": s.level, "exponent": s.exponent} for s in samples
           if s.exponent < threshold[max(n_k for n_k in break_points if n_k < s.level)]]
    return [norm, CheckReport("measure-holder", not bad, len(samples), failures=bad[:10],
                              details={"thresholds": {str(k): v for k, v in threshold.items()}})]
