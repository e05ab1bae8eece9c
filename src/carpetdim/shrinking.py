"""Window combinatorics behind the shrinking-target dimension sequence.

A coding hits the stage-n target window when its digits at offset n track the
target's digits: per axis, either an exact match on the constrained positions,
or a single +-1 deviation followed by a forced carry tail (all high digits
against a zero target tail, or all zeros against a high-digit target tail).
Read as base-b numerals over the constrained positions, that is |W - T| <= 1
for the word's numeral W and the target's numeral T, which is how
`axis_digits_admissible` and `window_hit` test it. Each axis therefore admits
at most an exact pattern plus two deviations.

The stage exponent minimizes (n log #J + best weighted row count) over the
window depth j. A row count is a plain tuple, one integer per row digit, and
`GridIFS` values it: `row_product`, its `exponents` over primes, and the float
log `weighted_row_count`, used only when a value is reported or ranked.
Comparisons that decide an output (two depths whose float quotients nearly
tie, or two patterns' row products) are exact: #J and every row size factor
over a few small primes (`GridIFS.primes`), so each comparison is the sign
of an integer linear form sum_p w_p log p. The logs of distinct primes are
linearly independent over Q, so w = 0 is an exact tie, found in O(#primes);
any other w is decided by comparing two big-integer prime powers (see
`_log_sign`).

Every reader of a stage (exponent, row-count surface, agreement length,
verify constructions) builds one `StageKernel` per stage. The target's digits
are read from one table per (target, system), built in O(b D) by C-level
passes (`_target_rows`): `dimension_report` sizes it for its deepest window
D, and a deeper window grows it by doubling. From it a stage finds its
patterns in O(log D): each axis has at most one deviation down and one up,
each one bisection on a running count, after the exact pattern, which copies
the target and so always meets the window. The kernel then gives the best
row counts at any depth j in O(b) per pattern, so a stage's whole surface
row j = lam..xi costs O(xi) in Python, and its float depth scan is one
C-level pass over the window (`StageKernel.argmin`).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from typing import Sequence

from .coding import TargetSpec
from .errors import ScheduleError
from .formulas import closed_form_for
from .grid import GridIFS, pair_value
from .schedules import RateSchedule
from .words import DigitWord

# float prefilter: stage quotients closer than this are compared exactly
_TIE_EPS = 1e-12
# share of the sampled stages whose maximum is the reported limsup estimate
TAIL_FRACTION = 0.2


@dataclass(frozen=True)
class WindowPattern:
    """Forced digit string on one axis of a stage window.

    `digits` covers window positions 1..L-1 (position L is unconstrained).
    Deviating patterns record where and in which direction they leave the
    target's digits; the exact pattern, which copies them, has None in both.
    """

    deviate_pos: int | None
    deviate_sign: int | None
    digits: tuple[int, ...]


def axis_window_patterns(
    ifs: GridIFS,
    target_digits: Sequence[int],
    length: int,
) -> list[WindowPattern]:
    """All digit strings one axis of the window may carry.

    A deviation down at position j needs a zero target tail after j (the word
    then carries high digits); a deviation up needs a high-digit target tail
    (the word then carries zeros). Tails are vacuous at the last constrained
    position. Digit admissibility against the pair set is not checked here;
    that happens when the two axes are combined.
    """
    b = ifs.base
    t = tuple(target_digits)
    if length < 1:
        raise ValueError("window length must be >= 1")
    if len(t) != length - 1:
        raise ValueError(f"expected {length - 1} target digits, got {len(t)}")
    for d in t:
        if not 0 <= d <= b - 1:
            raise ValueError(f"target digit {d} outside 0..{b - 1}")
    return _axis_patterns(b, t, _run_counts(t, b - 1), length - 1)


def _run_counts(digits: Sequence[int], top: int) -> tuple[list[int], list[int]]:
    """Running counts of the digits other than 0 and of those other than
    `top`: entry k counts positions 1..k."""
    return (
        list(accumulate(map(bool, digits), initial=0)),
        list(accumulate(map(top.__ne__, digits), initial=0)),
    )


def _axis_patterns(
    base: int, digits: Sequence[int], counts: tuple[list[int], list[int]], last: int
) -> list[WindowPattern]:
    """The patterns of an axis whose constrained positions 1..last carry the
    target digits digits[:last], given their `_run_counts`: the exact
    pattern, then the deviations by descending position, down before up.
    As numerals over positions 1..last these are the target's numeral T and
    T - 1 and T + 1, each present when it still has `last` digits.

    A deviation down at p needs target digits p+1..last all 0 and a nonzero
    digit at p, so p is where the maximal 0-run ending at `last` starts, less
    one: the first position whose nonzero count reaches that of `last`, one
    bisection. A deviation up is found the same way on the (b-1)-run.
    """
    t = digits[:last]
    nonzero, nontop = counts
    down = bisect_left(nonzero, nonzero[last], 0, last)
    up = bisect_left(nontop, nontop[last], 0, last)
    pats = [WindowPattern(None, None, t)]
    for p, sign in [(up, +1), (down, -1)] if up > down else [(down, -1), (up, +1)]:
        if p:
            tail = base - 1 if sign < 0 else 0
            forced = t[: p - 1] + (t[p - 1] + sign,) + (tail,) * (last - p)
            pats.append(WindowPattern(p, sign, forced))
    return pats


def axis_digits_admissible(
    base: int, target_digits: Sequence[int], word_digits: Sequence[int]
) -> bool:
    """Single-axis window condition on digit strings: the base-b numerals of
    the word and the target over the target's positions differ by at most one."""
    t, w = pair_value(zip(target_digits, word_digits), base)
    return abs(w - t) <= 1


def window_hit(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, word: DigitWord
) -> bool:
    """Does the word's offset-n tail satisfy both axis window conditions?

    The numerals of window positions 1..xi-1 are read from one slice of the
    word and one of the target; the columns keep their first lam - 1 digits.
    The target's numerals are formed once per stage and kept on the target,
    since a containment check asks for them once per sample word.
    """
    lam, xi = schedule.lam(n), schedule.xi(n)
    b = ifs.base
    wx, wy = pair_value(word.pairs_up_to(n + xi)[n : n + xi - 1], b)
    known = target._numerals
    if (b, xi - 1) not in known:
        known[b, xi - 1] = pair_value(target.word.pairs_up_to(xi - 1), b)
    tx, ty = known[b, xi - 1]
    cut = b ** (xi - lam)
    return abs(wx // cut - tx // cut) <= 1 and abs(wy - ty) <= 1


def _paired(ifs: GridIFS, h: WindowPattern, v: WindowPattern, start: int = 0) -> bool:
    """Do the two axis patterns form pairs of J wherever both are constrained,
    from window position start + 1 on?"""
    pairs = zip(islice(h.digits, start, None), islice(v.digits, start, None))
    return all(map(ifs.digits.__contains__, pairs))


class _TargetRows:
    """A target's digits over positions 1..depth, with the running counts the
    stage path reads, each built by one C-level pass:

    - `cols`, `rows`: the column and row digits;
    - `col_runs`, `row_runs`: their `_run_counts`;
    - `prefix[a][k]`: rows equal to a among positions 1..k;
    - `logsum[k]`: the float sum of the row logs over positions 1..k;
    - `row_logs[a]`: the log of row size a.
    """

    def __init__(self, ifs: GridIFS, target: TargetSpec, depth: int):
        pairs = target.word.pairs_up_to(depth)
        top = ifs.base - 1
        self.ifs, self.depth = ifs, depth
        self.cols = tuple(map(operator.itemgetter(0), pairs))
        self.rows = tuple(map(operator.itemgetter(1), pairs))
        self.col_runs = _run_counts(self.cols, top)
        self.row_runs = _run_counts(self.rows, top)
        self.prefix = [
            list(accumulate(map(a.__eq__, self.rows), initial=0)) for a in range(ifs.base)
        ]
        self.row_logs = tuple(map(ifs.row_log, range(ifs.base)))
        self.logsum = list(accumulate(map(self.row_logs.__getitem__, self.rows), initial=0.0))


def _target_rows(ifs: GridIFS, target: TargetSpec, upto: int) -> _TargetRows:
    """The target's table over positions 1..upto, or over all its known
    positions when the word is a shorter truncation.

    The table is kept on the target, one per (target, system); a dict keyed
    by the target would hash its whole word. A stage that outgrows it builds
    it again at least twice as deep, never past a truncation's depth.
    """
    known = target.word.truncation_depth
    cap = math.inf if known is None else known
    upto = min(upto, cap)
    table = target._rows
    if table is not None and table.ifs == ifs:
        if table.depth >= upto:
            return table
        upto = min(max(upto, 2 * table.depth), cap)
    table = _TargetRows(ifs, target, upto)
    object.__setattr__(target, "_rows", table)
    return table


def _stage_patterns(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int
) -> tuple[list[WindowPattern], list[WindowPattern], list[WindowPattern]]:
    """Axis patterns of stage n plus the jointly realizable vertical ones.

    A vertical pattern is realizable when its rows are inhabited beyond the
    horizontal window and some horizontal pattern pairs with it inside. The
    exact pattern always is: it pairs with the exact horizontal pattern into
    the target's own pairs, which `target_from_word` checked against J. So
    the realizable list is never empty and starts with the exact pattern.
    """
    lam, xi = schedule.lam(n), schedule.xi(n)
    # a short truncation fails naming the first depth it lacks: lam - 1, then xi - 1
    target.word.require_depth(lam - 1)
    target.word.require_depth(xi - 1)
    table = _target_rows(ifs, target, xi - 1)
    hpats = _axis_patterns(ifs.base, table.cols, table.col_runs, lam - 1)
    vpats = _axis_patterns(ifs.base, table.rows, table.row_runs, xi - 1)
    realizable = vpats[:1] + [v for v in vpats[1:] if _deviation_realizable(ifs, hpats, v, lam)]
    return hpats, vpats, realizable


def _deviation_realizable(
    ifs: GridIFS, hpats: list[WindowPattern], v: WindowPattern, lam: int
) -> bool:
    """Realizability of a deviating vertical pattern. Before its deviation
    position p it copies the target, so only the deviating digit and the
    tail digit can name an empty row, and a horizontal pattern only has to
    pair with it from the first position where either of them deviates."""
    p, last = v.deviate_pos, len(v.digits)
    if p >= lam and not ifs.row_size(v.digits[p - 1]):
        return False
    if max(p + 1, lam) <= last and not ifs.row_size(v.digits[-1]):
        return False
    return any(_paired(ifs, h, v, min(p, h.deviate_pos or lam) - 1) for h in hpats)


def _log_sign(ifs: GridIFS, w: Sequence[int]) -> int:
    """Sign of sum_p w_p log p over `ifs.primes`, exactly: the sign of
    prod_p p^w_p - 1, comparing the positive and the negative powers as big
    integers. The logs of distinct primes are linearly independent over Q,
    so only w = 0 gives 0, found in O(#primes) without any powers.
    """
    if not any(w):
        return 0
    gain = math.prod(p**x for p, x in zip(ifs.primes, w) if x > 0)
    loss = math.prod(p**-x for p, x in zip(ifs.primes, w) if x < 0)
    return (gain > loss) - (gain < loss)


def _product_exceeds(ifs: GridIFS, c1: Sequence[int], c2: Sequence[int]) -> bool:
    """Is the row product of c1 larger than that of c2? Exact."""
    return _log_sign(ifs, ifs.exponents(list(map(operator.sub, c1, c2)))) > 0


def _depth_sign(
    ifs: GridIFS, n: int, j1: int, x1: Sequence[int], j2: int, x2: Sequence[int]
) -> int:
    """Sign of value(j1) - value(j2) at stage n, exactly, where x1 and x2 are
    the prime-exponent vectors of #J^n times each depth's row product.

    value(j) = log N / ((n + j) log b), so the sign is that of
    (n + j2) log N1 - (n + j1) log N2 = sum_p w_p log p with
    w = (n + j2) x1 - (n + j1) x2.
    """
    return _log_sign(ifs, [(n + j2) * a - (n + j1) * c for a, c in zip(x1, x2)])


class StageKernel:
    """One stage's window, answering every depth j from a single build.

    Holds the realizable vertical patterns of `_stage_patterns`, each as four
    parts: the target's row digits up to its deviation position p (the exact
    pattern deviates at xi, past the window), the deviating digit, the
    constant carry tail, and the free row that fills depths beyond xi - 1.
    The target's table (`_target_rows`, built in O(b D)) gives
    the patterns in O(log D) and a pattern's exact row-count vector at any
    depth in O(b); `argmin` ranks the depths by one C-level pass over the
    window. Counts leave the kernel as plain tuples, and the `GridIFS`
    methods turn them into values.
    """

    def __init__(self, ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int):
        lam, xi = schedule.lam(n), schedule.xi(n)
        hpats, _, realizable = _stage_patterns(ifs, target, schedule, n)
        self.ifs, self.n, self.lam, self.xi = ifs, n, lam, xi
        self.hpats = hpats
        self.patterns = realizable
        top = ifs.base - 1
        self._parts = [
            (xi, 0, 0) if v.deviate_pos is None
            else (v.deviate_pos, v.digits[v.deviate_pos - 1], top if v.deviate_sign < 0 else 0)
            for v in realizable
        ]
        self.first_deviation = min(p for p, _, _ in self._parts)
        self._table = _target_rows(ifs, target, xi - 1)
        self._n_log_j = n * math.log(len(ifs.digits))
        self._log_b = math.log(ifs.base)

    def quotient(self, j: int, a: float) -> float:
        """Stage quotient (n log #J + a) / ((n + j) log b) of a weighted row
        count a at depth j."""
        return (self._n_log_j + a) / ((self.n + j) * self._log_b)

    def partners(self, v: WindowPattern) -> list[WindowPattern]:
        """Horizontal patterns that pair with the vertical pattern v."""
        return [h for h in self.hpats if _paired(self.ifs, h, v)]

    def counts(self, idx: int, j: int) -> tuple[int, ...]:
        """Row-digit counts of pattern idx over window positions lam..j."""
        lam, xi = self.lam, self.xi
        p, dev, tail = self._parts[idx]
        last = min(j, xi - 1)
        copied = max(lam - 1, min(last, p - 1))  # target rows lam..copied
        counts = [col[copied] - col[lam - 1] for col in self._table.prefix]
        if lam <= p <= last:
            counts[dev] += 1
        run = last - max(lam, p + 1) + 1
        if run > 0:
            counts[tail] += run
        if j >= xi:
            counts[self.ifs.max_row_digit] += j - xi + 1
        return tuple(counts)

    def best(self, j: int) -> tuple[WindowPattern, tuple[int, ...]]:
        """The pattern with the largest exact row product at depth j (the
        first one on equal products) and its counts."""
        best_idx, best = 0, self.counts(0, j)
        if min(j, self.xi - 1) < self.first_deviation:
            return self.patterns[0], best  # no pattern has left the target yet
        for idx in range(1, len(self._parts)):
            c = self.counts(idx, j)
            if _product_exceeds(self.ifs, c, best):
                best_idx, best = idx, c
        return self.patterns[best_idx], best

    def argmin(self, upto: int) -> tuple[int, tuple[int, ...]]:
        """The depth j in lam..upto (lam when upto < lam) minimising the stage
        quotient, and its best counts.

        Float row-log sums rank the depths in one pass; every depth within
        `_TIE_EPS` of the float minimum is settled exactly by `_depth_sign`,
        in ascending order, so exact ties go to the smallest j.
        """
        ifs, n, lam, xi = self.ifs, self.n, self.lam, self.xi
        upto = max(upto, lam)
        logsum = self._table.logsum
        # a[k] is the float A(lam - 1 + k), the largest weighted row count of
        # the window rows lam..lam - 1 + k. Below g every pattern copies the
        # target's rows; from g on each pattern sums its own.
        g = max(self.first_deviation, lam)
        a = list(map(operator.sub, islice(logsum, lam - 1, g), repeat(logsum[lam - 1])))
        row_log = self._table.row_logs.__getitem__
        sums = [
            accumulate(map(row_log, islice(v.digits, g - 1, xi - 1)), initial=a[-1])
            for v in self.patterns
        ]
        del a[-1]
        a += map(max, *sums) if len(sums) > 1 else sums[0]
        a.append(a[-1] + math.log(ifs.max_row_size))  # depth xi adds one free row
        quotients = list(map(
            operator.truediv,
            map(self._n_log_j.__add__, islice(a, 1, upto - lam + 2)),
            map(self._log_b.__rmul__, range(n + lam, n + upto + 1)),
        ))
        limit = min(quotients) + _TIE_EPS
        near = compress(range(lam, upto + 1), map(limit.__gt__, quotients))
        best_j, best_vec = next(near), None
        for j in near:
            if best_vec is None:
                best_vec = ifs.exponents(self.best(best_j)[1], n)
            vec = ifs.exponents(self.best(j)[1], n)
            if _depth_sign(ifs, n, j, vec, best_j, best_vec) < 0:
                best_j, best_vec = j, vec
        return best_j, self.best(best_j)[1]


def max_row_counts(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, j: int
) -> tuple[int, ...]:
    """Best achievable row-digit counts over window positions lam(n)..j.

    Positions past the vertical window contribute the most populated row.
    """
    kernel = StageKernel(ifs, target, schedule, n)
    if j < kernel.lam:
        raise ValueError(f"j = {j} below lam({n}) = {kernel.lam}")
    return kernel.best(j)[1]


def row_agreement_length(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int
) -> int:
    """Positions on which every window-hitting word copies the target's rows.

    Equals one less than the first realizable vertical deviation position, or
    the full constrained span when no deviation is realizable.
    """
    xi = schedule.xi(n)
    if xi < 2:
        raise ScheduleError(f"agreement length needs xi(n) >= 2, got {xi}")
    return StageKernel(ifs, target, schedule, n).first_deviation - 1


@dataclass(frozen=True)
class ExponentRecord:
    """One stage of the dimension sequence."""

    n: int
    lam: int
    xi: int
    value: float
    argmin_j: int
    row_counts: tuple[int, ...]


def stage_exponent(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int
) -> ExponentRecord:
    """Minimize (n log #J + weighted row count) / ((n + j) log b) over the
    window depths j = lam(n)..xi(n); ties resolve to the smallest j."""
    kernel = StageKernel(ifs, target, schedule, n)
    j, counts = kernel.argmin(kernel.xi)
    value = kernel.quotient(j, ifs.weighted_row_count(counts))
    return ExponentRecord(n, kernel.lam, kernel.xi, value, j, counts)


@dataclass
class DimensionReport:
    """Stage exponents over a sampled range plus the dimension estimate.

    The reported estimate is the maximum over the trailing window of the
    range (burn-in discarded); the overall running maximum is kept alongside
    for diagnostics, since early stages can sit above the limit.
    """

    records: list[ExponentRecord]
    limsup_estimate: float
    running_max: float
    still_rising: bool
    closed_form: float | None = None
    closed_form_branch: str | None = None
    formula_source: str | None = None


def dimension_report(
    ifs: GridIFS,
    target: TargetSpec,
    schedule: RateSchedule,
    n_values: Sequence[int],
) -> DimensionReport:
    """Run the stage exponent over n_values and estimate the limiting value."""
    ns = list(n_values)
    if not ns:
        raise ValueError("n_values must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be strictly increasing")
    schedule.validate_range(ns)
    # one table as deep as the deepest window (or the word): doubling builds it 2-3 times, slower
    _target_rows(ifs, target, max(map(schedule.xi, ns)) - 1)
    records = [stage_exponent(ifs, target, schedule, n) for n in ns]
    values = [r.value for r in records]
    tail_start = math.floor(len(values) * (1.0 - TAIL_FRACTION))
    running_max = max(values)
    report = DimensionReport(
        records=records,
        limsup_estimate=max(values[tail_start:]),
        running_max=running_max,
        still_rising=values.index(running_max) >= tail_start,
    )
    cf = closed_form_for(ifs, target, schedule)
    if cf is not None:
        report.closed_form, report.closed_form_branch, report.formula_source = cf
    return report
