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
any other w is decided by a float sum with a stated rounding bound, and
only a near-tie inside that bound by comparing two big-integer prime powers
(`GridIFS.log_sign`), so a comparison costs microseconds at any n.

Every reader of a stage (exponent, row-count surface, agreement length,
verify constructions) builds one `StageKernel` per stage. The target's digits
are read from one table per (target, system), built in O(b D) by C-level
passes (`_target_rows`): `dimension_report` sizes it for its deepest window
D, and a deeper window grows it by doubling. A stage's patterns are its
parts: each axis has at most one deviation down and one up, found by one
bisection each on a running count, after the exact pattern, which copies the
target and so always meets the window. A pattern is its deviation position
and sign, never a digit string, and its realizability is O(1) running-count
differences. On a periodic target whose window has passed its preperiod by
two periods, the parts depend only on a small key (the residue of lam - 1
and the gap xi - lam, see `_TargetRows.shape`), so each key's parts are
built once and shifted into place, and a stage costs O(#candidate depths)
Python steps. The kernel gives the best row counts at any depth j in O(b)
per pattern. Below g = max(first deviation, lam) every pattern copies the
target, so no reader of a stage walks those depths one by one. The surface
row j = lam..xi (`sn-table`, `StageKernel.weighted_row_counts`) sums the
target's per-digit count columns there, O(b (g - lam)) in C-level passes,
and calls `best` at each depth from g on. The minimisation over j
(`StageKernel.argmin`) ranks only the depths where the quotient can turn
below g: O(period) class ends on a periodic target, and the ends of the
row runs on a truncation, O(log xi) on a block word. From g on it ranks
every depth; for the shipped periodic targets that is a few depths at the
end of the window.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, islice, repeat
from typing import Sequence

from .coding import TargetSpec
from .errors import ScheduleError
from .grid import GridIFS, pair_value
from .schedules import RateSchedule
from .words import DigitWord

# float prefilter: stage quotients closer than this are compared exactly
_TIE_EPS = 1e-12
# share of the sampled stages whose maximum is the reported limsup estimate
TAIL_FRACTION = 0.2


@dataclass(frozen=True)
class WindowPattern:
    """Forced digits on one axis of a stage window, as a deviation against
    the target: the target's digits on the constrained positions 1..last,
    left at `deviate_pos` by `deviate_sign` and followed by the carry tail
    (b-1 after a step down, 0 after a step up). The exact pattern, which
    copies the target, has None in both.

    A pattern holds its axis's target digits by reference, so it costs O(1)
    however long the window is; the whole string `digits` is derived on
    first use and kept.
    """

    deviate_pos: int | None
    deviate_sign: int | None
    last: int
    _target: tuple[int, ...] = field(compare=False, repr=False)
    _base: int = field(compare=False, repr=False)

    @property
    def deviate_digit(self) -> int:
        return self._target[self.deviate_pos - 1] + self.deviate_sign

    @property
    def tail_digit(self) -> int:
        return self._base - 1 if self.deviate_sign < 0 else 0

    def digit_at(self, i: int) -> int:
        """The digit at constrained position i."""
        p = self.deviate_pos
        if p is None or i < p:
            return self._target[i - 1]
        return self.deviate_digit if i == p else self.tail_digit

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """The digits at positions 1..last."""
        t, p = self._target, self.deviate_pos
        if p is None:
            return t[: self.last]
        return t[: p - 1] + (self.deviate_digit,) + (self.tail_digit,) * (self.last - p)


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
    base: int, digits: tuple[int, ...], counts: tuple[list[int], list[int]], last: int
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
    nonzero, nontop = counts
    down = bisect_left(nonzero, nonzero[last], 0, last)
    up = bisect_left(nontop, nontop[last], 0, last)
    pats = [WindowPattern(None, None, last, digits, base)]
    for p, sign in [(up, +1), (down, -1)] if up > down else [(down, -1), (up, +1)]:
        if p:
            pats.append(WindowPattern(p, sign, last, digits, base))
    return pats


def axis_digits_admissible(
    base: int, target_digits: Sequence[int], word_digits: Sequence[int]
) -> bool:
    """Single-axis window condition on digit strings: the base-b numerals of
    the word and the target over the target's positions differ by at most one."""
    t, w = pair_value(zip(target_digits, word_digits), base)
    return abs(w - t) <= 1


@dataclass(frozen=True)
class StageWindow:
    """Stage n's window conditions: the depths lam and xi, and the target's base-b
    numerals of its columns at window positions 1..lam-1 and rows at 1..xi-1."""

    n: int
    lam: int
    xi: int
    cols: int
    rows: int

    @classmethod
    def of(cls, ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int) -> "StageWindow":
        lam, xi = schedule.window(n)
        tx, ty = pair_value(target.word.pairs_up_to(xi - 1), ifs.base)
        return cls(n, lam, xi, tx // ifs.base ** (xi - lam), ty)

    def hit(self, x: int, y: int) -> bool:
        """Both axis conditions |W - T| <= 1, on a word's numerals x, y of the same digits."""
        return abs(x - self.cols) <= 1 and abs(y - self.rows) <= 1


def window_hit(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule, n: int, word: DigitWord
) -> bool:
    """Does the word's offset-n tail satisfy both axis window conditions? Its
    numerals of window positions 1..xi-1 are read from one slice of the word."""
    lam, xi = schedule.window(n)
    x, y = pair_value(word.pairs_up_to(n + xi)[n : n + xi - 1], ifs.base)
    return StageWindow.of(ifs, target, schedule, n).hit(x // ifs.base ** (xi - lam), y)


class _TargetRows:
    """A target's digits over positions 1..depth, with the running counts the
    stage path reads, each built by one C-level pass:

    - `cols`, `rows`: the column and row digits;
    - `prefix[a][k]`: rows equal to a among positions 1..k;
    - `logsum[k]`: the float sum of the row logs over positions 1..k;
    - `row_logs[a]`: the log of row size a, and the logs of #J and b;
    - built on first use: `col_runs` and `row_runs`, the digits'
      `_run_counts`; `run_ends`; the counts behind `tail_fits`.

    A periodic target's stages past its preperiod read their parts from
    `shape`, which builds them on `_head`, a table a few periods deep, so
    the run counts of the deep table are built only when a stage before
    that, or verify, asks for axis patterns.
    """

    def __init__(self, ifs: GridIFS, word: DigitWord, depth: int):
        pairs = word.pairs_up_to(depth)
        # the word, not its target: the target holds this table
        self.ifs, self.depth, self._word = ifs, depth, word
        self.cols = tuple(map(operator.itemgetter(0), pairs))
        self.rows = tuple(map(operator.itemgetter(1), pairs))
        self.prefix = [
            list(accumulate(map(a.__eq__, self.rows), initial=0)) for a in range(ifs.base)
        ]
        self.row_logs = tuple(map(ifs.row_log, range(ifs.base)))
        self.logsum = list(accumulate(map(self.row_logs.__getitem__, self.rows), initial=0.0))
        self.max_row_digit = ifs.max_row_digit
        self.log_j, self.log_b = math.log(len(ifs.digits)), math.log(ifs.base)
        self.cycle = (len(word.preperiod), len(word.period)) if word.is_periodic else None
        self._fits: dict[tuple[int, bool], list[int]] = {}
        self._shapes: dict[tuple[int, int], tuple[list[tuple[int, int, int]], int | None]] = {}

    @cached_property
    def col_runs(self) -> tuple[list[int], list[int]]:
        return _run_counts(self.cols, self.ifs.base - 1)

    @cached_property
    def row_runs(self) -> tuple[list[int], list[int]]:
        return _run_counts(self.rows, self.ifs.base - 1)

    @cached_property
    def _head(self) -> _TargetRows:
        """A table of a periodic target to depth L + 5p, past every window
        that `shape` builds: lam0 - 1 < L + 3p and xi0 - lam0 < 2p."""
        pre, period = self.cycle
        return _TargetRows(self.ifs, self._word, pre + 5 * period)

    @cached_property
    def run_ends(self) -> list[int]:
        """The positions k < depth whose row digit differs from that of k + 1:
        the last position of each run of one row digit."""
        rows = self.rows
        return list(compress(range(1, self.depth), map(operator.ne, rows, islice(rows, 1, None))))

    def tail_fits(self, c: int, vertical: bool, start: int, end: int) -> bool:
        """Does the constant digit c, on the vertical axis when `vertical` is
        set and on the horizontal one otherwise, pair into J with the
        target's digit on the other axis at every position start..end? One
        difference of running counts, kept per (c, axis)."""
        fits = self._fits.get((c, vertical))
        if fits is None:
            pairs = zip(self.cols, repeat(c)) if vertical else zip(repeat(c), self.rows)
            fits = list(accumulate(map(self.ifs.digits.__contains__, pairs), initial=0))
            self._fits[c, vertical] = fits
        return fits[end] - fits[start - 1] == end - start + 1

    def shape(self, lam: int, xi: int) -> tuple[list[tuple[int, int, int]], int | None]:
        """The stage window (lam, xi)'s `_stage_parts`, and the index of the
        part that `best` picks at every depth from xi - 1 on, or None when
        each stage decides it.

        On a periodic target of preperiod L and period p, a row or column
        digit at a position past L depends only on the position mod p. Once
        the horizontal window's last position lam - 1 is at least L + 2p:
        - each axis's deviations lie within p of its last position, where a
          shift by a multiple of p moves them, or, when the axis's period is
          one constant 0 or b - 1, at a fixed position up to L;
        - every `tail_fits` run from a fixed position to a moving one covers
          a whole period past L, so its answer does not depend on where the
          run ends;
        - a gap xi - lam of at least p puts every moving vertical deviation
          past lam - 1, so only the gap's residue mod p matters.
        So the window has the parts of the window (lam0, xi0) keyed by the
        residue of lam - 1 mod p and the gap (kept below p, or reduced into
        p..2p - 1), with each moving position shifted by xi - xi0. The
        winner past xi - 1 compares count differences on positions within p
        of xi - 1, so it is kept too, unless a part deviates at a fixed
        position, whose tail grows with the window.
        """
        if self.cycle is None or lam - 1 < self.cycle[0] + 2 * self.cycle[1]:
            return _stage_parts(self, lam, xi), None
        pre, period = self.cycle
        lam0 = pre + 2 * period + 1 + (lam - 1 - pre) % period
        gap = xi - lam
        xi0 = lam0 + (gap if gap < period else period + gap % period)
        shape = self._shapes.get((lam0, xi0))
        if shape is None:
            head = self._head
            parts = _stage_parts(head, lam0, xi0)
            moving = all(p > pre for p, _, _ in parts)
            winner = _best_part(head, lam0, xi0, parts, xi0 - 1)[0] if moving else None
            shape = self._shapes[lam0, xi0] = parts, winner
        parts, winner = shape
        shift = xi - xi0
        return [(p + shift if p > pre else p, dev, tail) for p, dev, tail in parts], winner


def _target_rows(ifs: GridIFS, target: TargetSpec, upto: int) -> _TargetRows:
    """The target's table over positions 1..upto, or over all its known
    positions when the word is a shorter truncation.

    The table is kept on the target, one per (target, system); a dict keyed
    by the target would hash its whole word. A stage that outgrows it builds
    it again at least twice as deep, never past a truncation's depth.
    """
    table = target._rows
    if table is not None and table.depth >= upto and table.ifs == ifs:
        return table
    known = target.word.truncation_depth
    cap = math.inf if known is None else known
    upto = min(upto, cap)
    if table is not None and table.ifs == ifs:
        if table.depth >= upto:
            return table
        upto = min(max(upto, 2 * table.depth), cap)
    table = _TargetRows(ifs, target.word, upto)
    object.__setattr__(target, "_rows", table)
    return table


def _paired(ifs: GridIFS, table: _TargetRows, h: WindowPattern, v: WindowPattern) -> bool:
    """Do the two axis patterns form pairs of J on every position where both
    are constrained (1..h.last)?

    Before its deviation each pattern copies the target, whose pairs are in
    J, so only the positions from the first deviation on are read: each
    deviation position as one pair, and the run after it as one pair when
    both patterns are on their tails, or as one `tail_fits` test when one
    tail meets the target's digits on the other axis.
    """
    last, hp, vp = h.last, h.deviate_pos, v.deviate_pos
    cuts = sorted({p for p in (hp, vp) if p is not None and p <= last})
    for k, s in enumerate(cuts):
        if (h.digit_at(s), v.digit_at(s)) not in ifs.digits:
            return False
        end = cuts[k + 1] - 1 if k + 1 < len(cuts) else last
        if s == end:
            continue
        h_tail, v_tail = hp is not None and hp <= s, vp is not None and vp <= s
        if h_tail and v_tail:
            fits = (h.tail_digit, v.tail_digit) in ifs.digits
        elif h_tail:
            fits = table.tail_fits(h.tail_digit, False, s + 1, end)
        else:
            fits = table.tail_fits(v.tail_digit, True, s + 1, end)
        if not fits:
            return False
    return True


def _deviation_realizable(
    ifs: GridIFS, table: _TargetRows, hpats: list[WindowPattern], v: WindowPattern, lam: int
) -> bool:
    """Realizability of a deviating vertical pattern: its deviating digit and
    its tail digit name inhabited rows wherever they lie in lam..last (it
    copies the target's rows before), and some horizontal pattern pairs with
    it below lam."""
    p, last = v.deviate_pos, v.last
    if p >= lam and not ifs.row_size(v.deviate_digit):
        return False
    if max(p + 1, lam) <= last and not ifs.row_size(v.tail_digit):
        return False
    return any(_paired(ifs, table, h, v) for h in hpats)


def _stage_parts(table: _TargetRows, lam: int, xi: int) -> list[tuple[int, int, int]]:
    """The realizable vertical patterns of the stage window (lam, xi), each
    as its part (deviation position, deviating digit, tail digit): the exact
    pattern first, as (xi, 0, 0), past the window, then the realizable
    deviations by descending position. Built from the axis patterns."""
    ifs = table.ifs
    hpats = _axis_patterns(ifs.base, table.cols, table.col_runs, lam - 1)
    vpats = _axis_patterns(ifs.base, table.rows, table.row_runs, xi - 1)
    return [(xi, 0, 0)] + [
        (v.deviate_pos, v.deviate_digit, v.tail_digit)
        for v in vpats[1:]
        if _deviation_realizable(ifs, table, hpats, v, lam)
    ]


def _part_counts(
    table: _TargetRows, lam: int, xi: int, part: tuple[int, int, int], j: int
) -> tuple[int, ...]:
    """Row-digit counts over window positions lam..j of the pattern whose
    part is `part`: the target's rows before its deviation position p, the
    deviating digit at p, the tail digit after, the free row past xi - 1."""
    p, dev, tail = part
    last = min(j, xi - 1)
    copied = max(lam - 1, min(last, p - 1))  # target rows lam..copied
    counts = [col[copied] - col[lam - 1] for col in table.prefix]
    if lam <= p <= last:
        counts[dev] += 1
    run = last - max(lam, p + 1) + 1
    if run > 0:
        counts[tail] += run
    if j >= xi:
        counts[table.max_row_digit] += j - xi + 1
    return tuple(counts)


def _best_part(
    table: _TargetRows, lam: int, xi: int, parts: list[tuple[int, int, int]], j: int
) -> tuple[int, tuple[int, ...]]:
    """The index of the part with the largest exact row product at depth j
    (the first one on equal products), and its counts."""
    best_idx, best = 0, _part_counts(table, lam, xi, parts[0], j)
    for idx in range(1, len(parts)):
        c = _part_counts(table, lam, xi, parts[idx], j)
        if _product_exceeds(table.ifs, c, best):
            best_idx, best = idx, c
    return best_idx, best


def _product_exceeds(ifs: GridIFS, c1: Sequence[int], c2: Sequence[int]) -> bool:
    """Is the row product of c1 larger than that of c2? Exact."""
    return ifs.log_sign(ifs.exponents(list(map(operator.sub, c1, c2)))) > 0


def _depth_sign(
    ifs: GridIFS, n: int, j1: int, x1: Sequence[int], j2: int, x2: Sequence[int]
) -> int:
    """Sign of value(j1) - value(j2) at stage n, exactly, where x1 and x2 are
    the prime-exponent vectors of #J^n times each depth's row product.

    value(j) = log N / ((n + j) log b), so the sign is that of
    (n + j2) log N1 - (n + j1) log N2 = sum_p w_p log p with
    w = (n + j2) x1 - (n + j1) x2.
    """
    return ifs.log_sign([(n + j2) * a - (n + j1) * c for a, c in zip(x1, x2)])


class StageKernel:
    """One stage's window, answering every depth j from a single build.

    A vertical pattern is realizable when its rows are inhabited beyond the
    horizontal window and some horizontal pattern pairs with it inside. The
    exact pattern always is: it pairs with the exact horizontal pattern into
    the target's own pairs, which `target_from_word` checked against J.

    The kernel holds each realizable pattern as its part: its deviation
    position p (the exact pattern deviates at xi, past the window), the
    deviating digit and the constant carry tail. Before p it copies the
    target's rows, and the free row fills depths beyond xi - 1. The parts
    come from the target's table (`_target_rows`, built in O(b D)): on a
    periodic target past its preperiod, from the shape kept per key
    (`_TargetRows.shape`) in O(#parts); otherwise from the axis patterns,
    in O(log D). A part's exact row-count vector at any depth costs O(b).
    `WindowPattern`s are built only when asked for: the axis patterns
    `hpats` and `vpats`, and `patterns`, the realizable vertical ones,
    which start with the exact pattern.

    `argmin` ranks the candidate depths below g = max(first deviation,
    lam), O(period) on a periodic target and the row runs' ends on a
    truncation, and every depth from g on; `weighted_row_counts` gives the
    surface row in O(b (g - lam)) C-level passes below g, plus `best` from
    g on. Counts leave the kernel as plain tuples, and the `GridIFS`
    methods turn them into values.
    """

    def __init__(
        self,
        ifs: GridIFS,
        target: TargetSpec,
        schedule: RateSchedule,
        n: int,
        *,
        window: tuple[int, int] | None = None,
    ):
        # `window` is (lam(n), xi(n)) when the caller has evaluated it already
        lam, xi = schedule.window(n) if window is None else window
        word = target.word
        if not word.is_periodic:
            # a short truncation fails naming the first depth it lacks: lam - 1, then xi - 1
            word.require_depth(lam - 1)
            word.require_depth(xi - 1)
        table = _target_rows(ifs, target, xi - 1)
        self.ifs, self.n, self.lam, self.xi = ifs, n, lam, xi
        self._table = table
        self._parts, self._winner = table.shape(lam, xi)
        # deviations come by descending position, each before xi
        self.first_deviation = self._parts[-1][0]
        self._n_log_j = n * table.log_j
        self._log_b = table.log_b

    @cached_property
    def hpats(self) -> list[WindowPattern]:
        """The horizontal window's axis patterns."""
        table = self._table
        return _axis_patterns(self.ifs.base, table.cols, table.col_runs, self.lam - 1)

    @cached_property
    def vpats(self) -> list[WindowPattern]:
        """The vertical window's axis patterns."""
        table = self._table
        return _axis_patterns(self.ifs.base, table.rows, table.row_runs, self.xi - 1)

    @cached_property
    def patterns(self) -> list[WindowPattern]:
        """The realizable vertical patterns, one per part."""
        rows, base, last = self._table.rows, self.ifs.base, self.xi - 1
        return [WindowPattern(None, None, last, rows, base)] + [
            WindowPattern(p, dev - rows[p - 1], last, rows, base) for p, dev, _ in self._parts[1:]
        ]

    def quotient(self, j: int, a: float) -> float:
        """Stage quotient (n log #J + a) / ((n + j) log b) of a weighted row
        count a at depth j."""
        return (self._n_log_j + a) / ((self.n + j) * self._log_b)

    def quotients(self, depths: Sequence[int], a: Sequence[float]) -> list[float]:
        """`quotient` at each depth of `depths` and its weighted row count in
        `a`, by the same float operations, in C-level passes."""
        return list(map(
            operator.truediv,
            map(self._n_log_j.__add__, a),
            map(self._log_b.__rmul__, map(self.n.__add__, depths)),
        ))

    def partners(self, v: WindowPattern) -> list[WindowPattern]:
        """Horizontal patterns that pair with the vertical pattern v."""
        return [h for h in self.hpats if _paired(self.ifs, self._table, h, v)]

    def counts(self, idx: int, j: int) -> tuple[int, ...]:
        """Row-digit counts of pattern idx over window positions lam..j."""
        return _part_counts(self._table, self.lam, self.xi, self._parts[idx], j)

    def _best(self, j: int) -> tuple[int, tuple[int, ...]]:
        """`best` at depth j, with the pattern's index in `patterns`."""
        if min(j, self.xi - 1) < self.first_deviation:
            return 0, self.counts(0, j)  # no pattern has left the target yet
        if j >= self.xi - 1 and self._winner is not None:
            return self._winner, self.counts(self._winner, j)
        return _best_part(self._table, self.lam, self.xi, self._parts, j)

    def best(self, j: int) -> tuple[WindowPattern, tuple[int, ...]]:
        """The pattern with the largest exact row product at depth j (the
        first one on equal products) and its counts."""
        idx, counts = self._best(j)
        return self.patterns[idx], counts

    def weighted_row_counts(self) -> list[float]:
        """The stage's surface row: `weighted_row_count(best(j)[1])` at each
        depth j = lam..xi, equal to it bit for bit.

        Below g = max(first_deviation, lam) the best counts are the target's
        rows lam..j, so those depths are summed column by column: for each row
        digit a of the target's rows lam..g-1, by ascending a, its prefix-count
        differences times row_log(a) are added to the running sums. These are
        `weighted_row_count`'s terms in its order; a zero count adds 0.0,
        which leaves the non-negative sums as they are, and every target row
        is inhabited, so its log is finite. From g on each depth is `best`.
        """
        lam, g = self.lam, max(self.first_deviation, self.lam)
        table = self._table
        sums = [0.0] * (g - lam)
        for col, log in zip(table.prefix, table.row_logs):
            if col[g - 1] > col[lam - 1]:
                counts = map(operator.sub, col[lam:g], repeat(col[lam - 1]))
                sums = list(map(operator.add, sums, map(operator.mul, counts, repeat(log))))
        weigh = self.ifs.weighted_row_count
        return sums + [weigh(self._best(j)[1]) for j in range(g, self.xi + 1)]

    def _stretch(self, end: int) -> list[int]:
        """The depths of lam..end that `argmin` ranks below the first
        deviation, ascending: for a periodic target of preperiod L and
        period p, every depth below max(lam, L) + p and the last p depths;
        for a truncation, lam, end and the row runs' ends between them."""
        lam = self.lam
        if end <= lam:
            return [lam] if end == lam else []
        table = self._table
        if table.cycle is None:
            ends = table.run_ends
            return [lam, *ends[bisect_right(ends, lam) : bisect_left(ends, end)], end]
        pre, period = table.cycle
        first = max(lam, pre) + period
        return [*range(lam, min(end + 1, first)), *range(max(first, end - period + 1), end + 1)]

    def _merged(self, g: int, last: int) -> list[float]:
        """The largest float weighted row count over the patterns at each
        depth g..last, where g = max(first_deviation, lam) and last < xi, in
        C-level passes. Every pattern copies the target's rows up to its
        deviation position p, as the exact one does up to last: `logsum`
        differences. A deviating one then adds, when lam <= p, the
        deviating digit's log, and one tail log per depth, times the tail's
        length so far."""
        lam, table = self.lam, self._table
        logsum, logs = table.logsum, table.row_logs
        origin = logsum[lam - 1]
        merged = copied = list(map(origin.__rsub__, logsum[g : last + 1]))
        for p, dev, tail in self._parts[1:]:
            if p > last:
                continue  # copies the target at every depth up to last
            # depth q counts every position before the tail: p >= g, or lam - 1 when p < lam
            if p >= lam:
                q, base = p, logsum[p - 1] - origin + logs[dev]
                sums = copied[: p - g] + [base]
            else:
                q, base, sums = lam - 1, 0.0, []
            lengths = range(max(g - q, 1), last - q + 1)
            sums += map(base.__add__, map(logs[tail].__mul__, lengths))
            merged = list(map(max, merged, sums))
        return merged

    def argmin(self, upto: int) -> tuple[int, tuple[int, ...]]:
        """The depth j in lam..upto (lam when upto < lam) minimising the stage
        quotient, and its best counts.

        Let g = max(first_deviation, lam). Below g every pattern copies the
        target, so with S the target's row-log prefix sum the quotient at j
        is (C + S(j)) / ((n + j) log b) for one C per stage: a ratio of two
        affine functions of j wherever S is affine, so monotone there, or
        constant, and only the ends of such a stretch can win. A constant
        stretch's first depth is one of its ends, so exact ties still go to
        the smallest j. `_stretch` ranks only these ends:
        - on a truncation S is affine on each run of one row digit, so the
          ends are lam, the runs' last positions and g - 1;
        - on a periodic target of preperiod L and period p, S(j + p) =
          S(j) + sigma once j >= L, so S is affine along each residue class
          of j mod p in max(lam, L)..g-1, whose ends are the depths below
          max(lam, L) + p and the last p depths below g.
        From g to upto each pattern sums its own row logs, and every depth
        is ranked.

        The floats are the target's `logsum` differences below g and
        `_merged`'s sums from g. Every ranked depth within `_TIE_EPS` of their
        minimum is settled exactly by `_depth_sign`, in ascending order, so
        exact ties go to the smallest j.
        """
        ifs, n, lam, xi = self.ifs, self.n, self.lam, self.xi
        upto = max(upto, lam)
        logsum = self._table.logsum
        origin = logsum[lam - 1]
        g = max(self.first_deviation, lam)
        depths = self._stretch(min(g - 1, upto))
        # a[i] is the float weighted row count at depths[i]
        a = [logsum[j] - origin for j in depths]
        if upto >= g:
            last = min(upto, xi - 1)
            merged = [logsum[last] - origin]  # g = xi: no pattern leaves the target
            if g <= last:
                # merged[k] is the largest weighted row count at depth g + k
                merged = self._merged(g, last)
                depths += range(g, last + 1)
                a += merged
            if upto >= xi:  # depth xi adds one free row
                depths.append(xi)
                a.append(merged[-1] + self._table.row_logs[self._table.max_row_digit])
        quotients = self.quotients(depths, a)
        limit = min(quotients) + _TIE_EPS
        near = compress(depths, map(limit.__gt__, quotients))
        best_j, best_vec = next(near), None
        for j in near:
            if best_vec is None:
                best_vec = ifs.exponents(self._best(best_j)[1], n)
            vec = ifs.exponents(self._best(j)[1], n)
            if _depth_sign(ifs, n, j, vec, best_j, best_vec) < 0:
                best_j, best_vec = j, vec
        return best_j, self._best(best_j)[1]


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
    ifs: GridIFS,
    target: TargetSpec,
    schedule: RateSchedule,
    n: int,
    *,
    window: tuple[int, int] | None = None,
) -> ExponentRecord:
    """Minimize (n log #J + weighted row count) / ((n + j) log b) over the
    window depths j = lam(n)..xi(n); ties resolve to the smallest j.
    `window` is (lam(n), xi(n)) when the caller has evaluated it already."""
    kernel = StageKernel(ifs, target, schedule, n, window=window)
    j, counts = kernel.argmin(kernel.xi)
    value = kernel.quotient(j, ifs.weighted_row_count(counts))
    return ExponentRecord(n, kernel.lam, kernel.xi, value, j, counts)


@dataclass(frozen=True)
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


def dimension_report(
    ifs: GridIFS,
    target: TargetSpec,
    schedule: RateSchedule,
    n_values: Sequence[int],
    windows: Sequence[tuple[int, int]] | None = None,
) -> DimensionReport:
    """Run the stage exponent over n_values and estimate the limiting value;
    `windows`, if given, are `RateSchedule.validate_range(n_values)`."""
    ns = list(n_values)
    if not ns:
        raise ValueError("n_values must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be strictly increasing")
    windows = schedule.validate_range(ns) if windows is None else windows
    # one table as deep as the deepest window (or the word): doubling builds it 2-3 times, slower
    _target_rows(ifs, target, max(xi for _, xi in windows) - 1)
    records = [stage_exponent(ifs, target, schedule, n, window=w) for n, w in zip(ns, windows)]
    values = [r.value for r in records]
    tail_start = math.floor(len(values) * (1.0 - TAIL_FRACTION))
    running_max = max(values)
    return DimensionReport(
        records=records,
        limsup_estimate=max(values[tail_start:]),
        running_max=running_max,
        still_rising=values.index(running_max) >= tail_start,
    )
