"""Point codings: expansion enumeration, representative selection, digit
frequencies, and horizontal slice dimensions.

Every point of the attractor has between one and four admissible codings
(each coordinate has at most two base-b expansions). A unique representative
is selected by maximizing the running product of row sizes along the coding,
with pair-count tie-breaks; every comparison is the exact sign of an exponent
vector over the primes of the row sizes (`GridIFS.log_sign`), never an
uncertified floating log and never the products' running values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter, sub
from typing import Iterable, Mapping

from .errors import (
    CodingTooLongError,
    DegenerateExpansionError,
    EmptyCandidateSetError,
    FiniteTruncationError,
    InadmissiblePairError,
    NotInAttractorError,
    UndecidableDominanceError,
)
from .grid import DigitPair, GridIFS, _factor
from .words import SIZE_GUARD, DigitWord


def _as_unit_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise ValueError(
            "floating-point input is ambiguous; pass a Fraction, int, or string like '1/3'"
        )
    r = Fraction(value)
    if not 0 <= r <= 1:
        raise ValueError(f"coordinate {r} outside [0, 1]")
    return r


def base_expansions(r: Fraction, base: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All base-b digit expansions of r in [0, 1] as (preperiod, period).

    Rationals whose reduced denominator divides a power of b have two
    expansions (terminating and high-digit tail); everything else has one.
    Split the denominator q as q1 * q2, q1 made of the primes of b and q2
    coprime to b. The preperiod is k digits long for the least k with q1 | b^k
    (at most the bit length of q1): its digits are floor(r b^k), written in
    base b by halves, and the period, shorter than q2, is long division on
    the integer remainders from r b^k mod 1 on. Past SIZE_GUARD digits the
    expansion is refused before any digit is made.
    """
    if r == 0:
        return [((), (0,))]
    if r == 1:
        return [((), (base - 1,))]
    q = q2 = r.denominator
    q1, k = 1, 0
    for p, e in _factor(base).items():  # q1 and k from the exponent of each prime of b in q
        a, q2 = _strip(q2, p)
        q1, k = q1 * p**a, max(k, -(-a // e))
    if q1.bit_length() + q2 > SIZE_GUARD:
        raise CodingTooLongError(
            f"a coordinate's base-{base} expansion may pass {SIZE_GUARD} digits"
        )
    head, x = divmod(r.numerator * base**k, q)
    pre, per = _base_digits(head, base, k), []
    start = x
    while not per or x != start:
        d, x = divmod(x * base, q)
        per.append(d)
    pre, per = tuple(pre), tuple(per)
    out = [(pre, per)]
    if per == (0,):
        # terminating expansion: also the variant ending in (b-1)(b-1)...
        term = list(pre)
        while term and term[-1] == 0:
            term.pop()
        term[-1] -= 1
        out.append((tuple(term), (base - 1,)))
    return out


def _strip(m: int, p: int) -> tuple[int, int]:
    """(v, m / p^v) for the exponent v of the prime p in m >= 1: the powers
    p^(2^i) up to m, divided out from the largest down."""
    if p == 2:
        v = (m & -m).bit_length() - 1
        return v, m >> v
    if m % p:
        return 0, m
    powers = [p]
    while powers[-1] ** 2 <= m:
        powers.append(powers[-1] ** 2)
    v = 0
    for i in reversed(range(len(powers))):
        q, rem = divmod(m, powers[i])
        if not rem:
            m, v = q, v + (1 << i)
    return v, m


def _base_digits(x: int, base: int, k: int) -> list[int]:
    """x < base^k as k base-b digits, most significant first: split at
    base^(k // 2) until the parts are short (no `str`, which refuses long
    ints)."""
    if not x:
        return [0] * k
    if k <= 32:
        digits = []
        for _ in range(k):
            x, d = divmod(x, base)
            digits.append(d)
        return digits[::-1]
    hi, lo = divmod(x, base ** (k // 2))
    return _base_digits(hi, base, k - k // 2) + _base_digits(lo, base, k // 2)


def _combine_axes(
    x_exp: tuple[tuple[int, ...], tuple[int, ...]],
    y_exp: tuple[tuple[int, ...], tuple[int, ...]],
) -> tuple[tuple[DigitPair, ...], tuple[DigitPair, ...]]:
    """Zip two per-axis expansions into one pair word (preperiod, period),
    refused before it is built when it would pass SIZE_GUARD pairs."""
    (xp, xq), (yp, yq) = x_exp, y_exp
    p = max(len(xp), len(yp))
    q = lcm(len(xq), len(yq))
    if p + q > SIZE_GUARD:
        raise CodingTooLongError(
            f"the point's coding has {p} + {q} pairs (preperiod + period), past {SIZE_GUARD}"
        )
    # the first p + q digits of each axis, zipped, one DigitPair per distinct pair
    xs, ys = ((pre + per * ((p + q) // len(per) + 1))[:p + q] for pre, per in (x_exp, y_exp))
    cells = {xy: DigitPair(*xy) for xy in set(zip(xs, ys))}
    pairs = tuple(map(cells.__getitem__, zip(xs, ys)))
    return pairs[:p], pairs[p:]


def expansions_of(ifs: GridIFS, z, w) -> set[DigitWord]:
    """All admissible codings of the rational point (z, w).

    Raises NotInAttractorError when no joint expansion uses only pairs from
    the digit set.
    """
    zr = _as_unit_fraction(z)
    wr = _as_unit_fraction(w)
    found: set[DigitWord] = set()
    for xe in base_expansions(zr, ifs.base):
        for ye in base_expansions(wr, ifs.base):
            pre, per = _combine_axes(xe, ye)
            if ifs.digits.issuperset(pre) and ifs.digits.issuperset(per):
                found.add(DigitWord.periodic(pre, per))
    if not found:
        raise NotInAttractorError(f"({zr}, {wr}) has no admissible coding")
    return found


# representative selection


def _row_counts(ifs: GridIFS, pairs: Iterable[DigitPair]) -> list[int]:
    """How often each row digit 0..b-1 occurs in `pairs`."""
    counts = Counter(map(itemgetter(1), pairs))
    return [counts[a] for a in range(ifs.base)]


def _largest(ifs: GridIFS, cands: list[DigitWord], counts: list[list[int]]) -> list[DigitWord]:
    """The candidates whose row counts give the largest row product, decided
    exactly by the sign of each difference's exponent vector."""
    return [
        c for c, m in zip(cands, counts)
        if all(ifs.log_sign(ifs.exponents(list(map(sub, m, other)))) >= 0 for other in counts)
    ]


def _pair_count_key(ifs: GridIFS, word: DigitWord) -> tuple:
    """Tie-break key: for each marked pair, its density in the cycle first,
    then its count over preperiod plus one cycle."""
    b = ifs.base
    marked = [DigitPair(0, 0), DigitPair(0, b - 1), DigitPair(b - 1, 0)]
    window = word.preperiod + word.period
    key = []
    for m in marked:
        density = Fraction(word.period.count(m), len(word.period))
        key.append(density)
        key.append(window.count(m))
    return tuple(key)


def canonical_representative(ifs: GridIFS, candidates: Iterable[DigitWord]) -> DigitWord:
    """Pick the unique representative coding from a set of candidates.

    The winner's running product of row sizes must weakly dominate every
    other candidate's at all large depths, decided exactly on row counts:
    per-cycle counts scaled to the lcm of the periods first, then the running
    counts at the depth where every candidate has entered its cycle.
    Remaining ties fall to marked-pair counts.
    """
    cands = list(dict.fromkeys(candidates))
    if not cands:
        raise EmptyCandidateSetError("no candidate codings given")
    for c in cands:
        if not c.is_periodic:
            raise UndecidableDominanceError(
                "dominance is only decidable for eventually periodic words"
            )
    if len(cands) == 1:
        return cands[0]
    pts = {c.point(ifs.base) for c in cands}
    if len(pts) > 1:
        raise ValueError("candidates project to different points")

    # growth rate: the per-cycle row counts scaled to the lcm L of the periods
    L = lcm(*(len(c.period) for c in cands))
    cands = _largest(ifs, cands, [[m * (L // len(c.period)) for m in _row_counts(ifs, c.period)]
                                  for c in cands])
    if len(cands) == 1:
        return cands[0]

    # equal growth: the running row counts once every candidate is in its cycle.
    # A coding's rows are one expansion of the point's height; a height has at
    # most two, and two end in constant 0s and constant (b-1)s. So past `start`
    # the rows are shared or constant, of equal size after the growth test, and
    # no later depth (in the aligned cycle or beyond) changes the order.
    start = max(len(c.preperiod) for c in cands)
    dominant = _largest(ifs, cands, [_row_counts(ifs, c.pairs_up_to(start)) for c in cands])
    if len(dominant) == 1:
        return dominant[0]

    keys = [_pair_count_key(ifs, c) for c in dominant]
    best = max(keys)
    tied = [c for c, k in zip(dominant, keys) if k == best]
    if len(tied) > 1:
        raise UndecidableDominanceError(
            "marked-pair tie-breaks do not separate the candidates"
        )
    return tied[0]


# frequencies and slices


def digit_frequencies(ifs: GridIFS, word: DigitWord) -> dict[int, Fraction]:
    """Limiting frequency of each row digit: cycle counts over cycle length.

    The preperiod never affects the limit. Truncations have no limit.
    """
    if not word.is_periodic:
        raise FiniteTruncationError("frequencies of a truncation are undefined")
    q = len(word.period)
    return {a: Fraction(m, q) for a, m in enumerate(_row_counts(ifs, word.period))}


def frequency_slice_value(ifs: GridIFS, freqs: Mapping[int, Fraction]) -> float:
    """Weighted row entropy sum(p_a log row_a) / log b."""
    total = 0.0
    for a, p in freqs.items():
        if p:
            total += float(p) * ifs.row_log(a)
    return total / math.log(ifs.base)


@dataclass(frozen=True)
class SliceDimension:
    value: float
    liminf_attained: bool


def slice_dimension(ifs: GridIFS, word: DigitWord) -> SliceDimension:
    """Dimension of the horizontal slice through the word's height.

    For eventually periodic words with a well-defined height this is the
    frequency-weighted row entropy. Heights with a second expansion available
    (row digits eventually constant 0 or b-1, height not 0 or 1) are refused:
    the slice through such a height meets the cells of both codings, and the
    frequency formula reads only one.
    """
    b = ifs.base
    if word.is_periodic:
        freqs = digit_frequencies(ifs, word)
        if freqs.get(0) == 1 or freqs.get(b - 1) == 1:
            _, w_val = word.point(b)
            if w_val not in (0, 1):
                raise DegenerateExpansionError(
                    f"height {w_val} has a second expansion: the slice meets the cells of "
                    "both codings, and the frequency formula reads only one"
                )
        return SliceDimension(frequency_slice_value(ifs, freqs), True)
    # truncation: smallest windowed average over the tail half of the known digits
    depth = len(word.preperiod)
    if depth == 0:
        raise FiniteTruncationError("empty truncation has no slice estimate")
    logs = [ifs.row_log(word.row_digit(i)) for i in range(1, depth + 1)]
    acc = 0.0
    best = None
    for n, lg in enumerate(logs, start=1):
        acc += lg
        if n >= max(1, depth // 2):
            v = acc / (n * math.log(b))
            best = v if best is None else min(best, v)
    return SliceDimension(best, False)


# target bundles


@dataclass(frozen=True)
class TargetSpec:
    """A target point: its representative coding plus cached frequency data.

    `frequencies` is None when the coding is a truncation (no limit known).
    `point` is None for truncations as well. `_rows` holds the stage path's
    digit table of this target (see `shrinking._target_rows`); it is not
    compared, so equality and hashing never read it.
    """

    word: DigitWord
    frequencies: tuple[tuple[int, Fraction], ...] | None
    point: tuple[Fraction, Fraction] | None
    _rows: object = field(default=None, init=False, compare=False, repr=False)

    def frequency_map(self) -> dict[int, Fraction] | None:
        return dict(self.frequencies) if self.frequencies is not None else None

    def col_digits(self, upto: int) -> tuple[int, ...]:
        return tuple(p.u for p in self.word.pairs_up_to(upto))

    def row_digits(self, upto: int) -> tuple[int, ...]:
        return tuple(p.v for p in self.word.pairs_up_to(upto))


def make_target(ifs: GridIFS, z, w) -> TargetSpec:
    """Target from exact rational coordinates: expand, select, cache."""
    word = canonical_representative(ifs, expansions_of(ifs, z, w))
    return target_from_word(ifs, word)


def alternating_block_word(block_base: int = 4, depth: int = 16384) -> DigitWord:
    """Truncated word alternating two pairs on geometric blocks.

    Position i carries (0, 0) when the block index j with
    block_base^j <= i < block_base^(j+1) is even, (0, 2) when odd. The row
    digit frequencies of such a word oscillate forever, so it has no
    eventually periodic form and ships as a deep truncation.
    """
    if block_base < 2:
        raise ValueError("block base must be >= 2")
    pairs = (DigitPair(0, 0), DigitPair(0, 2))
    digits: list[DigitPair] = []
    start, j = 1, 0
    while start <= depth:
        stop = min(start * block_base, depth + 1)
        digits += [pairs[j % 2]] * (stop - start)
        start, j = stop, j + 1
    return DigitWord.truncation(digits)


def target_from_word(ifs: GridIFS, word: DigitWord) -> TargetSpec:
    """Target from an explicit coding (trusted as the representative).

    This path exists for exotic targets, e.g. block constructions given as
    deep truncations, which have no eventually periodic form.
    """
    pairs = word.preperiod + word.period  # positions 1..L+p cover every pair
    if not ifs.digits.issuperset(pairs):
        i, bad = next((i, p) for i, p in enumerate(pairs, 1) if p not in ifs.digits)
        raise InadmissiblePairError(
            f"target digit {tuple(bad)} at position {i} not in the digit set"
        )
    if word.is_periodic:
        freqs = tuple(sorted(digit_frequencies(ifs, word).items()))
        return TargetSpec(word, freqs, word.point(ifs.base))
    return TargetSpec(word, None, None)
