"""Grid iterated function systems on the unit square.

A system is given by a base b >= 2 and a proper subset J of the b x b digit
grid. Each digit pair (u, v) in J corresponds to the contraction
(x, y) -> ((x + u) / b, (y + v) / b), so admissible codings are exactly the
sequences of pairs drawn from J, and the attractor is the set of points whose
two-dimensional base-b expansion uses only pairs from J.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BaseTooSmallError,
    DigitOutOfRangeError,
    DuplicatePairError,
    NotProperSubsetError,
    TooFewMapsError,
)

# the float sign's error bound in units of k u sum |t_p| (see `GridIFS.log_sign`):
# 3 per term plus k - 1 for the additions, doubled
_SIGN_ROUNDING = 8


class DigitPair(NamedTuple):
    """A (column, row) digit pair; interchangeable with a plain 2-tuple."""

    u: int
    v: int


@dataclass(frozen=True)
class GridIFS:
    """Validated digit system: base and admissible digit pairs.

    Derived row structure is precomputed since the dimension formulas
    consult row sizes in tight loops.
    """

    base: int
    digits: frozenset[DigitPair]
    _rows: tuple[frozenset[DigitPair], ...] = field(init=False, compare=False, repr=False)
    _row_sizes: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _row_logs: tuple[float, ...] = field(init=False, compare=False, repr=False)
    _primes: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _size_exps: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _row_exps: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        b = self.base
        rows = [frozenset(p for p in self.digits if p.v == a) for a in range(b)]
        sizes = tuple(len(r) for r in rows)
        logs = tuple(math.log(s) if s > 0 else float("-inf") for s in sizes)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_row_sizes", sizes)
        object.__setattr__(self, "_row_logs", logs)
        # #J <= b^2 and every row size <= b factor over a few small primes;
        # _row_exps[i][a] is the exponent of prime i in row size a (0 for an
        # uninhabited row, which no stage's row counts ever use)
        factored = [_factor(m) for m in (len(self.digits),) + sizes]
        primes = tuple(sorted(set().union(*factored)))
        object.__setattr__(self, "_primes", primes)
        object.__setattr__(self, "_size_exps", tuple(factored[0].get(p, 0) for p in primes))
        object.__setattr__(
            self, "_row_exps", tuple(tuple(f.get(p, 0) for f in factored[1:]) for p in primes)
        )

    # row structure

    def row_set(self, a: int) -> frozenset[DigitPair]:
        """Digit pairs whose image square sits in row a of the grid."""
        self._check_digit(a)
        return self._rows[a]

    def row_size(self, a: int) -> int:
        return self._row_sizes[a]

    def row_log(self, a: int) -> float:
        """log of the row size; -inf marks an uninhabited row."""
        return self._row_logs[a]

    @property
    def primes(self) -> tuple[int, ...]:
        """The primes dividing #J or some row size, ascending."""
        return self._primes

    def exponents(self, counts: Sequence[int], n: int = 0) -> list[int]:
        """Exponent vector over `primes` of #J^n times the product of
        row_size(a)^counts[a]."""
        return [
            n * e + sum(map(operator.mul, counts, col))
            for e, col in zip(self._size_exps, self._row_exps)
        ]

    def log_sign(self, w: Sequence[int]) -> int:
        """Sign of sum_p w_p log p over `primes`, exactly; reads only `primes`.

        The logs of distinct primes are linearly independent over Q, so only
        w = 0 gives 0, found in O(#primes). Otherwise the float sum of
        t_p = float(w_p / m) log p, with m = max |w_p| keeping every term in
        range, is within 4 k u sum |t_p| of exact (u = 2^-53): 3u |t_p| per
        term (the correctly rounded quotient, `math.log` within an ulp, the
        product) and (k - 1) u sum |t_p| for the additions. An underflowed
        quotient's 2^-1074 (1 + log p) is far below that, as sum |t_p| >= log 2.
        So a sum past `_SIGN_ROUNDING` k u sum |t_p| has the exact sign. Only a
        closer one, a near-tie, compares the positive and the negative prime
        powers as big integers, whose size grows with w.
        """
        if not any(w):
            return 0
        top = max(map(abs, w))
        terms = [x / top * math.log(p) for p, x in zip(self.primes, w)]
        total = sum(terms)
        if abs(total) > _SIGN_ROUNDING * len(terms) * 2.0**-53 * sum(map(abs, terms)):
            return 1 if total > 0 else -1
        gain = math.prod(p**x for p, x in zip(self.primes, w) if x > 0)
        loss = math.prod(p**-x for p, x in zip(self.primes, w) if x < 0)
        return (gain > loss) - (gain < loss)

    def row_product(self, counts: Sequence[int]) -> int:
        """The product of row_size(a)^counts[a]."""
        return math.prod(map(pow, self._row_sizes, counts))

    def weighted_row_count(self, counts: Sequence[int]) -> float:
        """log of row_product(counts): counts[a] row_log(a) over the nonzero
        counts, added one at a time by ascending row digit. Not `sum`, which
        compensates its rounding from Python 3.12 on: plain additions keep
        this equal, bit for bit on every version, to the column sums of
        `StageKernel.weighted_row_counts`."""
        total = 0
        for m, log in zip(counts, self._row_logs):
            if m:
                total += m * log
        return total

    @property
    def max_row_size(self) -> int:
        return max(self._row_sizes)

    @property
    def max_row_digit(self) -> int:
        """Smallest row index attaining the largest row size."""
        return self._row_sizes.index(self.max_row_size)

    def attractor_dimension(self) -> float:
        """log #J / log b."""
        return math.log(len(self.digits)) / math.log(self.base)

    def sorted_digits(self) -> tuple[DigitPair, ...]:
        return tuple(sorted(self.digits))

    def _check_digit(self, a: int) -> None:
        if not 0 <= a <= self.base - 1:
            raise DigitOutOfRangeError(f"digit {a} outside 0..{self.base - 1}")


def _factor(m: int) -> dict[int, int]:
    """Prime factorization of m >= 0 by trial division; {} for 0 and 1."""
    out: dict[int, int] = {}
    p = 2
    while m > 1 and p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def validate_ifs(base: int, pairs: Iterable[tuple[int, int]]) -> GridIFS:
    """Build a GridIFS from raw input, rejecting malformed systems.

    Requirements: base >= 2, at least two pairs, no duplicates, all digits in
    range, and the pair set a proper subset of the full grid.
    """
    if base < 2:
        raise BaseTooSmallError(f"base must be >= 2, got {base}")
    seen: set[DigitPair] = set()
    for p in pairs:
        u, v = p
        if not (0 <= u <= base - 1 and 0 <= v <= base - 1):
            raise DigitOutOfRangeError(f"pair {(u, v)} outside the {base}x{base} grid")
        dp = DigitPair(u, v)
        if dp in seen:
            raise DuplicatePairError(f"pair {(u, v)} given twice")
        seen.add(dp)
    if len(seen) == base * base:
        raise NotProperSubsetError("digit set must omit at least one grid cell")
    if len(seen) < 2:
        raise TooFewMapsError("need at least two digit pairs")
    return GridIFS(base, frozenset(seen))


def pair_value(pairs: Iterable[tuple[int, int]], base: int) -> tuple[int, int]:
    """The integer base-b numerals (x, y) of a pair string, most significant
    digit first: x reads the column digits u, y the row digits v. A long
    string is read by halves, joined by one multiply-add per axis, so a
    million pairs take a second where one multiply-add per digit on a
    growing integer takes minutes (`coding._base_digits` splits the other
    way)."""
    pairs = tuple(pairs)
    k = len(pairs)
    if k > 64:
        hx, hy = pair_value(pairs[: k // 2], base)
        lx, ly = pair_value(pairs[k // 2 :], base)
        scale = base ** (k - k // 2)
        return hx * scale + lx, hy * scale + ly
    x = y = 0
    for u, v in pairs:
        x = x * base + u
        y = y * base + v
    return x, y
