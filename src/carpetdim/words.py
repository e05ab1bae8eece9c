"""Symbolic codings: finite truncations and eventually periodic digit words.

Infinite words are stored as (preperiod, period) in minimal form; anything
that is not eventually periodic is only representable as a finite truncation
carrying an explicit depth. The left shift is implemented on symbols alone,
never on floating-point coordinates, so multi-expansion ambiguity at box
boundaries cannot corrupt the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InsufficientDepthError
from .grid import DigitPair, pair_value

# The most digit pairs, or stages, one input may make the package build:
# a target's coding, a stage's window (the target table to depth xi(n) - 1
# holds about 275 MB at 10^6 positions), the sampled words of one verify
# check, and the stages of one run. Past it an input is refused, not run.
SIZE_GUARD = 10 ** 6


def _coerce(pairs: Iterable[tuple[int, int]]) -> tuple[DigitPair, ...]:
    return tuple(p if isinstance(p, DigitPair) else DigitPair(*p) for p in pairs)


def _primitive(period: tuple[DigitPair, ...]) -> tuple[DigitPair, ...]:
    """Shortest word whose repetition gives `period`."""
    q = len(period)
    for d in range(1, q + 1):
        if q % d == 0 and period[:d] * (q // d) == period:
            return period[:d]
    return period


@dataclass(frozen=True)
class DigitWord:
    """A coding: eventually periodic when `period` is nonempty, else a
    truncation whose known digits are exactly `preperiod`."""

    preperiod: tuple[DigitPair, ...]
    period: tuple[DigitPair, ...]

    def __post_init__(self):
        pre = _coerce(self.preperiod)
        per = _coerce(self.period)
        if per:
            per = _primitive(per)
            # pull the k trailing preperiod digits that repeat the cycle into it
            q, k = len(per), 0
            while k < len(pre) and pre[-1 - k] == per[-1 - k % q]:
                k += 1
            r = q - k % q
            pre, per = pre[:len(pre) - k], per[r:] + per[:r]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def _minimal(cls, preperiod: tuple[DigitPair, ...], period: tuple[DigitPair, ...]) -> "DigitWord":
        """A word from parts already in minimal form, not normalised again."""
        word = object.__new__(cls)
        object.__setattr__(word, "preperiod", preperiod)
        object.__setattr__(word, "period", period)
        return word

    @classmethod
    def periodic(cls, preperiod: Iterable[tuple[int, int]], period: Iterable[tuple[int, int]]) -> "DigitWord":
        per = tuple(period)
        if not per:
            raise ValueError("period must be nonempty; use DigitWord.truncation for finite words")
        return cls(tuple(preperiod), per)

    @classmethod
    def truncation(cls, digits: Iterable[tuple[int, int]]) -> "DigitWord":
        return cls(tuple(digits), ())

    # structure

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    @property
    def truncation_depth(self) -> int | None:
        """Known depth for truncations; None for infinite words."""
        return None if self.period else len(self.preperiod)

    def knows_depth(self, m: int) -> bool:
        return self.is_periodic or m <= len(self.preperiod)

    def require_depth(self, m: int) -> None:
        if not self.knows_depth(m):
            raise InsufficientDepthError(
                f"word only specified to depth {len(self.preperiod)}, need {m}"
            )

    def pair_at(self, i: int) -> DigitPair:
        """1-indexed digit pair."""
        if i < 1:
            raise IndexError("positions are 1-indexed")
        p = len(self.preperiod)
        if i <= p:
            return self.preperiod[i - 1]
        if not self.period:
            raise InsufficientDepthError(f"position {i} beyond truncation depth {p}")
        return self.period[(i - p - 1) % len(self.period)]

    def pairs_up_to(self, m: int) -> tuple[DigitPair, ...]:
        self.require_depth(m)
        p = len(self.preperiod)
        if m <= p:
            return self.preperiod[:m]
        q = len(self.period)
        reps = (m - p + q - 1) // q
        return (self.preperiod + self.period * reps)[:m]

    def row_digit(self, i: int) -> int:
        return self.pair_at(i).v

    # dynamics and projection

    def shift(self, n: int) -> "DigitWord":
        """Drop the first n pairs. The result is minimal as it stands: a
        suffix of the preperiod keeps its last pair, and a rotation of a
        primitive period is primitive."""
        if n < 0:
            raise ValueError("shift must be nonnegative")
        p = len(self.preperiod)
        if n <= p:
            return DigitWord._minimal(self.preperiod[n:], self.period)
        if not self.period:
            raise InsufficientDepthError(f"cannot shift a depth-{p} truncation by {n}")
        q = len(self.period)
        off = (n - p) % q
        return DigitWord._minimal((), self.period[off:] + self.period[:off])

    def hull(self, base: int) -> tuple[int, int, int, int]:
        """Integer hull (x, y, den, width) of the projection: the square
        [x, x + width] x [y, y + width] scaled by 1/den. An infinite word
        gives its exact point, width 0; a depth-D truncation gives its
        level-D square, den = b^D and width 1."""
        ax, ay = pair_value(self.preperiod, base)
        den = base ** len(self.preperiod)
        if not self.period:
            return ax, ay, den, 1
        bx, by = pair_value(self.period, base)
        denq = base ** len(self.period) - 1
        return ax * denq + bx, ay * denq + by, den * denq, 0

    def point(self, base: int) -> tuple[Fraction, Fraction]:
        """Exact projected coordinates; infinite words only."""
        if not self.period:
            raise InsufficientDepthError("truncations project to a box, not a point")
        x, y, den, _ = self.hull(base)
        return Fraction(x, den), Fraction(y, den)
