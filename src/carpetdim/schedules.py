"""Approach-rate schedules: the two integer sequences governing how fast the
horizontal and vertical target half-widths shrink with the iteration count."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidRatesError, ScheduleError


def _ceil_mul(ratio: Fraction, n: int) -> int:
    return -((-ratio.numerator * n) // ratio.denominator)


class RateSchedule:
    """Pair of integer sequences n -> (lam(n), xi(n)) with xi >= lam >= 1.

    kind/params name the schedule's form and its rates: `closed_form_for`
    reads a linear schedule's rates, and `cli.cmd_dimension` reads the kind
    to add the ratio form of an alternating schedule.
    """

    def __init__(
        self,
        lambda_fn: Callable[[int], int],
        xi_fn: Callable[[int], int],
        kind: str = "custom",
        params: dict | None = None,
    ):
        self.lambda_fn = lambda_fn
        self.xi_fn = xi_fn
        self.kind = kind
        self.params = params or {}

    def lam(self, n: int) -> int:
        v = self.lambda_fn(n)
        if v < 1:
            raise InvalidRatesError(f"lam({n}) = {v} must be a positive integer")
        return v

    def xi(self, n: int) -> int:
        return self.window(n)[1]

    def window(self, n: int) -> tuple[int, int]:
        """(lam(n), xi(n)), each evaluated once."""
        lam, xi = self.lam(n), self.xi_fn(n)
        if xi < lam:
            raise InvalidRatesError(f"xi({n}) = {xi} below lam({n}) = {lam}")
        return lam, xi

    @classmethod
    def linear(cls, lam, xi) -> "RateSchedule":
        """lam(n) = ceil(lam * n), xi(n) = ceil(xi * n), rates as rationals."""
        lam_r, xi_r = Fraction(lam), Fraction(xi)
        if lam_r <= 0:
            raise InvalidRatesError("lam rate must be positive")
        if xi_r < lam_r:
            raise InvalidRatesError(f"xi rate {xi_r} below lam rate {lam_r}")
        return cls(
            lambda n: _ceil_mul(lam_r, n),
            lambda n: _ceil_mul(xi_r, n),
            kind="linear",
            params={"lam": lam_r, "xi": xi_r},
        )

    @classmethod
    def from_tables(cls, lams: Sequence[int], xis: Sequence[int]) -> "RateSchedule":
        """Explicit values for n = 1..len(table)."""
        lams = list(lams)
        xis = list(xis)
        if len(lams) != len(xis) or not lams:
            raise ScheduleError("tables must be nonempty and the same length")
        for n, (l, x) in enumerate(zip(lams, xis), start=1):
            if x < l or l < 1:
                raise InvalidRatesError(f"need xi(n) >= lam(n) >= 1, got ({l}, {x}) at n={n}")

        def at(table):
            def fn(n: int) -> int:
                if not 1 <= n <= len(table):
                    raise ScheduleError(f"n={n} outside the table range 1..{len(table)}")
                return table[n - 1]

            return fn

        return cls(at(lams), at(xis), kind="table", params={"lam": lams, "xi": xis})

    @classmethod
    def alternating(cls, ratios: Sequence[tuple], block_base: int = 4) -> "RateSchedule":
        """Rates that cycle through ratio pairs on geometric blocks.

        Block j covers n in [block_base^j, block_base^(j+1)); inside block j
        the rates are ratios[j mod len(ratios)]. Used to exercise schedules
        whose per-n ratios do not converge.
        """
        pairs = [(Fraction(l), Fraction(x)) for l, x in ratios]
        if not pairs:
            raise ScheduleError("need at least one ratio pair")
        for l, x in pairs:
            if l <= 0 or x < l:
                raise InvalidRatesError(f"bad ratio pair ({l}, {x})")
        if block_base < 2:
            raise ScheduleError("block base must be >= 2")

        def block_index(n: int) -> int:
            j = 0
            while block_base ** (j + 1) <= n:
                j += 1
            return j

        def lam_fn(n: int) -> int:
            return _ceil_mul(pairs[block_index(n) % len(pairs)][0], n)

        def xi_fn(n: int) -> int:
            return _ceil_mul(pairs[block_index(n) % len(pairs)][1], n)

        return cls(
            lam_fn,
            xi_fn,
            kind="alternating",
            params={"ratios": pairs, "block_base": block_base},
        )

    def validate_range(self, n_values: Sequence[int]) -> list[tuple[int, int]]:
        """The windows (lam(n), xi(n)) of the sampled range, each evaluated
        once, after checking the growth requirements on it.

        lam must be nondecreasing along the range, and must actually grow on
        long ranges (short smoke tables are exempt).
        """
        windows = list(map(self.window, n_values))
        vals = [lam for lam, _ in windows]
        for a, b in zip(vals, vals[1:]):
            if b < a:
                raise ScheduleError("lam must be nondecreasing on the queried range")
        if len(n_values) >= 2 and n_values[-1] - n_values[0] >= 50 and vals[-1] == vals[0]:
            raise ScheduleError("lam does not grow over a long range; it must tend to infinity")
        return windows
