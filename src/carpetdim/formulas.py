"""Closed-form dimension values for linear schedules.

With linear rates lam and xi, the limiting dimension is the smaller of two
branches: gamma / (1 + lam) (the horizontal window alone) and
(gamma + (xi - lam) * gamma2) / (1 + xi), where gamma is the attractor
dimension and gamma2 the horizontal slice dimension through the target: the
frequency-weighted row entropy `frequency_slice_value`, which for a target
whose row digits are constant is the log of that single row's size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .coding import TargetSpec, frequency_slice_value
from .errors import FrequenciesDoNotExistError, InvalidRatesError
from .grid import GridIFS
from .schedules import RateSchedule

LAMBDA_BRANCH = "lambda"
XI_BRANCH = "xi"
BOTH_BRANCHES = "both"


def closed_form_dimension(gamma: float, gamma2: float, lam, xi) -> float:
    """min of the two branches (`closed_form_for` labels the branch, exactly)."""
    lam_r, xi_r = Fraction(lam), Fraction(xi)
    if lam_r <= 0:
        raise InvalidRatesError("lam must be positive")
    if xi_r < lam_r:
        raise InvalidRatesError(f"xi = {xi_r} below lam = {lam_r}")
    if not 0 <= gamma2 <= gamma:
        raise ValueError(f"slice value {gamma2} outside [0, {gamma}]")
    lam_f, xi_f = float(lam_r), float(xi_r)
    return min(gamma / (1.0 + lam_f), (gamma + (xi_f - lam_f) * gamma2) / (1.0 + xi_f))


def ratio_limsup_dimension(
    ifs: GridIFS,
    target: TargetSpec,
    schedule: RateSchedule,
    n_values: Sequence[int],
) -> float:
    """Largest per-stage closed-form value over the sampled stages.

    Covers schedules whose per-n rate ratios do not converge: each stage is
    scored with its own ratios lam(n)/n and xi(n)/n. Requires the target's
    digit frequencies to exist with neither extreme row frequency equal to 1.
    """
    freqs = target.frequency_map()
    if freqs is None:
        raise FrequenciesDoNotExistError(
            "target frequencies do not exist; use the stage-exponent report instead"
        )
    if freqs.get(0) == 1 or freqs.get(ifs.base - 1) == 1:
        raise FrequenciesDoNotExistError(
            "extreme row frequency equals 1: the target lies on a grid line, where stage "
            "windows may follow a second coding that the frequency form does not see"
        )
    gamma = ifs.attractor_dimension()
    gamma2 = frequency_slice_value(ifs, freqs)
    values = (
        closed_form_dimension(
            gamma, gamma2, Fraction(schedule.lam(n), n), Fraction(schedule.xi(n), n)
        )
        for n in n_values
    )
    return max(values, default=-math.inf)


CLOSED_FORM_FREQUENCY = "frequency-closed-form"
CLOSED_FORM_ZERO_ROW = "zero-row-target"
CLOSED_FORM_TOP_ROW = "top-row-target"


def closed_form_for(
    ifs: GridIFS, target: TargetSpec, schedule: RateSchedule
) -> tuple[float, str, str] | None:
    """Closed form applicable to this run, if any: (value, branch, source).

    Only linear schedules have one. Targets with an extreme row frequency of
    1 get the constant-row form when they really are the constant-row point;
    otherwise no closed form is reported (the stage sequence still applies).
    The constant-row form's slice term, the log of that one row's size, is
    what the frequency form gives for such a target, so only the source
    label differs.
    """
    if schedule.kind != "linear":
        return None
    freqs = target.frequency_map()
    if freqs is None:
        return None
    source = CLOSED_FORM_FREQUENCY
    if freqs.get(0) == 1 or freqs.get(ifs.base - 1) == 1:
        w_val = target.point[1] if target.point is not None else None
        if w_val not in (0, 1):
            return None
        source = CLOSED_FORM_ZERO_ROW if w_val == 0 else CLOSED_FORM_TOP_ROW
    lam, xi = schedule.params["lam"], schedule.params["xi"]
    value = closed_form_dimension(
        ifs.attractor_dimension(), frequency_slice_value(ifs, freqs), lam, xi
    )
    return value, _exact_branch(ifs, freqs, lam, xi), source


def _exact_branch(ifs: GridIFS, freqs: dict[int, Fraction], lam, xi) -> str:
    """The branch attaining the closed form, decided exactly.

    Times log b, the lambda branch less the xi branch is
    (xi - lam) (log #J - (1 + lam) sum_a f_a log r_a) = sum_p w_p log p, a
    rational combination of prime logs. Scaled to integers by the lcm of the
    denominators, its sign is `GridIFS.log_sign`'s; w = 0 is the exact tie
    ("both").
    """
    lam, xi = Fraction(lam), Fraction(xi)
    slice_counts = [-(1 + lam) * freqs.get(a, 0) for a in range(ifs.base)]
    w = [(xi - lam) * Fraction(e) for e in ifs.exponents(slice_counts, 1)]
    scale = math.lcm(*(e.denominator for e in w))
    sign = ifs.log_sign([int(e * scale) for e in w])
    return BOTH_BRANCHES if sign == 0 else XI_BRANCH if sign > 0 else LAMBDA_BRANCH
