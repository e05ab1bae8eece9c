"""Pinned outputs of the lower-bound measure check.

Each case pins two SHA-256 digests of `measure_reports` on one input: the
sorted JSON of its reports with holder slack 0.05 (both checks pass) and
with slack -1.0 (every exponent misses its threshold, so the failure list
pins levels and exponent floats). A third digest pins every `HolderSample`
over the three seeded support words that `measure_reports` draws, with the
exponent as its `repr`, so the exact ball masses and every float bit hold.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from carpetdim import build_lower_bound_measure, holder_exponent_samples, make_target
from carpetdim.verify import measure_reports

SEED = 3
DELTA = "2"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _target(vicsek, name):
    c = {"vicsek-origin": 0, "vicsek-center": Fraction(1, 2)}[name]
    return make_target(vicsek, c, c)


# (target, break points) -> (reports at slack 0.05, reports at slack -1.0, samples)
GOLDEN = {
    ("vicsek-origin", (2, 13)): (
        "d893845489b62827e58bf94759100d399cf613ff2bca1e7e21ff96e96b09600f",
        "b015889aad0c33cd00dc45d0bf67853346811e3060c7aa96f2550babd9680c8f",
        "830233931dc3f67d510684a2b0b017436273af277a07ce2318bd293abce634f1",
    ),
    ("vicsek-origin", (4, 21)): (
        "b49774fb2096f07f57ba6a1979529db41011b293f391fcceccd656872e4e8169",
        "9e564e829ebffa8a266ab6d59eb244ebf0715e683186cec16f80bd63616594e3",
        "f12c9f8f9bb7624a321b45e4884823db681900bb417704d46b41e6eac6ebe590",
    ),
    ("vicsek-center", (2, 13)): (
        "6d9c5c18e1428934dca90ca53e10641e3f114cbed203a030fe39c226ea7cc74d",
        "06d1c246b09b8ee0c912722ca669194bc2d4366a686e1fa4c6d045165266f4f8",
        "fa126ffe46483c751567c081392135e61f0be92ba945cce3541674a1035e9832",
    ),
    ("vicsek-center", (4, 21)): (
        "4e472452f1c5d89cb91ad6bf2d67295e8901b89c43baf2bc09ce1a46915276da",
        "67600f57bd48ff4de7879eae69e557f3baf30554d69ea1e5955bddf19eb68f30",
        "f13fd544d5a1e47a738272e998fac3574ad040982621137eff0a4840fb6fa8a5",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_measure_reports_are_pinned(vicsek, linear12, case):
    name, bps = case
    target = _target(vicsek, name)
    reports = [
        _digest([r.to_dict() for r in
                 measure_reports(vicsek, target, linear12, SEED, list(bps), DELTA, slack)])
        for slack in (0.05, -1.0)
    ]

    builder = build_lower_bound_measure(vicsek, target, linear12, list(bps), DELTA)
    rng = random.Random(SEED)
    points = [builder.support_word(builder.depth)] + [
        builder.support_word(builder.depth, rng) for _ in range(2)
    ]
    radii = [Fraction(1, 3 ** m) for m in range(bps[0] + 1, builder.depth + 1)]
    samples = [
        [[str(c) for c in s.point], str(s.radius), s.level, str(s.ball_mass), repr(s.exponent)]
        for s in holder_exponent_samples(builder, points, radii)
    ]
    assert (*reports, _digest(samples)) == GOLDEN[case]
