"""Pinned reports of both set-relation checks, failing runs included.

Each case pins the SHA-256 of `json.dumps(report.to_dict(), sort_keys=True)`
for `exhaustive_relation_check` at depth 6 and for `check_set_relation` on
300 purely periodic words of period 8 drawn from Random(7), on one vicsek
target with the linear (1, 2) schedule at n = 3. Each input runs three ways:
as is, with `verify._valid_shifts` patched to return [-1, 0, 1], and patched
to return [-1, 1]. The patched interior runs fail, so their digests pin the
failure words and reasons; the patched boundary runs pin the nonzero-shift
witnesses at the kx = 0 edge, where a translate leaves the unit square.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import carpetdim.verify as verify
from carpetdim import DigitWord, check_set_relation, exhaustive_relation_check, make_target

N = 3


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def _periodic_words(ifs):
    rng = random.Random(7)
    digits = ifs.sorted_digits()
    return [DigitWord.periodic((), [rng.choice(digits) for _ in range(8)]) for _ in range(300)]


PATCHES = {"as-is": None, "shifts-101": [-1, 0, 1], "shifts-11": [-1, 1]}

# (target, _valid_shifts patch) -> (exhaustive digest, sampled digest)
GOLDEN = {
    ("vicsek-origin", "as-is"): (
        "70849d01910649b7369625b864cdf3aae3cc8ba266427e7a3826454d0eb52324",
        "a09a3f3fe3621f2877e11000c0f6577ba8831edae291c96414d067f053933dbd",
    ),
    ("vicsek-origin", "shifts-101"): (
        "88d175544394c0ba9d0888ca6eaba51f811520cfb74fe75a1c64250ca921a0ca",
        "59a974868550d26c8c3aeafb1b2a4b65a291e1cc59ab6ebaf0422da4cd5f58fa",
    ),
    ("vicsek-origin", "shifts-11"): (
        "88d175544394c0ba9d0888ca6eaba51f811520cfb74fe75a1c64250ca921a0ca",
        "59a974868550d26c8c3aeafb1b2a4b65a291e1cc59ab6ebaf0422da4cd5f58fa",
    ),
    ("vicsek-center", "as-is"): (
        "1782da6f62c8b8744b58af0f0257e9d00b2b21ed3b0274f2d52ef5453503620e",
        "972c0344f9b8f1c192d93a432d75b1c653131db2a4eeda616848033e7568ce84",
    ),
    ("vicsek-center", "shifts-101"): (
        "365f7374f6d0e7758d7648f1909775ca0fefee4fab55b51a2e06c1d2911bc74a",
        "b3c70ba781f318227d38c6d69af22512e8c9eece5b6ca0640cea72064a9e7dba",
    ),
    ("vicsek-center", "shifts-11"): (
        "dc5f41046ecb1e742b3456b45605f8e0dc943765235470ad6c4a8b9e0ee31bf7",
        "247fad5d960713dabdb5659e6869a4781b2d9b05b6e1ac836c4e0460726c6e9b",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_set_relation_reports_are_pinned(vicsek, linear12, monkeypatch, case):
    name, patch = case
    c = {"vicsek-origin": 0, "vicsek-center": Fraction(1, 2)}[name]
    target = make_target(vicsek, c, c)
    if PATCHES[patch] is not None:
        monkeypatch.setattr(verify, "_valid_shifts", lambda *args, s=PATCHES[patch]: list(s))
    digests = (
        _digest(exhaustive_relation_check(vicsek, target, linear12, N, 6)),
        _digest(check_set_relation(vicsek, target, linear12, N, _periodic_words(vicsek))),
    )
    assert digests == GOLDEN[case]
