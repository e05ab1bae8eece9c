"""Pinned reports of both containment checks, failing runs included.

Each case pins the SHA-256 of `json.dumps(report.to_dict(), sort_keys=True)`
for the forward and the backward check on one input, run three ways: as is,
with `verify._window_verdict` patched to always miss, and patched to always hit.
The patched runs fail, so their digests pin the order, the reasons and the
words of the failure records as well as the counts and details.
"""

import hashlib
import itertools
import json
import random

import pytest

import carpetdim.verify as verify
from carpetdim import (
    DigitWord,
    check_containment_backward,
    check_containment_forward,
    make_target,
    random_words,
)


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def _inputs(name, vicsek, corner, schedule):
    """(system, target, n, words) of one pinned input."""
    if name == "corner-origin-exhaustive":
        words = [DigitWord.truncation(p)
                 for p in itertools.product(corner.sorted_digits(), repeat=8)]
        return corner, make_target(corner, 0, 0), 2, words
    ifs, target = vicsek, make_target(vicsek, 0, 0)
    return ifs, target, 8, random_words(ifs, target, schedule, 8, 800, 29, random.Random(5))


PATCHES = {"as-is": None, "always-miss": False, "always-hit": True}

# (input, _window_verdict patch) -> (forward digest, backward digest)
GOLDEN = {
    ("corner-origin-exhaustive", "as-is"): (
        "27fa7c9d5e62f2cd9c6df4f777cb4ef94d25c380148d37011d10939668f7aa83",
        "ee26eb8f01728fda4a5f3c72224fd9f8662a37f882ec47f00f90b7f1dd40d3ab",
    ),
    ("corner-origin-exhaustive", "always-miss"): (
        "4c3549887336bd12e3426329586746ce225feb3e5f6850f16237ef22933cf059",
        "f9e217483287d08659a299b7c89719baf74658e39b85029d945f09f9edf4b43b",
    ),
    ("corner-origin-exhaustive", "always-hit"): (
        "27fa7c9d5e62f2cd9c6df4f777cb4ef94d25c380148d37011d10939668f7aa83",
        "d4ad38f7e6532ddd28e5ee3c375d95ae839d10171eda77d6ecfbf7c9364ae0d8",
    ),
    ("vicsek-origin-random", "as-is"): (
        "3a8ccbb4faecdbb576c6c0fdc93166fb3463e0a9a1523447f71cf6858b755bc7",
        "f35419e8837f63e50b3da8c6f4759cdf07349c6d7195416ed30893e4e9845780",
    ),
    ("vicsek-origin-random", "always-miss"): (
        "21c5b4efa8568be32227c19e1dc7715ac73e6b07e6d340f6a36bc4c47713515f",
        "f9e217483287d08659a299b7c89719baf74658e39b85029d945f09f9edf4b43b",
    ),
    ("vicsek-origin-random", "always-hit"): (
        "3a8ccbb4faecdbb576c6c0fdc93166fb3463e0a9a1523447f71cf6858b755bc7",
        "9c01592ec5e6fd194c414d21a221a0fbaea1beb34b7b365f739c45d8b55ec805",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_containment_reports_are_pinned(vicsek, corner, linear12, monkeypatch, case):
    name, patch = case
    ifs, target, n, words = _inputs(name, vicsek, corner, linear12)
    if PATCHES[patch] is not None:
        monkeypatch.setattr(verify, "_window_verdict", lambda *args, hit=PATCHES[patch]: hit)
    digests = tuple(
        _digest(check(ifs, target, linear12, n, words))
        for check in (check_containment_forward, check_containment_backward)
    )
    assert digests == GOLDEN[case]
