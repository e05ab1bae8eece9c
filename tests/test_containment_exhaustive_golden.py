"""Pinned reports of the exhaustive containment check, failing runs included.

Each case pins the SHA-256 of `json.dumps([r.to_dict() for r in reports],
sort_keys=True)` for `containment_exhaustive_reports` (forward, then
backward) on one input, run three ways: as is, with `verify._window_verdict`
patched to always miss, and patched to always hit. The patched runs fail, so
their digests pin the order, the reasons and the words of the first failure
records as well as the counts and details.
"""

import hashlib
import json

import pytest

import carpetdim.verify as verify
from carpetdim import make_target
from carpetdim.verify import containment_exhaustive_reports


def _digest(reports) -> str:
    return hashlib.sha256(json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()).hexdigest()


PATCHES = {"as-is": None, "always-miss": False, "always-hit": True}
# input -> (n, depth)
SIZES = {"vicsek-origin": (2, 7), "corner-origin": (2, 8)}

# (input, _window_verdict patch) -> digest of both reports
GOLDEN = {
    ("corner-origin", "as-is"):
        "aab0d374c2003a440c0a44ecd9535a220d9241432140c66b92024d0a29353d54",
    ("corner-origin", "always-miss"):
        "cfab27f75e161a1383a5b4595555d2d701baa20cfaccd715a2ca45c62fd045b4",
    ("corner-origin", "always-hit"):
        "cadf6a3e68b98800458f1aa5bf7ede5208d0614ae71984c7be73e0221cc76284",
    ("vicsek-origin", "as-is"):
        "e0708a5b39a2407da4736c8975793ae107a4de8610295216fa2ace0a7059996c",
    ("vicsek-origin", "always-miss"):
        "204579e740694e42ca410fb79369e5a1e450aa3eb7de8bf0ebc72bf488426ea0",
    ("vicsek-origin", "always-hit"):
        "b993a86ec78ff5d6e50c622513e1b7e1761300baacceeec4fb36e3bfbb86776d",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_containment_exhaustive_reports_are_pinned(vicsek, corner, linear12, monkeypatch, case):
    name, patch = case
    ifs = vicsek if name == "vicsek-origin" else corner
    if PATCHES[patch] is not None:
        monkeypatch.setattr(verify, "_window_verdict", lambda *args, hit=PATCHES[patch]: hit)
    n, depth = SIZES[name]
    reports = containment_exhaustive_reports(ifs, make_target(ifs, 0, 0), linear12, 0, n, depth)
    assert _digest(reports) == GOLDEN[case]
