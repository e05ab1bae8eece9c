"""Pinned reports of the window oracle, failing runs included.

Each case pins the SHA-256 of `json.dumps(report.to_dict(), sort_keys=True)`
for `oracle_window_report` on one input, run three ways: as is, with
`shrinking.axis_digits_admissible` patched to accept exact matches only, and
patched to accept every digit string. The patched runs fail, so their
digests pin the window counts and the example windows of the failure, which
follow the order in which the oracle inserts its windows.
"""

import hashlib
import json
from fractions import Fraction

import pytest

import carpetdim.shrinking as shrinking
from carpetdim import RateSchedule, make_target, oracle_window_report


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def _exact_only(base, target_digits, word_digits):
    return tuple(target_digits) == tuple(word_digits)


def _always(base, target_digits, word_digits):
    return True


PATCHES = {"as-is": None, "exact-only": _exact_only, "always-true": _always}


def _inputs(name, vicsek, corner):
    """(system, target, schedule, n) of one pinned input."""
    if name == "vicsek-origin-linear":
        return vicsek, make_target(vicsek, 0, 0), RateSchedule.linear(1, 2), 3
    if name == "vicsek-center-table":
        half = Fraction(1, 2)
        return vicsek, make_target(vicsek, half, half), RateSchedule.from_tables([1, 2], [2, 4]), 2
    return corner, make_target(corner, 0, 0), RateSchedule.from_tables([2, 2, 3], [3, 4, 5]), 3


# (input, predicate patch) -> report digest
GOLDEN = {
    ("corner-origin-table", "as-is"):
        "c23cabc2cd21166e6c9f3f6ca9f0d91d402a0c127b69ec92997d8d0b64971b48",
    ("corner-origin-table", "exact-only"):
        "c23cabc2cd21166e6c9f3f6ca9f0d91d402a0c127b69ec92997d8d0b64971b48",
    ("corner-origin-table", "always-true"):
        "b7ce4ede06bc07abe9688f0494df21412566a653f500c04f7767ef861f3c76ab",
    ("vicsek-center-table", "as-is"):
        "95a5f9f917c32aa4966b67084483878823e93441f4cb664acea3dcf17ce58d15",
    ("vicsek-center-table", "exact-only"):
        "1fa40a50ac1b5414071c592c25417a30ad9fb8fe496c3934435a87112008111c",
    ("vicsek-center-table", "always-true"):
        "dbff854670b016c76eedd2e7fb3ec222f618361325de20ede3ccfe27e53b116a",
    ("vicsek-origin-linear", "as-is"):
        "d97ad627488511af3915e537bcdc85b6c3b7df1c3b69bac73508bc941b1cd632",
    ("vicsek-origin-linear", "exact-only"):
        "03f19349437434f34eb55748b9c9e637b9adeb8dcb57feb7ebe2783bd85ea896",
    ("vicsek-origin-linear", "always-true"):
        "d1dd7ffdc0897d2f4b8d817684bf94e11f690bfb62c50f7df09c495443010fdb",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_oracle_reports_are_pinned(vicsek, corner, monkeypatch, case):
    name, patch = case
    ifs, target, schedule, n = _inputs(name, vicsek, corner)
    if PATCHES[patch] is not None:
        monkeypatch.setattr(shrinking, "axis_digits_admissible", PATCHES[patch])
    assert _digest(oracle_window_report(ifs, target, schedule, n)) == GOLDEN[case]
