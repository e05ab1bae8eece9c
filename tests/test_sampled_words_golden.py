"""Pinned digests of the sampled containment words and the measure spines.

`random_words` feeds the containment checks of `verify`, and the measure
spine is the window word the lower-bound measure follows past each break
point. Both are pinned draw for draw, so a refactor of the slot expansion
behind them must reproduce every sampled word and every spine exactly. The
cases include stages where some randomly paired axis patterns do not pair
inside the digit set (the word falls back to uniform draws) and a depth
shorter than the vertical window (the pattern-following body is cut).
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from carpetdim import (
    alternating_block_word,
    build_lower_bound_measure,
    make_target,
    random_words,
    target_from_word,
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def targets(vicsek, corner):
    return {
        "vicsek-origin": (vicsek, make_target(vicsek, 0, 0)),
        "vicsek-center": (vicsek, make_target(vicsek, Fraction(1, 2), Fraction(1, 2))),
        "corner-origin": (corner, make_target(corner, 0, 0)),
        "corner-blocks": (corner, target_from_word(corner, alternating_block_word(depth=256))),
    }


# (target, n, count, depth, seed) -> SHA-256 of the words' digit pairs
RANDOM_WORDS = {
    ("vicsek-origin", 4, 200, 17, 0): "2de9ec5a9b5022996252c5ff56c193285af9d7003b20e85b38983e652c038f02",
    ("vicsek-origin", 4, 200, 17, 7): "234ec2a0262dc373f0f4438beb8ff6500c022ca4a58a39e41f272b2970f5f88d",
    ("vicsek-center", 3, 200, 12, 0): "a8e76efc87d90d2c426c469fe0f472acb6218c57b7de9abed5b458aed3058566",
    ("vicsek-center", 3, 200, 12, 1): "a4bdba9e9f78da689f271b0c5064e90ccab026d73758e0dd6363b74e9d9aaa1a",
    ("corner-origin", 3, 200, 5, 0): "e5b93871cf57e37e6b2ee678534b24c750f3557fb63e741729f8f6abc3dd9bb9",
    ("corner-origin", 3, 200, 5, 3): "a0187a12be5ec5b3e9e8daf53ade71b81aa917380b9f828cfb7455736a568a43",
    ("corner-blocks", 5, 200, 20, 0): "80f0094aa862586760fa738351203d4c353a17bfdb2d9dc25031910cd9f2ef04",
    ("corner-blocks", 5, 200, 20, 1): "5c1efcac290dd10e5ed3ac6049e6ecfbef15742307dda626e270cc5f2b29c63d",
}


@pytest.mark.parametrize("case", sorted(RANDOM_WORDS), ids=lambda c: "-".join(map(str, c)))
def test_random_words_are_pinned(targets, linear12, case):
    name, n, count, depth, seed = case
    ifs, target = targets[name]
    words = random_words(ifs, target, linear12, n, count, depth, random.Random(seed))
    assert all(len(w.preperiod) == depth and not w.period for w in words)
    assert _digest([[list(p) for p in w.preperiod] for w in words]) == RANDOM_WORDS[case]


# (target, break points) -> SHA-256 of {break point: spine pairs}
SPINES = {
    ("vicsek-origin", (4, 21)): "dee950dc8376ea6989eaeb8679eaf591115eed60a802e382f7ffc7f8ce72c002",
    ("vicsek-origin", (3, 17)): "5c8c96457b2bc175af7e80dd0d6ae136bc6683981015bf21b121811203943a77",
    ("vicsek-center", (4, 21)): "445ad686ccaa130dea54698a6f6650e906e563b25772565383092da4ccae0a72",
    ("corner-blocks", (4, 21)): "13cf2005159be8d44af72ff1637b14eef880aa599baac0f03f1ff0950bb7b4e3",
}


@pytest.mark.parametrize("case", sorted(SPINES), ids=lambda c: f"{c[0]}-{c[1]}")
def test_measure_spines_are_pinned(targets, linear12, case):
    name, bps = case
    ifs, target = targets[name]
    builder = build_lower_bound_measure(ifs, target, linear12, list(bps), 2)
    spines = {str(n): [list(p) for p in builder.spines[n]] for n in bps}
    assert _digest(spines) == SPINES[case]
