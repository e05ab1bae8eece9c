"""Byte-exact `sn-table` outputs on inline configs that the shipped configs
do not reach.

Each case pins the exit code, the SHA-256 of stdout and the SHA-256 of
`sn_table.csv`. The cases cover a target that first deviates at position 1
(vicsek (1/3, 1/3): every row is ranked over its patterns), one that
deviates only at the end of each window (vicsek (0, 2/9)), a base-4 system
with three row sizes above 1, a `table` schedule and an `alternating` one.
The two vicsek points write the same bytes: each target row holds two maps,
the most any row of vicsek holds, so no pattern's row product beats the
target's own.
"""

import contextlib
import hashlib
import io
import json

import pytest

from carpetdim.cli import main

VICSEK = {"name": "vicsek"}
LINEAR = {"kind": "linear", "lam": "1", "xi": "2"}
# rows 0..3 hold 3, 1, 2 and 4 maps
BASE4 = {"base": 4, "pairs": [[0, 0], [1, 0], [3, 0], [2, 1], [0, 2], [3, 2],
                              [0, 3], [1, 3], [2, 3], [3, 3]]}

CASES = {
    "vicsek-third-third": {
        "ifs": VICSEK, "target": {"point": ["1/3", "1/3"]},
        "schedule": LINEAR, "n_range": {"start": 1, "stop": 60},
    },
    "vicsek-0-2/9": {
        "ifs": VICSEK, "target": {"point": ["0", "2/9"]},
        "schedule": LINEAR, "n_range": {"start": 1, "stop": 60},
    },
    "base4-word": {
        "ifs": BASE4,
        "target": {"word": {"preperiod": [[0, 2], [1, 3]], "period": [[2, 1], [3, 3], [0, 0]]}},
        "schedule": {"kind": "linear", "lam": "2/3", "xi": "5/3"},
        "n_range": {"start": 1, "stop": 60},
    },
    "vicsek-center-table": {
        "ifs": VICSEK, "target": {"name": "vicsek-center"},
        "schedule": {"kind": "table",
                     "lam": [n for n in range(1, 61)],
                     "xi": [n + 1 + (7 * n) % 11 for n in range(1, 61)]},
        "n_range": {"start": 1, "stop": 60},
    },
    "vicsek-origin-alternating": {
        "ifs": VICSEK, "target": {"name": "vicsek-origin"},
        "schedule": {"kind": "alternating", "ratios": [["1", "2"], ["1", "3"]], "block_base": 4},
        "n_range": {"start": 1, "stop": 60},
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(tmp_path, config: dict) -> tuple[int, str, str]:
    """(exit code, stdout digest, sn_table.csv digest) of one `sn-table` run."""
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["sn-table", "--config", str(cfg), "--out", str(out)])
    return code, _sha(stdout.getvalue().encode()), _sha((out / "sn_table.csv").read_bytes())


# name -> (exit code, stdout digest, sn_table.csv digest)
GOLDEN = {
    'base4-word': (
        0,
        '7de3c4b8a3cbcb62a93f01100d77f281f5bdf34f95bf78154341eac60f81daa3',
        '91b1afa6ee7f2b0be09262445981087ac628edab5133c84fbfc173ad9ca48e7a',
    ),
    'vicsek-0-2/9': (
        0,
        '7de3c4b8a3cbcb62a93f01100d77f281f5bdf34f95bf78154341eac60f81daa3',
        'e1ec1f9bafc777f4638ef7f134f2f54e76bc0389a44236bee0f2a6086b19cbcd',
    ),
    'vicsek-center-table': (
        0,
        '7de3c4b8a3cbcb62a93f01100d77f281f5bdf34f95bf78154341eac60f81daa3',
        '1e9eca5fd1e37d388856a25df3ca60b2991c3da6d2f6af75f5c7f6330635b808',
    ),
    'vicsek-origin-alternating': (
        0,
        '7de3c4b8a3cbcb62a93f01100d77f281f5bdf34f95bf78154341eac60f81daa3',
        'aef87c358f3d67530a3d84200da9a61e67cab897aed817718d700d5ff583dbbb',
    ),
    'vicsek-third-third': (
        0,
        '7de3c4b8a3cbcb62a93f01100d77f281f5bdf34f95bf78154341eac60f81daa3',
        'e1ec1f9bafc777f4638ef7f134f2f54e76bc0389a44236bee0f2a6086b19cbcd',
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sn_table_output(tmp_path, name):
    assert run_case(tmp_path, CASES[name]) == GOLDEN[name]
