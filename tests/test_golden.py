"""Byte-exact golden outputs of every CLI command on every shipped config.

Each case pins the exit code, the SHA-256 of stdout and the SHA-256 of every
file written to --out, so a refactor that changes any printed or written byte
fails here. The vicsek-center and vicsek-origin configs have no verify block,
so their verify runs take the default checks, including the sampled set
relation.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from carpetdim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

COMMANDS = {
    "dimension": ["dimension"],
    "slice": ["slice"],
    "verify": ["verify"],
    "sn-table": ["sn-table", "--n-max", "40"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(config: str, command: str, out_dir: Path) -> tuple[int, str, dict[str, str]]:
    """(exit code, stdout digest, {output file name: digest}) of one CLI run."""
    argv = COMMANDS[command] + ["--config", str(CONFIGS / f"{config}.json"), "--out", str(out_dir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    files = {}
    if out_dir.exists():
        files = {
            p.relative_to(out_dir).as_posix(): _sha(p.read_bytes())
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        }
    return code, _sha(stdout.getvalue().encode()), files


GOLDEN = {
    ('corner-blocks', 'dimension'): (
        0,
        '67a46bffeb4584de373f5c38353e886dc2d9f8e80172600369d7c8b3fac20004',
        {
            'sn.csv': '3e26e9e08682e9e288a8f0b9e51841ed43bcb3a11f66788b2cf3cbcdcd893762',
            'summary.json': '7e93b354eb5e67e6fb9ccd7fe8fa583cba5c4497e2ef03c42bf3542f3b21e376',
        },
    ),
    ('corner-blocks', 'slice'): (
        0,
        'caefe077bf9646577a47583c73456c4d5e72a89068c1141d78794e46d79e2be1',
        {
            'slice.json': '043c77bb1f4694b06a04f0805a91c72b6566e52f51c67cab197a86ec08116c19',
        },
    ),
    ('corner-blocks', 'sn-table'): (
        0,
        '88ca32772d85883951139c4e6c43875eb5cb0f3a5a5482874cfa039307dd0539',
        {
            'sn_table.csv': '3c79ade20046caa6c4c967334768f7db05c612fc9d21078ea678ec4c59d7e1c6',
        },
    ),
    ('corner-blocks', 'verify'): (
        2,
        '2cb9375dc05cc63423bb4e07555db4350b2bec9be08ef773f472d5900b3007bd',
        {},
    ),
    ('verify-vicsek', 'dimension'): (
        0,
        'b5ae2cd2851805e8531323d87b93a9cafb263d8750ab54c7c43e07b92f8fa503',
        {
            'sn.csv': '69a780a4a4a7a1ac3fe144b39037f29b4fdea2ff91080c16d1a71de7a2be667a',
            'summary.json': '44a7559e785fcd8616c30d50a2ae0b7e0d6d62fb58780f907034440ed20c5dfd',
        },
    ),
    ('verify-vicsek', 'slice'): (
        0,
        '5d435d2819ed9012ed5e346e36a8f2620e8e9ad1200eeafe70e09a2efaa73761',
        {
            'slice.json': '78b825dd7d8f3a1376974c4f0e7d0cb5f2c3fa9fa16af4e4fb781f63e27df6a6',
        },
    ),
    ('verify-vicsek', 'sn-table'): (
        0,
        '83dceaf4b9cc2c0f99f24b186161a40574c788511388581211413c36950b4c57',
        {
            'sn_table.csv': '821a11d611f9b5cd370cbb1a152197a70695a5163d24a35577ac31fc520dd1dd',
        },
    ),
    ('verify-vicsek', 'verify'): (
        0,
        '53d7f4d1d9e44960a3cdd1f17af8cd2d98a2f32df53382df272194e8cc91f5b7',
        {
            'verify.json': '0967cb85b031a07c3b6c825c8ee6e3b9a1e21283ef8963e53510ef0d8f371b04',
        },
    ),
    ('vicsek-center', 'dimension'): (
        0,
        '554ab75e3a06055686cef5707b08447989af1643df6504ca94ec29283209391c',
        {
            'sn.csv': 'd0e258f9aeb652dc3369b69d3799a916d13e7200a659439d120c4d418f100495',
            'summary.json': 'db9e8cf18b662f6918f95691c1d02321dd2c35012b57c4bfa5bb470bc6c3df03',
        },
    ),
    ('vicsek-center', 'slice'): (
        0,
        '5df9618f3858cbe6876f1494a00b57e4539fd83de9e7fad00060d04ed9648782',
        {
            'slice.json': '3861112a5897c065129d5776a1995ec41fadf05b4f9ea6a13d42c34ea05d2e09',
        },
    ),
    ('vicsek-center', 'sn-table'): (
        0,
        '83dceaf4b9cc2c0f99f24b186161a40574c788511388581211413c36950b4c57',
        {
            'sn_table.csv': 'd23ec58a186c182411883da71d32bf4fe58ebea04eb96324962ec66bbe1e3e37',
        },
    ),
    ('vicsek-center', 'verify'): (
        0,
        'a6a67939d2673a74e6fc65ed20ca3b6136cacc436e72c794127917cf68e3dd34',
        {
            'verify.json': '16e572e1dceef361cb60990c9449e114552c4fc083842266179bf8cf3f1e3527',
        },
    ),
    ('vicsek-origin', 'dimension'): (
        0,
        '0f061caf3df3a6ea2f2fd454119424bbd7651b2037f087abcef0ddab314fb284',
        {
            'sn.csv': '32cc4f5c922430c83af47c6e91c777b507b1760555894a2069be6235d6c63350',
            'summary.json': 'ad300f785b5840ff126aec590e38b48b8e444048fa41880a49fca61711d497fd',
        },
    ),
    ('vicsek-origin', 'slice'): (
        0,
        '5d435d2819ed9012ed5e346e36a8f2620e8e9ad1200eeafe70e09a2efaa73761',
        {
            'slice.json': '78b825dd7d8f3a1376974c4f0e7d0cb5f2c3fa9fa16af4e4fb781f63e27df6a6',
        },
    ),
    ('vicsek-origin', 'sn-table'): (
        0,
        '83dceaf4b9cc2c0f99f24b186161a40574c788511388581211413c36950b4c57',
        {
            'sn_table.csv': '821a11d611f9b5cd370cbb1a152197a70695a5163d24a35577ac31fc520dd1dd',
        },
    ),
    ('vicsek-origin', 'verify'): (
        0,
        'a9aad9fa9abd779feaa825ed649d5723f8c0c14606b875818eee856a8235c4f8',
        {
            'verify.json': '97f0d3ea23bce1822c5583ca485e8ff48379cef178b5c540263071cd02168cec',
        },
    ),
}


@pytest.mark.parametrize("config, command", sorted(GOLDEN))
def test_golden_output(tmp_path, config, command):
    assert run_case(config, command, tmp_path / "out") == GOLDEN[config, command]


def test_every_config_and_command_is_pinned():
    configs = sorted(p.stem for p in CONFIGS.glob("*.json"))
    assert sorted(GOLDEN) == [(c, k) for c in configs for k in sorted(COMMANDS)]
