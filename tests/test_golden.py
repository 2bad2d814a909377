"""Golden CLI outputs: exit code 0 and the sha256 of standard output.

The digests pin the bytes the commands printed before the mining pair
kernel replaced the deciders in the sweep, so any change of verdicts,
witnesses, counts or formatting shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from gbtlab.cli import main

GOLDEN = [
    (
        "mine --require T1_4 --forbid T3_8 --n 3",
        "bb337a397565c6c0b2a87fab7274936522b67297ec4016c9dca0c9a8e28f4652",
    ),
    (
        "mine --require T0 --forbid T1_2 --n 3 --limit 7 --workers 2 --format json",
        "152aa9b90682944d6d6fd45cae42af5f03e36edaff87e23f328dbaf8e06c9480",
    ),
    (
        "mine --require T1 --forbid R0 --n 3 --limit 4",
        "655b9f61d96a73b751b33c9f57fb56744f0fc35ed92493952e9f695ddc0b71bd",
    ),
    ("census --n 3", "6f75e3b51ddd97f7cd5c3c1be8eef00a9e63493f9c83d1f16c6e5bfa70a10603"),
    ("lattice --n 3", "f3be82e40744a1f70269557525d3449aa810b9e8636a7af6fab1baf603ecb511"),
    ("claims", "f37b9b6e4c01c165ec35d72141f00b54d4fdef451767d5cd82575b3f3bdafb67"),
    ("claims --list", "c729c34cfa3678ff77b4a81c38accbdf1377c401a8661ee3e14767d51041a610"),
]


@pytest.mark.parametrize(("command", "digest"), GOLDEN, ids=[command for command, _ in GOLDEN])
def test_golden_output(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
