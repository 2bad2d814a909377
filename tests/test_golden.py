"""Golden CLI outputs: exit code 0 and the sha256 of standard output.

The digests pin the bytes the commands printed before the mining pair
kernel replaced the deciders in the sweep, before topologies became
tuples of open masks, and before census and lattice read verdict words
(the four-point lattice was pinned then; the four-point census was pinned
before its canonical pairs, kernel columns and log lines were made
faster; the four-point mining queries before the kernel rows were
bit-sliced), so any change of verdicts, witnesses, counts or formatting
(labels, ``GbtSpace`` reprs) shows up here.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import pytest

from gbtlab.cli import main

FIXTURES = resources.files("gbtlab").joinpath("fixtures")

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
    (
        "mine --special note50-converse --n 3",
        "e2bc489d0c0067062e69a8de464eb1ebb67bfe57811268300ad6c68bf11bff2d",
    ),
    (
        "mine --special g-union-escape --n 3",
        "0f7badc72d4fc2e280acff2036e8388ab0245fdd3508ab14e44d29dc1de56871",
    ),
    (
        "mine --special g-intersection-escape --n 3",
        "8bd6d6a7e7aa11ff67ecf547dfd6f4c53bc77b5f42a329173aed21fda17f3eff",
    ),
    (
        "classify {fixtures}/e36.json",
        "038a140867ffd49a7b5391eb6dbfefe781e3cbb590498810f1d74d1816bc8348",
    ),
    (
        "census --n 3 --symmetry perm+swap --format json",
        "1e90f82721367238f75b7c940e7b81aae064be3c538eae2f0b479f1ab98138c1",
    ),
    (
        "lattice --n 3 --format json",
        "65f2bb5b82e58f3a7f0ccfdf6c506e6581a960b9434c7bb9f95f5bf9ea06ba40",
    ),
    (
        "census --n 4 --symmetry perm+swap --format json",
        "16dbc658f6969ab07ac9c71406ea1f04bf7b63ab78b95554ff20aad9dfb301f4",
    ),
    (
        "lattice --n 4 --format json",
        "2b92c8e77cef629d2eff536ef37fdc23481c1a6f01945b4fd257b90088831a77",
    ),
    # four-point mining, pinned before the kernel rows became bit-sliced ints;
    # between them the queries read every kernel shape under both symmetries
    (
        "mine --require T1_4 --forbid T3_8 --n 4",
        "dac5f5ed66dc7bd42c8d2b9390fcf7af91ea647bf66c5a466cc0924b6a5ebec6",
    ),
    (
        "mine --require SYM --require T1_4 --forbid T1 --n-min 4 --n 4 --limit 10",
        "318b71b75c573c38b9c40309f841d17216466f8105fb9a041d632fd79db92717",
    ),
    (
        "mine --require LSYM --require T0 --forbid T1_2 --n-min 4 --n 4 --symmetry perm --limit 10",
        "13952533548b1520aa172ff2c611a890a5efe415865c2047c24629f5bac62c4d",
    ),
    (
        "mine --require T1 --forbid R0 --n-min 4 --n 4 --limit 10",
        "843a84b45220416c282a12fabf6a96a57338f0547a4441d85156d5d4486df623",
    ),
    # a hit-heavy query: 19,517 hits read for 1,061 witnesses, pinned while
    # each hit was still keyed by the permutation search
    (
        "mine --require T1_2 --forbid T1 --n 4 --limit 100000 --format json",
        "1d7e1b5f57782af54a3b52bcbd94159d21c789c1225241b826fa136f8a627793",
    ),
]

# A space file whose families lack unions: mu1 misses {a,b}, {a,c}, {b,c}
# and {a,b,c}; mu2 misses {a,c} and {a,b,c}.
UNCLOSED = {"points": ["a", "b", "c"], "mu1": [["a"], ["b"], ["c"]], "mu2": [["a"], ["c"], ["b", "c"]]}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(("command", "digest"), GOLDEN, ids=[command for command, _ in GOLDEN])
def test_golden_output(capsys, command, digest):
    code = main(command.format(fixtures=FIXTURES).split())
    out = capsys.readouterr().out
    assert code == 0
    assert _digest(out) == digest


def test_golden_complete_unions(tmp_path, capsys):
    """Standard output is the completed file; standard error lists the added sets."""
    path = tmp_path / "unclosed.json"
    path.write_text(json.dumps(UNCLOSED))
    code = main(["validate", str(path), "--complete-unions"])
    captured = capsys.readouterr()
    assert code == 0
    assert _digest(captured.out) == "8d75adb547b599c12773b07b268275d7dcbfd288ba83990ec060a140a32b5cd9"
    assert _digest(captured.err) == "9de1977dd95a706de94375d38b94d2fff7c3a54cc6f06dffb0e3e51143732cc3"
