"""The record classes: their reprs, equality, order, validation and
immutability, and what ``import gbtlab`` loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbtlab.axioms import AxiomProfile, UnknownAxiomError, axiom_profile
from gbtlab.claims import ClaimReport, list_claims
from gbtlab.gbt import GbtSpace, make_space
from gbtlab.gt import validate_gt
from gbtlab.mining import MiningQuery, Witness
from gbtlab.sets import GroundSet, GroundSetError, Subset, ground

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_heavy_stdlib_module():
    # -S keeps site (and whatever its .pth files import) out of the check
    code = "import gbtlab, sys; print(sorted({'dataclasses', 'importlib.resources', 'shutil'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reprs():
    space = make_space("abc", [["a", "b"]], [["c"]])
    assert repr(space.ground) == "GroundSet({a,b,c})"
    assert repr(Subset(5, space.ground)) == "{a,c}"
    assert repr(space) == "GbtSpace(GroundSet({a,b,c}), mu1={{}, {a,b}}, mu2={{}, {c}})"
    assert repr(space.mu2) == "GT({{}, {c}} on GroundSet({a,b,c}))"
    profile = AxiomProfile(True, False, False, False, False, False, True, True, False, witnesses={"T1": "w"})
    assert repr(profile) == (
        "AxiomProfile(t0=True, t_quarter=False, t_3_8=False, t_5_8=False, t_half=False, t1=False, "
        "r0=True, symmetric=True, lambda_symmetric=False, witnesses={'T1': 'w'})"
    )
    assert repr(ClaimReport("X", "verified", None, 3, 0.5)) == (
        "ClaimReport(id='X', status='verified', witness=None, spaces_checked=3, elapsed=0.5)"
    )
    assert repr(MiningQuery(("t1_4",), "t3_8", n_max=2)) == (
        "MiningQuery(antecedents=('T1_4',), consequent='T3_8', n_min=1, n_max=2, symmetry='perm+swap', limit=10)"
    )


def test_subsets_compare_and_order_by_bits_alone():
    g3, g2 = ground(3), ground(2)
    assert sorted([Subset(5, g3), Subset(1, g3), Subset(3, g3)]) == [Subset(1, g3), Subset(3, g3), Subset(5, g3)]
    assert Subset(1, g3) < Subset(2, g2) <= Subset(2, g3)
    assert Subset(3, g3) > Subset(2, g2) >= Subset(2, g3)
    assert Subset(3, g3) == Subset(3, g2) and hash(Subset(3, g3)) == hash(Subset(3, g2))
    assert Subset(3, g3) != Subset(1, g3)
    with pytest.raises(TypeError):
        Subset(1, g3) < 2  # noqa: B015


def test_profiles_compare_by_verdicts_not_witnesses():
    space = make_space("ab", [["a"]], [["b"]])
    profile = axiom_profile(space)
    verdicts = list(profile.as_dict().values())
    bare = AxiomProfile(*verdicts)
    assert bare.witnesses == {} and profile.witnesses
    assert bare == profile and not bare != profile and hash(bare) == hash(profile)
    assert AxiomProfile(*verdicts[:-1], not verdicts[-1]) != profile
    assert AxiomProfile(*verdicts).witnesses is not bare.witnesses


def test_records_equal_only_within_their_class():
    g = ground(2)
    assert GroundSet(("a", "b")) == g and hash(GroundSet(("a", "b"))) == hash(g)
    assert g != ("a", "b") and g != GroundSet(("b", "a"))
    assert ClaimReport("X", "verified", None, 3, 0.5) == ClaimReport("X", "verified", None, 3, 0.5)
    assert ClaimReport("X", "verified", None, 3, 0.5) != ClaimReport("X", "verified", None, 3, 0.25)
    with pytest.raises(TypeError):
        hash(ClaimReport("X", "verified", None, 3, 0.5))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GroundSet(()), "ground set must have 1..16 elements, got 0"),
        (lambda: GroundSet(tuple("abcdefghijklmnopq")), "ground set must have 1..16 elements, got 17"),
        (lambda: GroundSet(("a", "a")), "duplicate labels in ('a', 'a')"),
        (lambda: GroundSet(("a", "")), "empty label"),
        (lambda: Subset(8, ground(3)), "bits 0x8 outside ground set of size 3"),
        (
            lambda: GbtSpace(ground(2), validate_gt(ground(3), [0]), validate_gt(ground(3), [0])),
            "both topologies must live on the space's ground set",
        ),
    ],
)
def test_ground_set_errors(make, message):
    with pytest.raises(GroundSetError) as raised:
        make()
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"n_min": 3, "n_max": 2}, ValueError, "bad size range [3, 2]"),
        ({"n_min": 0}, ValueError, "bad size range [0, 3]"),
        ({"limit": 0}, ValueError, "limit must be positive"),
        ({"symmetry": "rot"}, ValueError, "symmetry must be one of ('perm', 'perm+swap'), got 'rot'"),
        ({"antecedents": ("T9",)}, UnknownAxiomError, "unknown axiom 'T9'"),
    ],
)
def test_mining_query_errors(kwargs, error, message):
    args = {"antecedents": ("T0",), "consequent": "T1", **kwargs}
    with pytest.raises(error) as raised:
        MiningQuery(**args)
    assert str(raised.value).startswith(message)


def _frozen_records():
    space = make_space("ab", [["a"]], [["b"]])
    profile = axiom_profile(space)
    return [
        (space.ground, "names"),
        (Subset(1, space.ground), "bits"),
        (space.mu1, "opens"),
        (space, "mu1"),
        (profile, "t0"),
        (profile, "witnesses"),
        (MiningQuery(("T0",), "T1"), "limit"),
        (Witness(space, profile, b"\x01"), "key"),
        (list_claims()[0], "scope"),
    ]


@pytest.mark.parametrize("record, field", _frozen_records())
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_cached_properties_still_cache_on_frozen_records():
    space = make_space("ab", [["a"]], [["b"]])
    assert space.mu1.closure_table is space.mu1.closure_table
    assert space.pairwise_lambda_closed == space.pairwise_lambda_closed
    assert "closure_table" in vars(space.mu1)


def test_mutable_records_take_assignment():
    report = ClaimReport("X", "verified", None, 3, 0.5)
    report.status = "refuted-with-witness"
    assert report.status == "refuted-with-witness"
