"""The claim kernels against the per-space families and checkers they replace
in the sweep: the family slices, the kernels' verdicts, planted faults, and
the exit code of a hit that its checker does not confirm."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from gbtlab import claim_kernels, claims, gbt
from gbtlab.axioms import InternalDisagreementError, _sliced
from gbtlab.claims import STATUS_REFUTED, SpaceContext, _UNIVERSAL_CHECKERS, run_claims
from gbtlab.cli import main
from gbtlab.enumeration import canonical_pair_indices, gts_on
from gbtlab.gbt import GbtSpace

SRC = Path(__file__).resolve().parents[1] / "src"


def _blocks():
    """Every n ≤ 3 level's canonical pairs and the seed-1 sample of 4,000
    four-point pairs, each as (n, pairs)."""
    levels = [(n, list(canonical_pair_indices(n))) for n in (1, 2, 3)]
    rng, count = Random(1), len(gts_on(4))
    return levels + [(4, [(rng.randrange(count), rng.randrange(count)) for _ in range(4000)])]


BLOCKS = _blocks()


def _spaces(n, pairs):
    gts = gts_on(n)
    return [GbtSpace(gts[0].ground, gts[i], gts[j]) for i, j in pairs]


def _families(n, pairs):
    gts = gts_on(n)
    return claim_kernels.block_families([gts[i] for i, _ in pairs], [gts[j] for _, j in pairs])


def _per_pair(slices, count):
    """Bit-sliced family slices back to one family mask per pair."""
    return list(_sliced(list(slices), count))


@pytest.mark.parametrize("n,pairs", BLOCKS, ids=["n1", "n2", "n3", "n4-sample"])
def test_the_family_slices_equal_the_per_space_masks(n, pairs):
    f = _families(n, pairs)
    spaces = _spaces(n, pairs)
    for i, side in ((0, 1), (1, 2)):
        pairs_of = {
            "g_closed": [s.g_closed[side] for s in spaces],
            "lambda_closed": [s.lambda_closed[side] for s in spaces],
            "closed": [s.side(side).closed_family for s in spaces],
            "wedge_sets": [s.side(side).wedge_sets for s in spaces],
            "vee_sets": [s.side(side).vee_sets for s in spaces],
        }
        for name, want in pairs_of.items():
            assert _per_pair(getattr(f, name)[i], len(pairs)) == want, (name, side)
    assert _per_pair(f.pairwise_lambda_closed, len(pairs)) == [s.pairwise_lambda_closed for s in spaces]
    assert _per_pair(f.wedge12_sets, len(pairs)) == [s.wedge12_sets for s in spaces]


@pytest.mark.parametrize("n,pairs", BLOCKS, ids=["n1", "n2", "n3", "n4-sample"])
def test_every_kernel_holds_where_its_checker_does(n, pairs):
    f = _families(n, pairs)
    contexts = [SpaceContext(s) for s in _spaces(n, pairs)]
    for claim_id, kernel in claim_kernels.KERNELS.items():
        assert kernel(f) == 0, claim_id
        assert [ctx for ctx in contexts if _UNIVERSAL_CHECKERS[claim_id](ctx) is not None] == [], claim_id


@pytest.mark.parametrize("n,pairs", BLOCKS, ids=["n1", "n2", "n3", "n4-sample"])
def test_the_kernel_forms_equal_the_per_space_forms(n, pairs):
    """Each of LEM-43's and LEM-45's four forms, one slice list per form,
    against the per-space form masks of ``gbt``."""
    f = _families(n, pairs)
    spaces = _spaces(n, pairs)
    for side in (1, 2):
        got = [_per_pair(form, len(pairs)) for form in claim_kernels.lambda_closed_forms(f, side - 1)]
        assert list(zip(*got)) == [gbt.lambda_closed_forms(s, side) for s in spaces], side
    forms = claim_kernels.pairwise_lambda_closed_forms(f)
    got = [_per_pair(form, len(pairs)) for form in forms]
    assert list(zip(*got)) == [gbt.pairwise_lambda_closed_forms(s) for s in spaces]
    # one to three forms flipped at X, or at X and ∅, of the last pair differ there alone
    last = 1 << len(pairs) - 1
    for chosen in (c for r in (1, 2, 3) for c in combinations(range(4), r)):
        for subsets in ((-1,), (-1, 0)):
            flipped = [list(form) for form in forms]
            for k, a in product(chosen, subsets):
                flipped[k][a] ^= last
            assert claim_kernels._forms_differ(flipped) == last, (chosen, subsets)


# claim -> the families a planted fault changes; they are fields of the
# GbtSpace under the same names that the kernels' families carry
PLANTED_IN = {
    "REM-9": "g_closed",
    "THM-12": "g_closed",
    "THM-UNION-G": "g_closed",
    "THM-UNION-WS": "g_closed",
    "THM-48": "g_closed",
    "OBS-39": "lambda_closed",
    "THM-40": "lambda_closed",
    "COR-42": "lambda_closed",
    "LEM-43": "lambda_closed",
    "LEM-45": "pairwise_lambda_closed",
    "OBS-46": "pairwise_lambda_closed",
    "NOTE-47": "pairwise_lambda_closed",
    "NOTE-50": "wedge12_sets",
}
SIDED = ("g_closed", "lambda_closed")
N3_PAIRS = BLOCKS[2][1]
N3_SPACES = _spaces(3, N3_PAIRS)
FIRST_PLACE = 100  # faults are sought from here on, away from the block's first bits


def _planted_space(space, name, side, a):
    """A copy of the space whose family ``name`` (of ``side``, or the
    unsided one for side 0) has subset a flipped."""
    copy = GbtSpace(space.ground, space.mu1, space.mu2)
    family = getattr(space, name)
    copy.__dict__[name] = {**family, side: family[side] ^ 1 << a} if side else family ^ 1 << a
    return copy


def _planted_families(f, name, side, a, position):
    """The families with subset a of ``name`` flipped at one position."""
    def flip(slices):
        slices = list(slices)
        slices[a] ^= 1 << position
        return slices

    family = getattr(f, name)
    if side:
        family = tuple(flip(x) if k == side - 1 else x for k, x in enumerate(family))
    else:
        family = flip(family)
    return f._replace(**{name: family})


def _fault(claim_id):
    """The first (place, side, subset, witness) from FIRST_PLACE on among
    the n = 3 canonical pairs where flipping one subset of the claim's
    family makes its checker fail."""
    name, checker = PLANTED_IN[claim_id], _UNIVERSAL_CHECKERS[claim_id]
    for place in range(FIRST_PLACE, len(N3_SPACES)):
        space = N3_SPACES[place]
        for side in (1, 2) if name in SIDED else (0,):
            for a in range(space.n_subsets):
                witness = checker(SpaceContext(_planted_space(space, name, side, a)))
                if witness is not None:
                    return place, side, a, witness
    raise AssertionError(f"no single flip of {name} breaks {claim_id}")


FAULTS = {claim_id: _fault(claim_id) for claim_id in claim_kernels.KERNELS}


@pytest.mark.parametrize("claim_id", list(claim_kernels.KERNELS))
def test_a_planted_fault_flags_exactly_its_position(claim_id):
    place, side, a, _ = FAULTS[claim_id]
    f = _families(3, N3_PAIRS)
    planted = _planted_families(f, PLANTED_IN[claim_id], side, a, place)
    assert claim_kernels.KERNELS[claim_id](planted) == 1 << place


@pytest.mark.parametrize("claim_id", list(claim_kernels.KERNELS))
def test_each_single_flip_fails_the_kernel_where_it_fails_the_checker(claim_id):
    """At spread positions of the n = 3 level and of the four-point sample,
    every flip of one subset of the claim's family: the kernel's bit at that
    position is set exactly when the checker, given the same flip, fails."""
    name, checker, kernel = PLANTED_IN[claim_id], _UNIVERSAL_CHECKERS[claim_id], claim_kernels.KERNELS[claim_id]
    failures = 0
    for n, pairs in (BLOCKS[2], BLOCKS[3]):
        f = _families(n, pairs)
        spaces = _spaces(n, pairs)
        for place in range(0, len(pairs), len(pairs) // 8):
            for side in (1, 2) if name in SIDED else (0,):
                for a in range(1 << n):
                    fails = checker(SpaceContext(_planted_space(spaces[place], name, side, a))) is not None
                    assert kernel(_planted_families(f, name, side, a, place)) == fails << place, (n, place, side, a)
                    failures += fails
    assert failures


@pytest.mark.parametrize("claim_id", list(claim_kernels.KERNELS))
def test_two_flips_at_one_position_fail_the_kernel_where_they_fail_the_checker(claim_id):
    """At spread positions of the n = 3 level, every two flips of the
    claim's family that each fail the checker alone: on both sides, or at
    two subsets of one side, which two members or two terms of the kernel
    see.  The kernel's bit there is set exactly when the checker, given
    both flips, fails, so two sightings of a fault do not cancel."""
    name, checker, kernel = PLANTED_IN[claim_id], _UNIVERSAL_CHECKERS[claim_id], claim_kernels.KERNELS[claim_id]
    f, failures = _families(3, N3_PAIRS), 0
    for place in range(0, len(N3_PAIRS), len(N3_PAIRS) // 8):
        space = N3_SPACES[place]
        flips = [
            (side, a) for side in ((1, 2) if name in SIDED else (0,)) for a in range(8)
            if checker(SpaceContext(_planted_space(space, name, side, a))) is not None
        ]
        for (s1, a1), (s2, a2) in combinations(flips, 2):
            fails = checker(SpaceContext(_planted_space(_planted_space(space, name, s1, a1), name, s2, a2))) is not None
            both = _planted_families(_planted_families(f, name, s1, a1, place), name, s2, a2, place)
            assert kernel(both) == fails << place, (place, s1, a1, s2, a2)
            failures += fails
    assert failures


@pytest.fixture(scope="module")
def unplanted():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "_ONCE_CHECKERS", {})
        mp.setattr(claims, "FIXTURES", ())
        return {r.id: r.as_dict() for r in run_claims(n_scope=3, n4_samples=0)}


@pytest.mark.parametrize("claim_id", list(claim_kernels.KERNELS))
def test_a_planted_fault_is_reported_at_its_place_in_the_sweep(monkeypatch, unplanted, claim_id):
    """The fault goes into what the claim's kernel and checker read, at one
    n = 3 space: the claim reports its checker's witness at that space's
    position in the sweep, and no other report changes."""
    place, side, a, witness = FAULTS[claim_id]
    name, target = PLANTED_IN[claim_id], N3_SPACES[place]
    kernel, checker = claim_kernels.KERNELS[claim_id], _UNIVERSAL_CHECKERS[claim_id]

    def planted_kernel(f):
        return kernel(_planted_families(f, name, side, a, place) if f.size == 3 else f)

    def planted_checker(ctx):
        if ctx.space == target:
            ctx = SpaceContext(_planted_space(ctx.space, name, side, a))
        return checker(ctx)

    monkeypatch.setitem(claim_kernels.KERNELS, claim_id, planted_kernel)
    monkeypatch.setitem(_UNIVERSAL_CHECKERS, claim_id, planted_checker)
    monkeypatch.setattr(claims, "_ONCE_CHECKERS", {})
    monkeypatch.setattr(claims, "FIXTURES", ())
    got = {r.id: r.as_dict() for r in run_claims(n_scope=3, n4_samples=0)}
    assert got.pop(claim_id) == {
        "id": claim_id, "status": STATUS_REFUTED, "witness": witness, "spaces_checked": 3 + 18 + place + 1,
    }
    assert got == {k: v for k, v in unplanted.items() if k != claim_id}


def test_a_kernel_hit_its_checker_rejects_is_an_internal_disagreement(monkeypatch, capsys):
    # the kernel fails every pair, and the checker passes the first space
    monkeypatch.setitem(claim_kernels.KERNELS, "OBS-46", lambda f: f.every)
    with pytest.raises(InternalDisagreementError, match="OBS-46: kernel and checker disagree on GbtSpace"):
        run_claims(n_scope=1, n4_samples=0)
    assert main(["claims"]) == 3
    err = capsys.readouterr().err
    assert "internal decider disagreement: OBS-46: kernel and checker disagree" in err and "Traceback" not in err


def test_import_gbtlab_leaves_the_kernels_uncompiled():
    code = "import gbtlab, sys; print('gbtlab.claim_kernels' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
