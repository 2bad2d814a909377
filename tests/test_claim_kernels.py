"""The claim kernels and the block words against the per-space checkers,
families and verdicts they replace in the sweep: the family slices, the
words, the kernels' verdicts, planted faults in the families, the words and
one topology's tables, and the exit code of a hit that its checker does not
confirm."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import defaultdict
from functools import lru_cache
from itertools import combinations, islice, product
from pathlib import Path
from random import Random

import pytest

from gbtlab import claim_kernels, claims, gbt
from gbtlab.axioms import AXIOM_BITS, InternalDisagreementError, _sliced, axiom_profile, profile_word, sliced_tables
from gbtlab.claims import STATUS_REFUTED, SpaceContext, _UNIVERSAL_CHECKERS, run_claims
from gbtlab.cli import main
from gbtlab.enumeration import canonical_pair_indices, gts_on, iter_gt_mask_families
from gbtlab.gbt import GbtSpace
from gbtlab.gt import GeneralizedTopology
from gbtlab.mining import verdict_words
from gbtlab.sets import ground

SRC = Path(__file__).resolve().parents[1] / "src"


def _blocks():
    """Every n ≤ 3 level's canonical pairs and the seed-1 sample of 4,000
    four-point pairs, each as (n, pairs)."""
    levels = [(n, list(canonical_pair_indices(n))) for n in (1, 2, 3)]
    rng, count = Random(1), len(gts_on(4))
    return levels + [(4, [(rng.randrange(count), rng.randrange(count)) for _ in range(4000)])]


BLOCKS = _blocks()
IDS = ["n1", "n2", "n3", "n4-sample"]
# the claims the seed-1 sweep refutes; their kernels fail on unplanted pairs
REFUTED = {"THM-21", "THM-33-LITERAL", "THM-51", "THM-54"}


def _topologies(n, pairs):
    gts = gts_on(n)
    return [gts[i] for i, _ in pairs], [gts[j] for _, j in pairs]


def _spaces(n, pairs):
    return [GbtSpace(t1.ground, t1, t2) for t1, t2 in zip(*_topologies(n, pairs))]


def _families(n, pairs):
    return claim_kernels.block_families(*_topologies(n, pairs))


def _per_pair(slices, count):
    """Bit-sliced family slices back to one family mask per pair."""
    return list(_sliced(list(slices), count))


@lru_cache(maxsize=None)
def _unplanted(k):
    """The families of BLOCKS[k], a context per pair handed its block word,
    and each kernel's int on the block."""
    n, pairs = BLOCKS[k]
    f = _families(n, pairs)
    contexts = [SpaceContext(s, word) for s, word in zip(_spaces(n, pairs), f.words)]
    return f, contexts, {claim_id: kernel(f) for claim_id, kernel in claim_kernels.KERNELS.items()}


def _failures(checker, contexts, places) -> int:
    """The int of the places whose context the checker fails."""
    return sum(1 << s for s in places if checker(contexts[s]) is not None)


@pytest.mark.parametrize("n,pairs", BLOCKS, ids=IDS)
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


@pytest.mark.parametrize("n,pairs", BLOCKS, ids=IDS)
def test_the_block_words_equal_the_dense_rows(n, pairs):
    words = _families(n, pairs).words
    assert words == bytes(verdict_words(n, pairs))
    assert len(set(words)) > (n > 1)


def test_the_diagonal_of_four_points():
    """The pairs (t, t) of every four-point topology: the block words equal
    the dense rows (two or six point pairs unsplit on both sides at once);
    THM-18's kernel, with T0 forced into every word, fails where its
    checker does (two or six pairs glued by both closures); and with X
    taken out of side 2's ∧-sets everywhere, NOTE-10 fails at every
    position, as its checker does, however many subsets have ∧(a) = X."""
    gts, full = gts_on(4), 15
    f = claim_kernels.block_families(gts, gts)
    assert f.words == bytes(verdict_words(4, [(i, i) for i in range(len(gts))]))
    forced = bytes(word | AXIOM_BITS["T0"] for word in f.words)
    contexts = [SpaceContext(GbtSpace(t.ground, t, t), word) for t, word in zip(gts, forced)]
    glued = _failures(_UNIVERSAL_CHECKERS["THM-18"], contexts, range(len(gts)))
    assert claim_kernels.KERNELS["THM-18"](f._replace(words=forced)) == glued and glued
    side2 = list(f.wedge_sets[1])
    side2[full] = 0
    unfixed = f._replace(wedge_sets=(f.wedge_sets[0], side2))
    assert claim_kernels.KERNELS["NOTE-10"](unfixed) == f.every
    for t in gts[::97]:
        copy = GeneralizedTopology(t.ground, t.opens)
        copy.__dict__["wedge_sets"] = t.wedge_sets ^ 1 << full
        assert _UNIVERSAL_CHECKERS["NOTE-10"](SpaceContext(GbtSpace(t.ground, t, copy))) is not None


def test_the_block_words_equal_the_cross_validated_profile_on_five_points():
    g = ground(5)
    topologies = [GeneralizedTopology(g, f) for f in islice(iter_gt_mask_families(5), 0, 6000, 60)]
    rng = Random(39)
    pairs = [rng.sample(topologies, 2) for _ in range(60)] + [[t, t] for t in rng.sample(topologies, 20)]
    words = claim_kernels.block_families([a for a, _ in pairs], [b for _, b in pairs]).words
    want = [profile_word(axiom_profile(GbtSpace(g, a, b), cross_validate=True)) for a, b in pairs]
    assert list(words) == want
    assert len(set(want)) > 2


def test_a_chain_breaking_word_raises_naming_its_pair(monkeypatch):
    """A word with T1/2 and without T5/8, planted at one place of a block
    through ``block_words``, raises and names that place's space."""
    firsts, seconds = _topologies(*BLOCKS[2])
    real, place = claim_kernels.block_words, 200

    def planted(f):
        words = bytearray(real(f))
        words[place] = AXIOM_BITS["T1_2"]
        return bytes(words)

    monkeypatch.setattr(claim_kernels, "block_words", planted)
    space = GbtSpace(firsts[place].ground, firsts[place], seconds[place])
    message = f"implication chain broken on {space!r}: T1_2 holds but T5_8 fails"
    with pytest.raises(InternalDisagreementError, match=re.escape(message)):
        claim_kernels.first_failures(firsts, seconds, list(claim_kernels.KERNELS), defaultdict(float))


def _assert_the_kernels_fail_where_the_checkers_do(k):
    """Every kernel's int is the int of the pairs whose checker fails, so
    its first failing position is the checker's first failure."""
    f, contexts, kernels = _unplanted(k)
    for claim_id, checker in _UNIVERSAL_CHECKERS.items():
        assert kernels[claim_id] == _failures(checker, contexts, range(len(contexts))), claim_id
    assert {claim_id for claim_id, found in kernels.items() if found} <= REFUTED


@pytest.mark.parametrize("k", [0, 1, 2], ids=IDS[:3])
def test_every_kernel_holds_where_its_checker_does(k):
    _assert_the_kernels_fail_where_the_checkers_do(k)


@pytest.mark.parametrize("n,pairs", BLOCKS, ids=IDS)
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


# claim -> the family a planted fault changes; they are fields of the
# GbtSpace under the same names that the kernels' families carry
PLANTED_IN = {
    "REM-9": "g_closed",
    "NOTE-10": "g_closed",
    "THM-12": "g_closed",
    "THM-UNION-G": "g_closed",
    "THM-UNION-WS": "g_closed",
    "THM-28": "g_closed",
    "COR-29": "g_closed",
    "THM-30": "g_closed",
    "REM-32": "g_closed",
    "THM-33-LITERAL": "g_closed",
    "THM-33-CROSS": "g_closed",
    "THM-48": "g_closed",
    "OBS-39": "lambda_closed",
    "THM-40": "lambda_closed",
    "COR-42": "lambda_closed",
    "LEM-43": "lambda_closed",
    "REM-46": "lambda_closed",
    "LEM-45": "pairwise_lambda_closed",
    "OBS-46": "pairwise_lambda_closed",
    "NOTE-47": "pairwise_lambda_closed",
    "THM-58": "pairwise_lambda_closed",
    "NOTE-50": "wedge12_sets",
    "THM-51": "wedge12_sets",
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
    the n = 3 canonical pairs that the claim's checker passes, where
    flipping one subset of the claim's family makes its checker fail."""
    name, checker = PLANTED_IN[claim_id], _UNIVERSAL_CHECKERS[claim_id]
    for place in range(FIRST_PLACE, len(N3_SPACES)):
        space = N3_SPACES[place]
        if checker(SpaceContext(space)) is not None:
            continue
        for side in (1, 2) if name in SIDED else (0,):
            for a in range(space.n_subsets):
                witness = checker(SpaceContext(_planted_space(space, name, side, a)))
                if witness is not None:
                    return place, side, a, witness
    raise AssertionError(f"no single flip of {name} breaks {claim_id}")


FAULTS = {claim_id: _fault(claim_id) for claim_id in PLANTED_IN}


def _outside(base, place):
    """A kernel's int with the bit of one place cleared."""
    return base & ~(1 << place)


@pytest.mark.parametrize("claim_id", list(PLANTED_IN))
def test_a_planted_fault_flags_exactly_its_position(claim_id):
    place, side, a, _ = FAULTS[claim_id]
    f, _, kernels = _unplanted(2)
    planted = _planted_families(f, PLANTED_IN[claim_id], side, a, place)
    assert claim_kernels.KERNELS[claim_id](planted) == kernels[claim_id] | 1 << place


@pytest.mark.parametrize("claim_id", list(PLANTED_IN))
def test_each_single_flip_fails_the_kernel_where_it_fails_the_checker(claim_id):
    """At spread positions of the n = 3 level and of the four-point sample,
    every flip of one subset of the claim's family: the kernel's bit at that
    position is set exactly when the checker, given the same flip, fails,
    and its other bits are the unplanted kernel's."""
    name, checker, kernel = PLANTED_IN[claim_id], _UNIVERSAL_CHECKERS[claim_id], claim_kernels.KERNELS[claim_id]
    failures = 0
    for k in (2, 3):
        n, pairs = BLOCKS[k]
        f, contexts, kernels = _unplanted(k)
        for place in range(0, len(pairs), len(pairs) // 8):
            space, word = contexts[place].space, contexts[place].word
            for side in (1, 2) if name in SIDED else (0,):
                for a in range(1 << n):
                    fails = checker(SpaceContext(_planted_space(space, name, side, a), word)) is not None
                    planted = kernel(_planted_families(f, name, side, a, place))
                    assert planted == _outside(kernels[claim_id], place) | fails << place, (n, place, side, a)
                    failures += fails
    assert failures


@pytest.mark.parametrize("claim_id", list(PLANTED_IN))
def test_two_flips_at_one_position_fail_the_kernel_where_they_fail_the_checker(claim_id):
    """At spread positions of the n = 3 level, every two flips of the
    claim's family that each fail the checker alone: on both sides, or at
    two subsets of one side, which two members or two terms of the kernel
    see.  The kernel's bit there is set exactly when the checker, given
    both flips, fails, so two sightings of a fault do not cancel."""
    name, checker, kernel = PLANTED_IN[claim_id], _UNIVERSAL_CHECKERS[claim_id], claim_kernels.KERNELS[claim_id]
    (f, _, kernels), failures = _unplanted(2), 0
    for place in range(0, len(N3_PAIRS), len(N3_PAIRS) // 8):
        space = N3_SPACES[place]
        flips = [
            (side, a) for side in ((1, 2) if name in SIDED else (0,)) for a in range(8)
            if checker(SpaceContext(_planted_space(space, name, side, a))) is not None
        ]
        for (s1, a1), (s2, a2) in combinations(flips, 2):
            fails = checker(SpaceContext(_planted_space(_planted_space(space, name, s1, a1), name, s2, a2))) is not None
            both = _planted_families(_planted_families(f, name, s1, a1, place), name, s2, a2, place)
            assert kernel(both) == _outside(kernels[claim_id], place) | fails << place, (place, s1, a1, s2, a2)
            failures += fails
    assert failures


# the claims whose kernels read verdict bits of the words
WORD_READERS = [
    "THM-15", "REM-16", "THM-18", "THM-20", "THM-21", "NOTE-23", "REM-32", "THM-33-CROSS", "THM-34",
    "REM-37", "THM-51", "THM-52", "THM-54", "THM-56", "THM-57", "THM-58", "THM-60", "THM-62",
    "REM-63", "THM-65", "COR-67",
]


@pytest.mark.parametrize("claim_id", WORD_READERS)
def test_each_word_flip_fails_the_kernel_where_it_fails_the_checker(claim_id):
    """At spread positions of the n = 3 level and of the four-point sample,
    every verdict bit of the word flipped: the kernel's bit at that position
    is set exactly when the checker, handed the same word, fails."""
    checker, kernel = _UNIVERSAL_CHECKERS[claim_id], claim_kernels.KERNELS[claim_id]
    failures = 0
    for k in (2, 3):
        f, contexts, kernels = _unplanted(k)
        for place in range(0, len(contexts), len(contexts) // 8):
            for bit in sorted(set(AXIOM_BITS.values())):
                words = bytearray(f.words)
                words[place] ^= bit
                fails = checker(SpaceContext(contexts[place].space, words[place])) is not None
                planted = kernel(f._replace(words=bytes(words)))
                assert planted == _outside(kernels[claim_id], place) | fails << place, (k, place, bit)
                failures += fails
    assert failures


# the claims whose checkers read one topology at a time
ONE_TOPOLOGY = ("LEM-7", "REM-41", "REM-46")


def _planted_topology(t, table, a, k):
    """A copy of the topology whose table (``closure`` or ``wedge``) has
    point k flipped in its entry of subset a.  A wedge fault flips the ∨
    table with it, at X − a, since ∨(A) = X − ∧(X − A)."""
    copy = GeneralizedTopology(t.ground, t.opens)
    faults = [(f"{table}_table", a)] + ([("vee_table", t.ground.full_mask ^ a)] if table == "wedge" else [])
    for name, entry in faults:
        values = list(getattr(t, name))
        values[entry] ^= 1 << k
        copy.__dict__[name] = tuple(values)
    return copy


def _planted_slices(tables, table, a, k, where):
    """The sliced tables with point k flipped in the entry of subset a at
    the positions ``where``."""
    values = list(getattr(tables, table))
    values[a * tables.size + k] ^= where
    return tables._replace(**{table: tuple(values)})


@pytest.mark.parametrize("table", ["closure", "wedge"])
@pytest.mark.parametrize("k", [2, 3], ids=IDS[2:])
def test_a_table_fault_of_one_topology_fails_each_kernel_where_it_fails_the_checker(k, table):
    """One topology of the block, held on both sides at n = 3, gets one
    entry of its table changed, at a point outside the entry's subset, for
    every such entry.  Each kernel is the unplanted one off the positions
    that hold the topology, and at them it fails where the claim's checker,
    handed the planted space and word, fails.  A one-topology claim fails at
    all of them or none, so it hits at the first position that holds the
    topology on either side.  THM-12's checker reads the gap's ∨ from the ∨
    table and its kernel the closed sets, so it is left out of wedge faults."""
    n, pairs = BLOCKS[k]
    firsts, seconds = _topologies(n, pairs)
    target = seconds[len(pairs) // 2]
    on_side = [sum(1 << s for s, t in enumerate(side) if t is target) for side in (firsts, seconds)]
    holding = on_side[0] | on_side[1]
    places = [s for s in range(len(pairs)) if holding >> s & 1]
    if n == 3:
        assert on_side[0] and on_side[1]
    tables = sliced_tables(firsts), sliced_tables(seconds)
    _, _, kernels = _unplanted(k)
    failures = defaultdict(int)
    for a in range(1 << n):
        for x in (x for x in range(n) if not a >> x & 1):
            copy = _planted_topology(target, table, a, x)
            f = claim_kernels.families(*(_planted_slices(t, table, a, x, m) for t, m in zip(tables, on_side)))
            contexts = {
                s: SpaceContext(GbtSpace(copy.ground, *(copy if t is target else t for t in (firsts[s], seconds[s]))), f.words[s])
                for s in places
            }
            for claim_id, kernel in claim_kernels.KERNELS.items():
                if table == "wedge" and claim_id == "THM-12":
                    continue
                fails = _failures(_UNIVERSAL_CHECKERS[claim_id], contexts, places)
                assert kernel(f) == kernels[claim_id] & ~holding | fails, (claim_id, a, x)
                if claim_id in ONE_TOPOLOGY:
                    assert fails in (0, holding), (claim_id, a, x)
                failures[claim_id] += bool(fails)
    # LEM-7 and REM-41 read the wedge table alone
    assert all(failures[claim_id] for claim_id in ONE_TOPOLOGY if table == "wedge" or claim_id == "REM-46"), failures


@pytest.fixture(scope="module")
def unplanted():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "_ONCE_CHECKERS", {})
        mp.setattr(claims, "FIXTURES", ())
        return {r.id: r.as_dict() for r in run_claims(n_scope=3, n4_samples=0)}


@pytest.mark.parametrize("claim_id", [claim_id for claim_id in PLANTED_IN if claim_id not in REFUTED])
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


def test_every_kernel_holds_where_its_checker_does_on_the_four_point_sample():
    # last in the file: the slowest test, and the one that -x reaches least often
    _assert_the_kernels_fail_where_the_checkers_do(3)
