from __future__ import annotations

import itertools
import re
import time
from random import Random

import pytest

from gbtlab import axioms, claim_kernels, claims
from gbtlab.axioms import InternalDisagreementError, axiom_profile, break_table, chain_break, word_verdicts
from gbtlab.claim_kernels import BLOCK
from gbtlab.claims import (
    CLAIM_IDS,
    IMPLICATION_ROWS,
    REGISTRY,
    STATUS_MISMATCH,
    STATUS_OUT_OF_SCOPE,
    STATUS_REFUTED,
    STATUS_VERIFIED,
    SpaceContext,
    _UNIVERSAL_CHECKERS,
    eval_fixture,
    eval_predicate,
    expected_statuses,
    explain,
    list_claims,
    predicate_entry,
    run_claims,
    statuses_match_expectations,
)
from gbtlab.enumeration import canonical_pair_indices, gt_families, gts_on, iter_gt_mask_families
from gbtlab.fixtures import FIXTURES, get_fixture
from gbtlab.gbt import GbtSpace, make_space
from gbtlab.gt import GeneralizedTopology, is_gt_T0, is_gt_T1
from gbtlab.lattice import implication_lattice
from gbtlab.sets import family_of, ground
from oracles import VERDICT_CLAIMS

EXPECTED_IDS = {
    "LEM-7", "REM-9", "NOTE-10", "THM-12", "THM-UNION-G", "THM-UNION-WS",
    "THM-15", "REM-16", "THM-18", "THM-20", "THM-21", "NOTE-23", "REM-24",
    "THM-28", "COR-29", "THM-30", "REM-32", "THM-33-LITERAL", "THM-33-CROSS",
    "THM-34", "REM-37", "OBS-39", "THM-40", "REM-41", "COR-42", "LEM-43",
    "LEM-45", "REM-46", "OBS-46", "NOTE-47", "THM-48", "NOTE-50", "THM-51",
    "THM-52", "THM-54", "THM-56", "THM-57", "THM-58", "THM-60", "THM-62",
    "REM-63", "THM-65", "REM-66", "COR-67",
    "EX-11", "EX-13", "EX-14", "EX-17", "EX-22", "EX-25", "EX-26", "EX-31",
    "EX-35", "EX-36", "EX-39", "EX-43A", "EX-43B", "EX-46A", "EX-46B",
    "EX-64", "EX-65", "EX-66",
}


def test_registry_covers_inventory():
    assert set(CLAIM_IDS) == EXPECTED_IDS
    assert len(REGISTRY) >= 30
    assert len(set(CLAIM_IDS)) == len(CLAIM_IDS)


def test_registry_has_statement_and_kind():
    kinds = {
        "universal-implication",
        "equivalence",
        "conditional",
        "fixture-assertion",
        "out-of-scope",
    }
    for record in REGISTRY:
        assert record.kind in kinds
        assert record.statement


def test_explain_and_list():
    record = explain("THM-12")
    assert record.id == "THM-12"
    assert "closure" in record.statement
    assert explain("ex-14").kind == "fixture-assertion"
    assert len(list_claims()) == len(CLAIM_IDS)
    with pytest.raises(KeyError):
        explain("THM-999")


@pytest.fixture(scope="module")
def reports():
    return {r.id: r for r in run_claims(n_scope=3, n4_samples=100)}


def test_statuses_match_committed_expectations(reports):
    ok, deviations = statuses_match_expectations(list(reports.values()))
    assert ok, deviations
    expected = expected_statuses()
    assert set(expected) == EXPECTED_IDS


def test_universal_claims_are_timed_one_by_one():
    start = time.perf_counter()
    reports = run_claims(n_scope=2, n4_samples=50)
    wall = time.perf_counter() - start
    swept = {record.id for record in REGISTRY if record.scope == "enumeration"}
    universal = [r.elapsed for r in reports if r.id in swept]
    assert len(universal) == len(swept) == 42
    assert len(set(universal)) > 1
    assert 0 < sum(universal) < wall


def test_known_refutations_carry_witnesses(reports):
    for claim_id in ("THM-33-LITERAL", "THM-21", "THM-51", "THM-54"):
        report = reports[claim_id]
        assert report.status == STATUS_REFUTED
        assert report.witness and "GbtSpace" in report.witness


def test_e14_mismatch_report_has_operator_values(reports):
    report = reports["EX-14"]
    assert report.status == STATUS_MISMATCH
    assert "closure on side 1" in report.witness
    assert "wedge on side 2" in report.witness
    assert "independent union witness" in report.witness
    assert "independent intersection witness" in report.witness


def test_out_of_scope_records(reports):
    for claim_id in ("EX-64", "EX-65", "EX-66"):
        assert reports[claim_id].status == STATUS_OUT_OF_SCOPE


def test_all_other_fixtures_verify(reports):
    for fixture in FIXTURES:
        if fixture.id == "e14":
            continue
        assert reports[f"EX-{fixture.id[1:].upper()}"].status == STATUS_VERIFIED


def test_fixture_filter():
    only = run_claims(n_scope=1, fixture_filter="e35", n4_samples=0)
    assert [r.id for r in only] == ["EX-35"]
    assert only[0].status == STATUS_VERIFIED


@pytest.mark.parametrize("fixture_filter", ["e64", "e65", "e66", "E64", "nope"])
def test_a_fixture_filter_returns_fixture_reports_only(fixture_filter):
    """EX-64 to EX-66 are out-of-scope claims, not fixtures."""
    assert run_claims(fixture_filter=fixture_filter) == []


def test_a_fixture_run_checks_its_fixture_only(monkeypatch):
    called = []

    def recorded(claim_id):
        return lambda *args: called.append(claim_id)

    for table in ("_UNIVERSAL_CHECKERS", "_ONCE_CHECKERS"):
        checkers = {claim_id: recorded(claim_id) for claim_id in getattr(claims, table)}
        monkeypatch.setattr(claims, table, checkers)
    assert [r.id for r in run_claims(fixture_filter="e25")] == ["EX-25"]
    assert called == []


def test_eval_fixture_e14_directly():
    status, mismatches = eval_fixture(get_fixture("e14"))
    assert status == STATUS_MISMATCH
    assert len(mismatches) == 2
    assert all("recorded True, engine computed False" in m for m in mismatches)


CONVERSE_WITNESSES = [
    # claim with failing converse -> (fixture, predicate, args, expected verdict)
    ("REM-9", "e11", "g-closed-wrt", {"side": 1, "set": ("a",)}, True),
    ("REM-9", "e11", "mu-closed", {"side": 1, "set": ("a",)}, False),
    ("THM-12", "e13", "gap-has-no-closed", {"side": 1, "set": ("b",)}, True),
    ("THM-12", "e13", "g-closed-wrt", {"side": 1, "set": ("b",)}, False),
    ("REM-16", "e17", "T0", {}, True),
    ("REM-16", "e17", "T1", {}, False),
    ("THM-21", "e22", "singletons-closed-somewhere", {}, True),
    ("THM-21", "e22", "T1", {}, False),
    ("REM-24", "e25", "T1", {}, True),
    ("REM-24", "e26", "T1", {}, False),
    ("REM-37", "e11", "T0", {}, True),
    ("REM-37", "e11", "T1_2", {}, False),
    ("THM-34", "e35", "singletons-four-kind", {}, True),
    ("THM-34", "e35", "T1_2", {}, False),
    ("OBS-39", "e39", "lambda-closed-wrt", {"side": 1, "set": ("b",)}, True),
    ("OBS-39", "e39", "mu-closed", {"side": 1, "set": ("b",)}, False),
    ("OBS-46", "e46a", "pairwise-lambda-closed", {"set": ("a",)}, True),
    ("OBS-46", "e46a", "lambda-closed-wrt", {"side": 1, "set": ("a",)}, False),
    ("NOTE-50", "e17", "pairwise-lambda-closed", {"set": ("c",)}, True),
    ("NOTE-50", "e17", "wedge12-set", {"set": ("c",)}, False),
    ("THM-52", "e35", "T5_8", {}, True),
    ("THM-52", "e35", "T1_2", {}, False),
    ("THM-57", "e17", "T0", {}, True),
    ("THM-57", "e17", "pairwise-lambda-closed", {"set": ("a", "b")}, False),
    ("REM-63", "e35", "T5_8", {}, True),
    ("REM-63", "e35", "T1_2", {}, False),
    ("REM-66", "e35", "T1", {}, True),
    ("REM-66", "e35", "R0", {}, False),
]


@pytest.mark.parametrize("claim_id,fixture_id,predicate,args,expected", CONVERSE_WITNESSES)
def test_converse_failure_witnesses_reverify(claim_id, fixture_id, predicate, args, expected):
    space = get_fixture(fixture_id).space()
    assert eval_predicate(space, predicate, args) == expected


def test_eval_predicate_unknown():
    with pytest.raises(KeyError):
        eval_predicate(get_fixture("e11").space(), "no-such-predicate", {})


def test_fixture_assertions_pass_the_arguments_the_predicate_table_names():
    """`gbt check` reads a predicate's arguments from the same table that
    evaluates the fixtures, so every recorded assertion must fit it."""
    for fixture in FIXTURES:
        for assertion in fixture.assertions:
            names, _ = predicate_entry(assertion.predicate)
            assert sorted(names) == [key for key, _ in assertion.args], assertion.describe()


def _altered(fixture_id, alter):
    """Context of a copy of the fixture space with some family masks
    replaced.  A family that is a field of the space is replaced on the copy
    as well, for the checkers that read it there (LEM-43, THM-40)."""
    fixture_space = get_fixture(fixture_id).space()
    ctx = SpaceContext(GbtSpace(fixture_space.ground, fixture_space.mu1, fixture_space.mu2))
    for name, family in alter(ctx).items():
        setattr(ctx, name, family)
        if name in GbtSpace._fields:
            ctx.space.__dict__[name] = family
    return ctx


def _bits(*masks):
    return sum(1 << m for m in masks)


def _side_family(name, side, remove=(), add=()):
    """Alteration of one side's family: the masks ``remove`` taken out, ``add`` put in."""
    return lambda c: {name: {**getattr(c, name), side: getattr(c, name)[side] & ~_bits(*remove) | _bits(*add)}}


def _tables_altered(*changes):
    """Alteration that puts in copies of the topologies with some operator
    table entries replaced; each change is (side, table name, {subset: value})."""
    def alter(c):
        sides = {1: c.t1, 2: c.t2}
        for side, name, entries in changes:
            t = sides[side]
            copy = GeneralizedTopology(t.ground, t.opens)
            table = list(getattr(t, name))
            for a, value in entries.items():
                table[a] = value
            copy.__dict__[name] = tuple(table)
            sides[side] = copy
        return {"space": GbtSpace(c.space.ground, sides[1], sides[2])}
    return alter


E43A = "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a}, {a,d}}, mu2={{}, {b}, {b,d}})"
E43B = "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a}, {a,d}}, mu2={{}, {a,b}, {c}, {a,b,c}})"
E14 = "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a,d}, {c,d}, {a,c,d}}, mu2={{}, {d}, {a,c,d}})"
E46A = "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a,d}, {b,d}, {a,b,d}}, mu2={{}, {a,b,c}})"
E36 = (
    "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a}, {b}, {a,b}, {a,b,d}, {a,c,d}, {a,b,c,d}}, "
    "mu2={{}, {a}, {a,b,c}, {d}, {a,d}, {a,b,d}, {a,b,c,d}})"
)

# claim, fixture, families to replace, witness.  Each altered family breaks
# the claim on purpose, and most alterations offend at more than one set.
# The witness names the first offending set in the order the checker walks
# the subsets (ascending masks), so its text is pinned exactly.  The texts
# were recorded from the frozenset-family checkers that the family masks
# replaced, on the same alterations.
VIOLATIONS = [
    (
        "THM-UNION-WS", "e43b", _side_family("g_open", 1, remove=[0b0111]),
        f"{E43B}: side 1: weakly separated g-open {{a,b}}, {{c}} have non-g-open union",
    ),
    (
        "THM-UNION-WS", "e43b", _side_family("g_open", 1, remove=[0b0110, 0b0111]),
        f"{E43B}: side 1: weakly separated g-open {{b}}, {{c}} have non-g-open union",
    ),
    (
        "THM-12", "e14", _side_family("g_closed", 1, add=[0b1000]),
        f"{E14}: g-closed {{d}} (side 1) has closed {{b}} in its closure gap",
    ),
    (
        "THM-12", "e46a", _side_family("g_closed", 2, add=[0b0001, 0b0010]),
        f"{E46A}: g-closed {{a}} (side 2) has closed {{c}} in its closure gap",
    ),
    (
        "NOTE-50", "e36", lambda c: {"pairwise_lambda": c.pairwise_lambda & ~_bits(0b0101, 0b1000)},
        f"{E36}: ∧12-set {{a,c}} not pairwise λ-closed",
    ),
    (
        "REM-9", "e43a", _side_family("g_closed", 1, remove=[0b0110, 0b1110]),
        f"{E43A}: mu1-closed {{b,c}} is not g-closed",
    ),
    (
        "REM-9", "e43a", _side_family("g_closed", 1, add=[0b0010, 0b1010]),
        f"{E43A}: {{b}} g-closed on side 1 and open on the other side but not closed",
    ),
    (
        "OBS-39", "e43a", _side_family("lambda_closed", 1, remove=[0b0110, 0b1110]),
        f"{E43A}: closed {{b,c}} not λ-closed on side 1",
    ),
    (
        "OBS-39", "e43a", _side_family("lambda_closed", 1, remove=[0b0010, 0b1010]),
        f"{E43A}: wedge-set {{b}} not λ-closed wrt side 2",
    ),
    (
        "THM-48", "e43a", _side_family("lambda_closed", 1, add=[0b0011, 0b1001]),
        f"{E43A}: side 1, {{a,b}}: closed=False but g∧λ=True",
    ),
    (
        "THM-48", "e43a", _side_family("g_closed", 2, remove=[0b1101]),
        f"{E43A}: side 2, {{a,c,d}}: closed=True but g∧λ=False",
    ),
    (
        "COR-42", "e43a", _side_family("lambda_closed", 1, remove=[0b0110]),
        f"{E43A}: λ-open family wrt side 1 misses an open set",
    ),
    (
        "COR-42", "e43a", _side_family("lambda_closed", 1, remove=[0b1010]),
        f"{E43A}: λ-open family wrt side 1 misses a vee-set of the other side",
    ),
    (
        "LEM-43", "e43a", _side_family("lambda_closed", 2, remove=[0b1001], add=[0b1100]),
        f"{E43A}: λ-closed forms disagree at {{a,d}} side 2: (True,True,True,False)",
    ),
    (
        "LEM-43", "e43a", _side_family("lambda_closed", 1, add=[0b0001]),
        f"{E43A}: λ-closed forms disagree at {{a}} side 1: (False,False,False,True)",
    ),
    (
        "REM-46", "e43a", _tables_altered((1, "closure_table", {0b1000: 0b1111, 0b0100: 0b1110})),
        f"{E43A}: hull recomputation differs from tables at {{c}}",
    ),
    (
        "REM-46", "e43a", _tables_altered((2, "wedge_table", {0b1000: 0b1111, 0b0010: 0b1010})),
        f"{E43A}: hull recomputation differs from tables at {{b}}",
    ),
    (
        # each topology is scanned whole before the next: mu1's {d} comes first
        "REM-46", "e43a",
        _tables_altered((1, "wedge_table", {0b1000: 0b1111}), (2, "closure_table", {0b0001: 0b1101})),
        f"{E43A}: hull recomputation differs from tables at {{d}}",
    ),
    (
        "REM-46", "e43a", _side_family("lambda_closed", 1, remove=[0b1010], add=[0b1000]),
        f"{E43A}: intersection-of-hulls reading fails at {{d}}",
    ),
    (
        "REM-46", "e43a", _side_family("lambda_closed", 2, remove=[0b0101, 0b1001]),
        f"{E43A}: intersection-of-hulls reading fails at {{a,c}}",
    ),
    (
        "THM-40", "e43a", _side_family("lambda_closed", 1, remove=[0b0010]),
        f"{E43A}: λ-open family wrt side 1 is not a generalized topology: "
        "family not closed under union: {a,c} ∪ {a,d} = {a,c,d} is missing",
    ),
    (
        "THM-40", "e43a", _side_family("lambda_closed", 2, remove=[0b1111]),
        f"{E43A}: λ-open family wrt side 2 is not a generalized topology: the empty set must be open",
    ),
]


@pytest.mark.parametrize("claim_id,fixture_id,alter,witness", VIOLATIONS)
def test_violation_witness_names_the_first_offending_sets(claim_id, fixture_id, alter, witness):
    checker = _UNIVERSAL_CHECKERS[claim_id]
    assert checker(SpaceContext(get_fixture(fixture_id).space())) is None
    assert checker(_altered(fixture_id, alter)) == witness
    assert checker(SpaceContext(get_fixture(fixture_id).space())) is None


NOTE10_CASES = [
    # entries of mu2's wedge table replaced, sets added to side 1's g-closed
    # family, witness (recorded from the frozenset-family checker)
    ({0b0001: 0b0011, 0b0100: 0b0101}, (), "wedge of {a} is not itself a wedge-set"),
    ({}, (0b0010, 0b1010), "wedge-set {b}: g-closed(True) != closed(False) on side 1"),
    ({0b0100: 0b0101}, (0b0010,), "wedge-set {b}: g-closed(True) != closed(False) on side 1"),
    ({0b0001: 0b0011}, (0b0010,), "wedge of {a} is not itself a wedge-set"),
]


@pytest.mark.parametrize("changes,added,witness", NOTE10_CASES)
def test_note10_witness_names_the_first_offending_subset(changes, added, witness):
    """NOTE-10 walks the subsets once for both of its parts, so a broken
    wedge table and a changed g-closed family are reported in that order."""
    e43a = get_fixture("e43a").space()
    mu2 = GeneralizedTopology(e43a.ground, e43a.mu2.opens)
    table = list(e43a.mu2.wedge_table)
    for a, w in changes.items():
        table[a] = w
    mu2.__dict__["wedge_table"] = tuple(table)
    ctx = SpaceContext(GbtSpace(e43a.ground, e43a.mu1, mu2))
    ctx.g_closed = {**ctx.g_closed, 1: ctx.g_closed[1] | _bits(*added)}
    assert _UNIVERSAL_CHECKERS["NOTE-10"](ctx) == f"{E43A}: {witness}"


def test_one_topology_claims_report_the_first_side_whose_topology_fails():
    """LEM-7 and REM-41 read each side's topology alone, side 1 first: a
    topology that fails is reported on the first side that holds it."""
    e17 = get_fixture("e17").space()
    for claim_id in ("LEM-7", "REM-41"):
        assert _UNIVERSAL_CHECKERS[claim_id](SpaceContext(e17)) is None

    broken = GeneralizedTopology(e17.ground, (0, 0b011))  # {a,b} alone: not e17's topologies
    broken.__dict__["vee_sets"] = _bits(0, 0b001, 0b010, 0b111)  # {a} ∪ {b} is missing
    reason = "is not a generalized topology: family not closed under union: {a} ∪ {b} = {a,b} is missing"
    for space, side in ((GbtSpace(e17.ground, e17.mu1, broken), 2), (GbtSpace(e17.ground, broken, broken), 1)):
        witness = _UNIVERSAL_CHECKERS["REM-41"](SpaceContext(space))
        assert witness == f"{space!r}: vee-family of side {side} {reason}"
    assert _UNIVERSAL_CHECKERS["LEM-7"](SpaceContext(GbtSpace(e17.ground, e17.mu1, broken))) is None


def test_a_violation_deep_in_a_block_stops_only_its_own_claim(monkeypatch):
    """A kernel that first fails deep in the four-point samples' block: its
    claim's checker runs on that space alone and reports it, counted by its
    position in the sweep, and the other claims check every space."""
    rng, count = Random(7), len(gts_on(4))
    pairs = [(n, i, j) for n in (1, 2) for i, j in canonical_pair_indices(n)]
    pairs += [(4, rng.randrange(count), rng.randrange(count)) for _ in range(100)]
    sweep = [GbtSpace(gts_on(n)[0].ground, gts_on(n)[i], gts_on(n)[j]) for n, i, j in pairs]
    place = 37
    position = len(sweep) - 100 + place + 1
    want = {r.id: r.as_dict() for r in run_claims(n_scope=2, n4_samples=100, seed=7)}
    kernel, calls = claim_kernels.KERNELS["NOTE-23"], []

    def planted_kernel(f):
        return kernel(f) | (1 << place if f.size == 4 else 0)

    def planted(ctx):
        calls.append(ctx.space)
        return ctx.where("planted")

    monkeypatch.setitem(claim_kernels.KERNELS, "NOTE-23", planted_kernel)
    monkeypatch.setitem(_UNIVERSAL_CHECKERS, "NOTE-23", planted)
    got = {r.id: r.as_dict() for r in run_claims(n_scope=2, n4_samples=100, seed=7)}
    assert calls == [sweep[position - 1]]
    assert got.pop("NOTE-23") == {
        "id": "NOTE-23", "status": STATUS_REFUTED, "witness": f"{sweep[position - 1]!r}: planted",
        "spaces_checked": position,
    }
    want.pop("NOTE-23")
    assert got == want
    swept = [r for claim_id, r in got.items() if claim_id in _UNIVERSAL_CHECKERS]
    assert {r["spaces_checked"] for r in swept if r["status"] == STATUS_VERIFIED} == {len(sweep)}


def test_the_claim_sweep_reads_the_canonical_pairs_once_per_level(monkeypatch):
    """The sweep reads its spaces' index pairs through this module's
    ``canonical_pair_indices``, one call per level in scope, their family
    masks through its ``gt_families``, and topologies through its
    ``gts_on`` only where a claim fails: with no samples, none on four
    points, and none on one point, where no claim fails."""
    levels, masked, built = [], set(), set()

    def counted(n, *args):
        levels.append(n)
        return canonical_pair_indices(n, *args)

    def masks(n):
        masked.add(n)
        return gt_families(n)

    def topologies(n):
        built.add(n)
        return gts_on(n)

    monkeypatch.setattr(claims, "canonical_pair_indices", counted)
    monkeypatch.setattr(claims, "gt_families", masks)
    monkeypatch.setattr(claims, "gts_on", topologies)
    # only the sweep: no one-off claims and no fixtures
    monkeypatch.setattr(claims, "_ONCE_CHECKERS", {})
    monkeypatch.setattr(claims, "FIXTURES", ())
    reports = run_claims(n_scope=3, n4_samples=0)
    assert levels == [1, 2, 3] and masked == {1, 2, 3} and built == {2, 3}
    assert {r.spaces_checked for r in reports if r.status == STATUS_VERIFIED} == {411}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_sampled_pairs_are_two_draws_at_a_time(seed):
    """The 2·K draws made in one list and paired are the pairs drawn two at
    a time, first index first: the same sequence of ``randrange`` calls."""
    count, rng = len(gts_on(4)), Random(seed)
    pairs = [(rng.randrange(count), rng.randrange(count)) for _ in range(4000)]
    assert list(claims._sample_pairs(count, 4000, seed)) == pairs


def test_the_claim_sweep_runs_no_decider(monkeypatch):
    """The sweep reads each space's verdicts from its block's words: no
    decider runs, through ``axiom_profile`` or alone.  It builds a context
    only where a claim fails, one per refuted claim, and the word it hands
    that context holds the nine verdicts of ``axiom_profile``."""
    calls = []
    counted = {}
    for decide in set(axioms.DECIDERS.values()):
        def count(t1, t2, decide=decide):
            calls.append(decide.__name__)
            return decide(t1, t2)

        counted[decide] = count
        for module in (axioms, claims):
            if hasattr(module, decide.__name__):
                monkeypatch.setattr(module, decide.__name__, count)
    for name, decide in list(axioms.DECIDERS.items()):
        monkeypatch.setitem(axioms.DECIDERS, name, counted[decide])
    swept = []

    def context(*args):
        swept.append(SpaceContext(*args))
        return swept[-1]

    monkeypatch.setattr(claims, "SpaceContext", context)
    # only the sweep: no one-off claims (REM-24 profiles fixtures) and no fixtures
    monkeypatch.setattr(claims, "_ONCE_CHECKERS", {})
    monkeypatch.setattr(claims, "FIXTURES", ())
    reports = {r.id: r for r in run_claims(n_scope=3, n4_samples=50)}
    monkeypatch.undo()
    assert calls == []
    assert len(swept) == sum(r.status == STATUS_REFUTED for r in reports.values()) > 0
    assert [word_verdicts(ctx.word) for ctx in swept] == [axiom_profile(ctx.space).as_dict() for ctx in swept]
    assert reports["THM-15"].status == reports["THM-58"].status == STATUS_VERIFIED


def test_the_sweep_builds_one_space_per_refuted_claim_at_most(monkeypatch):
    """Over every canonical pair with n <= 3 and 4,000 seeded four-point
    samples a space is built only where a claim is refuted."""
    built = []

    def counted(*args):
        built.append(GbtSpace(*args))
        return built[-1]

    for module in (claims, claim_kernels):
        monkeypatch.setattr(module, "GbtSpace", counted)
    reports = claims._checked_reports(3, 4000, 1)
    refuted = {r.id for r in reports if r.status == STATUS_REFUTED}
    assert refuted == {"THM-21", "THM-33-LITERAL", "THM-51", "THM-54"}
    assert len(built) <= len(refuted)


def _kernel_word(space):
    """The verdict word of one space from the pair kernels, by a column of
    its two topologies (row 0, bit 1)."""
    tables = axioms.sliced_tables(space.ground.size, [family_of(space.mu1.opens), family_of(space.mu2.opens)])
    return sum(
        (kernel.verdicts(kernel.column(tables), 0) >> 1 & 1) << k for k, kernel in enumerate(axioms.WORD_KERNELS)
    )


def test_a_context_made_alone_reads_its_word_from_its_profile_on_five_points():
    """Five points lie past ``index_pair_of_key``: a context made alone
    takes its word from its profile, which equals the pair kernels' word,
    and all universal checkers give what they give on a context handed the
    cross-validated profile's word."""
    g = ground(5)
    topologies = [GeneralizedTopology(g, f) for f in itertools.islice(iter_gt_mask_families(5), 0, 6000, 60)]
    rng = Random(36)
    spaces = [make_space("abcde", [["a"], ["a", "b"]], [["c"], ["d", "e"], ["c", "d", "e"]])]
    spaces += [GbtSpace(g, *rng.sample(topologies, 2)) for _ in range(11)]
    words = set()
    for s in spaces:
        alone = SpaceContext(s)
        handed = SpaceContext(s, word=axioms.profile_word(axiom_profile(s, cross_validate=True)))
        assert alone.word == handed.word == _kernel_word(s), s
        for claim_id, check in _UNIVERSAL_CHECKERS.items():
            assert check(alone) == check(handed), (claim_id, s)
        words.add(alone.word)
    assert len(_UNIVERSAL_CHECKERS) == 42 and len(words) > 1


def test_a_context_made_alone_has_the_swept_word_up_to_three_points():
    for n in (1, 2, 3):
        gts, pairs = gts_on(n), list(canonical_pair_indices(n))
        for (i, j), word in zip(pairs, _block_words(n, pairs)):
            assert SpaceContext(GbtSpace(gts[i].ground, gts[i], gts[j])).word == word, (n, i, j)


def _sweep_spaces(n_scope):
    return [
        GbtSpace(gts_on(n)[0].ground, gts_on(n)[i], gts_on(n)[j])
        for n in range(1, n_scope + 1)
        for i, j in canonical_pair_indices(n)
    ]


# a two-point space with no T0 topology, so REM-16's first clause never fires
_NO_T0 = next((p, s) for p, s in enumerate(_sweep_spaces(2), 1) if not (is_gt_T0(s.mu1) or is_gt_T0(s.mu2)))


def test_the_implication_rows_fail_exactly_where_the_old_checkers_did():
    """On every verdict word, each row's checker gives what the checker it
    replaced gave: None, or the same witness."""
    assert set(VERDICT_CLAIMS) == set(IMPLICATION_ROWS)
    broken = set()
    for word in range(1 << 7):
        ctx = SpaceContext(_NO_T0[1], word=word)
        for claim_id, oracle in VERDICT_CLAIMS.items():
            got = _UNIVERSAL_CHECKERS[claim_id](ctx)
            assert got == oracle(ctx), (claim_id, word)
            if got:
                broken.add(claim_id)
    assert broken == set(IMPLICATION_ROWS)


def _block_words(n, pairs):
    """The words the claims sweep reads for a block of index pairs."""
    families = gt_families(n)
    return claim_kernels.block_families(n, [families[i] for i, _ in pairs], [families[j] for _, j in pairs]).words


def _breaking_word(links):
    """A verdict word that breaks one of the links, keeping the implication
    chain if one does."""
    breaking = [word for word, broken in enumerate(break_table(links)) if broken]
    return next((word for word in breaking if not chain_break(word)), breaking[0])


def _planted_words(monkeypatch, n, place, word):
    """Plant the word at one place of the level-n block through the sweep's word source."""
    real = claim_kernels.block_words

    def planted(f):
        words = bytearray(real(f))
        if f.size == n:
            words[place] = word
        return bytes(words)

    monkeypatch.setattr(claim_kernels, "block_words", planted)


@pytest.mark.parametrize("claim_id", list(IMPLICATION_ROWS))
def test_a_planted_breaking_profile_refutes_its_row(monkeypatch, claim_id):
    """A verdict word that breaks a row, planted on one space of the sweep
    through the sweep's word source, is that row's first violation: its
    witness, at that space's position.  A row that no word breaks without
    breaking the implication chain is an engine fault there, which names
    the space."""
    links, detail = IMPLICATION_ROWS[claim_id]
    word = _breaking_word(links)
    position, target = _NO_T0
    _planted_words(monkeypatch, 2, position - 1 - len(_sweep_spaces(1)), word)
    monkeypatch.setattr(claims, "_ONCE_CHECKERS", {})
    monkeypatch.setattr(claims, "FIXTURES", ())
    if chain_break(word):
        with pytest.raises(InternalDisagreementError, match=re.escape(f"implication chain broken on {target!r}")):
            run_claims(n_scope=2, n4_samples=0)
        return
    report = {r.id: r for r in run_claims(n_scope=2, n4_samples=0)}[claim_id]
    assert (report.status, report.witness, report.spaces_checked) == (
        STATUS_REFUTED, f"{target!r}: {detail}", position,
    )


# the rows the sweep decides on a block's words; REM-16's other clause reads the space
BLOCK_ROWS = [claim_id for claim_id in IMPLICATION_ROWS if claim_id != "REM-16"]


def _sweep_blocks(n_scope, n4_samples, seed):
    """(n, index pairs) of each block of the claims sweep, drawn as ``run_claims`` draws them."""
    levels = [(n, list(canonical_pair_indices(n))) for n in range(1, n_scope + 1)]
    rng, count = Random(seed), len(gts_on(4))
    levels.append((4, [(rng.randrange(count), rng.randrange(count)) for _ in range(n4_samples)]))
    return [(n, pairs[k : k + BLOCK]) for n, pairs in levels for k in range(0, len(pairs), BLOCK)]


def test_a_row_decided_on_a_block_s_words_fails_where_its_checker_first_fails():
    """On every canonical pair with n <= 3 and on 4,000 seeded four-point
    samples, as the benchmark's claims workload sweeps them: per block, the
    first word that breaks a row is the first space on which the row's
    checker fails (-1 for none), and the sweep reports the row there."""
    seed, first, swept = 20240801, {}, 0
    for n, block in _sweep_blocks(3, 4000, seed):
        gts = gts_on(n)
        words = _block_words(n, block)
        contexts = [SpaceContext(GbtSpace(gts[i].ground, gts[i], gts[j]), word=w) for (i, j), w in zip(block, words)]
        for claim_id in BLOCK_ROWS:
            fails = [p for p, ctx in enumerate(contexts) if _UNIVERSAL_CHECKERS[claim_id](ctx) is not None]
            place = words.translate(break_table(IMPLICATION_ROWS[claim_id][0])).find(1)
            assert place == (fails[0] if fails else -1), (claim_id, n)
            if fails:
                first.setdefault(claim_id, swept + fails[0] + 1)
        swept += len(block)
    assert swept == 4411 and set(first) == {"THM-54"}
    reports = {r.id: r for r in run_claims(n_scope=3, n4_samples=4000, seed=seed)}
    for claim_id in BLOCK_ROWS:
        want = (STATUS_REFUTED, first[claim_id]) if claim_id in first else (STATUS_VERIFIED, swept)
        assert (reports[claim_id].status, reports[claim_id].spaces_checked) == want, claim_id


@pytest.mark.parametrize("claim_id", BLOCK_ROWS)
def test_a_breaking_word_deep_in_the_samples_runs_its_row_once(monkeypatch, claim_id):
    """A word that breaks a row, planted deep in the four-point samples'
    block, is the row's violation at that sample's position in the sweep,
    and the row's checker runs once, on that sample alone.  A word that
    breaks the implication chain there is an engine fault that names the
    sample's space, and no checker runs."""
    links, detail = IMPLICATION_ROWS[claim_id]
    word, place = _breaking_word(links), 37
    original, calls = _UNIVERSAL_CHECKERS[claim_id], []

    def counted(ctx):
        calls.append(ctx)
        return original(ctx)

    _planted_words(monkeypatch, 4, place, word)
    monkeypatch.setitem(_UNIVERSAL_CHECKERS, claim_id, counted)
    monkeypatch.setattr(claims, "_ONCE_CHECKERS", {})
    monkeypatch.setattr(claims, "FIXTURES", ())
    ((_, block),) = _sweep_blocks(0, 100, 7)
    gts, (i, j) = gts_on(4), block[place]
    sample = GbtSpace(gts[i].ground, gts[i], gts[j])
    if chain_break(word):
        with pytest.raises(InternalDisagreementError, match=re.escape(f"implication chain broken on {sample!r}")):
            run_claims(n_scope=2, n4_samples=100, seed=7)
        assert calls == []
        return
    report = {r.id: r for r in run_claims(n_scope=2, n4_samples=100, seed=7)}[claim_id]
    assert [(ctx.space, ctx.word) for ctx in calls] == [(sample, word)]
    assert (report.status, report.witness, report.spaces_checked) == (
        STATUS_REFUTED, f"{sample!r}: {detail}", 3 + 18 + place + 1,
    )


def test_the_single_antecedent_links_are_verified_lattice_edges():
    """The lattice's edges and the claims' rows read the same kernel words;
    every row link with one antecedent is an edge of both."""
    single = {
        claim_id: [(antecedents[0], consequent) for antecedents, consequent in links]
        for claim_id, (links, _) in IMPLICATION_ROWS.items()
        if all(len(antecedents) == 1 for antecedents, _ in links)
    }
    assert set(single) == {"REM-16", "REM-37", "THM-52", "THM-57", "REM-63"}
    edges = set(implication_lattice(4).edges)
    assert [link for links in single.values() for link in links if link not in edges] == []


def _t1_both_labelings(t1, t2):
    """Pairwise T1 read with both labelings of each pair: for x, y in
    either order, a μ1-open holds x but not y and a μ2-open holds y but not x."""
    for x, y in itertools.permutations(range(t1.ground.size), 2):
        if not any(u >> x & 1 and not u >> y & 1 for u in t1.opens):
            return False
        if not any(v >> y & 1 and not v >> x & 1 for v in t2.opens):
            return False
    return True


def test_the_both_labelings_reading_of_pairwise_t1_is_t1_on_each_side():
    """On every labeled pair with n <= 3 the both-labelings reading is each
    topology being T1 on its own; there every singleton is closed on both
    sides and every subset is a ∧12-set, and the pair is pairwise T1 and
    T1/2, so THM-21, THM-51 and THM-54 hold under that reading at once."""
    strong = 0
    for n in (1, 2, 3):
        gts = gts_on(n)
        for t1, t2 in itertools.product(gts, repeat=2):
            holds = _t1_both_labelings(t1, t2)
            assert holds == (is_gt_T1(t1) and is_gt_T1(t2)), (t1, t2)
            if holds:
                strong += 1
                space = GbtSpace(t1.ground, t1, t2)
                full = t1.ground.full_mask
                assert t1.closed_points == t2.closed_points == full
                assert space.wedge12_sets == (1 << space.n_subsets) - 1
                profile = axiom_profile(space)
                assert profile.t1 and profile.t_half
    # 2, 1 and 8 topologies are T1 on 1, 2 and 3 points
    assert strong == 2 * 2 + 1 * 1 + 8 * 8
