from __future__ import annotations

import time

import pytest

from gbtlab.claims import (
    CLAIM_IDS,
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
from gbtlab.fixtures import FIXTURES, get_fixture

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
    ctx = SpaceContext(get_fixture(fixture_id).space())
    for name, family in alter(ctx).items():
        setattr(ctx, name, family)
    return ctx


E43B = "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a}, {a,d}}, mu2={{}, {a,b}, {c}, {a,b,c}})"
E14 = "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a,d}, {c,d}, {a,c,d}}, mu2={{}, {d}, {a,c,d}})"
E46A = "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a,d}, {b,d}, {a,b,d}}, mu2={{}, {a,b,c}})"
E36 = (
    "GbtSpace(GroundSet({a,b,c,d}), mu1={{}, {a}, {b}, {a,b}, {a,b,d}, {a,c,d}, {a,b,c,d}}, "
    "mu2={{}, {a}, {a,b,c}, {d}, {a,d}, {a,b,d}, {a,b,c,d}})"
)

# claim, fixture, cached families to replace, witness.  Each altered family
# breaks the claim on purpose.  The witness names the first offending sets
# in the order the checker walks them (ascending masks, or the g-closed
# family's own order for THM-12), so its text is pinned exactly.
VIOLATIONS = [
    (
        "THM-UNION-WS", "e43b", lambda c: {"g_open": {**c.g_open, 1: c.g_open[1] - {0b0111}}},
        f"{E43B}: side 1: weakly separated g-open {{a,b}}, {{c}} have non-g-open union",
    ),
    (
        "THM-UNION-WS", "e43b", lambda c: {"g_open": {**c.g_open, 1: c.g_open[1] - {0b0110, 0b0111}}},
        f"{E43B}: side 1: weakly separated g-open {{b}}, {{c}} have non-g-open union",
    ),
    (
        "THM-12", "e14", lambda c: {"g_closed": {**c.g_closed, 1: c.g_closed[1] | {0b1000}}},
        f"{E14}: g-closed {{d}} (side 1) has closed {{b}} in its closure gap",
    ),
    (
        "THM-12", "e46a", lambda c: {"g_closed": {**c.g_closed, 2: c.g_closed[2] | {0b0001, 0b0010}}},
        f"{E46A}: g-closed {{a}} (side 2) has closed {{c}} in its closure gap",
    ),
    (
        "NOTE-50", "e36", lambda c: {"pairwise_lambda": c.pairwise_lambda - {0b0101, 0b1000}},
        f"{E36}: ∧12-set {{a,c}} not pairwise λ-closed",
    ),
]


@pytest.mark.parametrize("claim_id,fixture_id,alter,witness", VIOLATIONS)
def test_violation_witness_names_the_first_offending_sets(claim_id, fixture_id, alter, witness):
    checker = _UNIVERSAL_CHECKERS[claim_id]
    assert checker(SpaceContext(get_fixture(fixture_id).space())) is None
    assert checker(_altered(fixture_id, alter)) == witness
