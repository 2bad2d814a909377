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
    eval_fixture,
    eval_predicate,
    expected_statuses,
    explain,
    list_claims,
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
