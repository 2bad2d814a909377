from __future__ import annotations

import json
from importlib import resources

import pytest

from gbtlab.cli import main
from gbtlab.mining import MiningQuery


def _fixture_path(name: str) -> str:
    return str(resources.files("gbtlab").joinpath(f"fixtures/{name}.json"))


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = _run(capsys, "validate", _fixture_path("e11"))
    assert code == 0 and out.strip() == "valid"


def test_validate_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": ["a", "b"], "mu1": [["a"], ["b"]], "mu2": []}')
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 1 and "union" in err


def test_validate_complete_unions(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": ["a", "b"], "mu1": [["a"], ["b"]], "mu2": []}')
    code, out, err = _run(capsys, "validate", str(bad), "--complete-unions")
    assert code == 0
    assert "added to mu1" in err
    data = json.loads(out)
    assert ["a", "b"] in data["mu1"]


def test_missing_file_exit_1(capsys):
    code, _, err = _run(capsys, "validate", "/no/such/file.json")
    assert code == 1 and err


def test_classify_e36(capsys):
    code, out, _ = _run(capsys, "classify", _fixture_path("e36"))
    assert code == 0
    lines = dict()
    for line in out.splitlines()[1:]:
        parts = line.split()
        lines[parts[0]] = parts[1]
    assert lines["T1_2"] == "true" and lines["T1"] == "false"


def test_classify_deterministic(capsys):
    _, first, _ = _run(capsys, "classify", _fixture_path("e35"))
    _, second, _ = _run(capsys, "classify", _fixture_path("e35"))
    assert first == second


def test_classify_json(capsys):
    code, out, _ = _run(capsys, "classify", _fixture_path("e35"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["profile"]["T1"] is True and data["profile"]["R0"] is False


def test_check_examples(capsys):
    code, out, _ = _run(
        capsys, "check", _fixture_path("e11"), "g-closed-wrt", "--side", "1", "--set", "a"
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = _run(
        capsys, "check", _fixture_path("e13"), "closure-equals", "--side", "1", "--set", "b"
    )
    assert out.strip() == "b,c"
    code, _, err = _run(capsys, "check", _fixture_path("e11"), "bogus", "--set", "a")
    assert code == 1 and "unknown predicate" in err


def test_mine_cli_finds_witness(capsys):
    code, out, _ = _run(
        capsys, "mine", "--require", "T0", "--forbid", "T1_4", "--n", "3", "--limit", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"] and data["witnesses"][0]["profile"]["T0"] is True
    assert data["witnesses"][0]["profile"]["T1_4"] is False


def test_mine_cli_exhausted(capsys):
    code, out, _ = _run(
        capsys, "mine", "--require", "T1_4", "--forbid", "T3_8", "--n", "3", "--format", "json"
    )
    data = json.loads(out)
    assert code == 0 and data["exhausted"] is True


def test_mine_cli_unknown_axiom(capsys):
    code, _, err = _run(capsys, "mine", "--require", "T9", "--forbid", "T0")
    assert code == 1 and "unknown axiom" in err


def test_mine_special(capsys):
    code, out, _ = _run(capsys, "mine", "--special", "note50-converse", "--n", "3")
    assert code == 0 and "pairwise λ-closed but not a ∧12-set" in out


def test_census_cli(capsys):
    code, out, _ = _run(capsys, "census", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["labeled_gt_count"] == 7 and data["labeled_pair_count"] == 49
    assert data["orbit_check"] is True


def test_census_deterministic(capsys):
    _, first, _ = _run(capsys, "census", "--n", "2")
    _, second, _ = _run(capsys, "census", "--n", "2")
    assert first == second


def test_claims_cli_default_scope_matches_expectations(capsys):
    code, out, _ = _run(capsys, "claims", "--n4-samples", "0")
    assert code == 0
    assert "THM-33-LITERAL" in out and "refuted-with-witness" in out


def test_claims_cli_narrow_scope_deviates(capsys):
    # at n <= 2 the three larger-carrier refutations cannot be found, so the
    # run deviates from the committed expectations and exits 2
    code, _, err = _run(capsys, "claims", "--n", "2", "--n4-samples", "0")
    assert code == 2
    assert "THM-21" in err


def test_claims_cli_explain_and_list(capsys):
    code, out, _ = _run(capsys, "claims", "--explain", "THM-12")
    assert code == 0 and json.loads(out)["id"] == "THM-12"
    code, out, _ = _run(capsys, "claims", "--list")
    assert code == 0 and len(json.loads(out)) >= 30


def test_claims_cli_single_fixture(capsys):
    code, out, _ = _run(capsys, "claims", "--fixture", "e35", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1 and data[0]["id"] == "EX-35" and data[0]["status"] == "verified"


def test_lattice_cli(capsys):
    code, out, _ = _run(capsys, "lattice", "--n", "2")
    assert code == 0
    assert out.startswith("digraph")
    assert "T1_2 -> T5_8;" in out
    code, out, _ = _run(capsys, "lattice", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert len(data["edges"]) + len(data["counter_edges"]) == 72


def test_mine_requires_forbid_or_special(capsys):
    code, _, err = _run(capsys, "mine", "--require", "T0")
    assert code == 1 and "--forbid" in err


def test_mine_forbid_only(capsys):
    code, out, _ = _run(capsys, "mine", "--forbid", "T0", "--n", "2", "--limit", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"][0]["profile"]["T0"] is False


def test_lattice_n3_has_chain_and_refuted_reverses(capsys):
    code, out, _ = _run(capsys, "lattice", "--n", "3")
    assert code == 0
    for edge in ("T1_2 -> T5_8;", "T5_8 -> T3_8;", "T3_8 -> T1_4;", "T1_4 -> T0;"):
        assert edge in out
    # the two finitely-refutable reverse chain edges carry witness labels
    assert 'T5_8 -> T1_2 [style=dashed, color=red, label="counterexample ' in out
    assert 'T0 -> T1_4 [style=dashed, color=red, label="counterexample ' in out


def test_claims_unknown_fixture_and_claim(capsys):
    code, _, err = _run(capsys, "claims", "--fixture", "e99")
    assert code == 1 and "unknown fixture" in err
    code, _, err = _run(capsys, "claims", "--explain", "NOPE")
    assert code == 1 and "unknown claim" in err


def test_check_missing_argument(capsys):
    code, _, err = _run(capsys, "check", _fixture_path("e11"), "g-closed-wrt", "--side", "1")
    assert code == 1 and "--set" in err
    code, _, err = _run(capsys, "check", _fixture_path("e11"), "g-closed-wrt", "--set", "a")
    assert code == 1 and "needs --side" in err
    code, _, err = _run(capsys, "check", _fixture_path("e31"), "singletons-open-or-closed")
    assert code == 1 and "needs --side" in err


def test_check_singletons_open_or_closed_takes_a_side(capsys):
    code, out, _ = _run(capsys, "check", _fixture_path("e31"), "singletons-open-or-closed", "--side", "1")
    assert code == 0 and out == "true\n"


def test_resume_with_a_witness_that_fails_reverification_exits_3(tmp_path, capsys):
    query = MiningQuery(("T1",), "R0", n_max=3, limit=4)
    records = [
        {"header": query.as_dict(), "log": "mine"},
        # the one-point space with two indiscrete topologies: R0 holds there
        {"key": "010000", "space": {"points": ["a"], "mu1": [], "mu2": []}, "profile": {}},
        {"block": [1, 0], "checked": 1},
    ]
    log = tmp_path / "forged.ndjson"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, _, err = _run(
        capsys, "mine", "--require", "T1", "--forbid", "R0", "--n", "3", "--limit", "4", "--resume", str(log)
    )
    assert code == 3
    assert "fails re-verification" in err and "Traceback" not in err


def test_census_resume_refuses_a_log_of_another_census(tmp_path, capsys):
    log = tmp_path / "census.ndjson"
    assert _run(capsys, "census", "--n", "2", "--log", str(log))[0] == 0
    code, out, err = _run(capsys, "census", "--n", "3", "--resume", str(log))
    assert code == 1 and out == ""
    assert "different census" in err


def test_census_resumed_into_another_log_can_itself_be_resumed(tmp_path, capsys):
    full = tmp_path / "full.ndjson"
    code, row, _ = _run(capsys, "census", "--n", "2", "--log", str(full))
    assert code == 0
    lines = full.read_text().splitlines(keepends=True)
    first_block = next(k for k, line in enumerate(lines) if "block" in json.loads(line))
    cut = tmp_path / "cut.ndjson"
    cut.write_text("".join(lines[: first_block + 1]))
    other = tmp_path / "other.ndjson"
    assert _run(capsys, "census", "--n", "2", "--resume", str(cut), "--log", str(other)) == (0, row, "")
    assert other.read_bytes() == full.read_bytes()
    assert _run(capsys, "census", "--n", "2", "--resume", str(other)) == (0, row, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("mine", "--require", "T1_4", "--forbid", "T3_8", "--n", "5"),
        ("mine", "--special", "note50-converse", "--n", "5"),
        ("census", "--n", "5"),
        ("lattice", "--n", "5"),
        ("claims", "--n", "5"),
    ],
)
def test_sweeps_beyond_four_points_are_refused(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert "1,385,552" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("lattice", "--n", "0"), "n must be at least 1"),
        (("lattice", "--n", "-1"), "n must be at least 1"),
        (("census", "--n", "2", "--max-open-sets", "-1"), "max_open_sets must be at least 0"),
        (("mine", "--require", "T1", "--forbid", "R0", "--n", "2", "--workers", "-3"), "workers"),
        (("mine", "--special", "note50-converse", "--n", "0"), "n must be at least 1"),
        (("mine", "--special", "g-union-escape", "--n", "-1"), "n must be at least 1"),
        (("mine", "--special", "g-intersection-escape", "--n", "0"), "n must be at least 1"),
    ],
)
def test_bad_numeric_arguments_exit_1(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err


def test_a_directory_given_as_a_file_exits_1(tmp_path, capsys):
    for argv in (("classify", str(tmp_path)), ("census", "--n", "2", "--resume", str(tmp_path))):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_mine_resumed_into_another_log_can_itself_be_resumed(tmp_path, capsys):
    """The second log must carry the first log's witnesses and finished
    blocks: a resume of it that found none would report the range exhausted."""
    query = ("mine", "--require", "R0", "--forbid", "T0", "--n", "3", "--limit", "100")
    full = tmp_path / "full.ndjson"
    code, out, _ = _run(capsys, *query, "--log", str(full))
    assert code == 0 and "exhausted" not in out
    lines = full.read_text().splitlines(keepends=True)
    first_witness = next(k for k, line in enumerate(lines) if "key" in json.loads(line))
    block_after = next(k for k in range(first_witness, len(lines)) if "block" in json.loads(lines[k]))
    cut = tmp_path / "cut.ndjson"
    cut.write_text("".join(lines[: block_after + 1]))
    other = tmp_path / "other.ndjson"
    assert _run(capsys, *query, "--resume", str(cut), "--log", str(other)) == (0, out, "")
    assert _run(capsys, *query, "--resume", str(other)) == (0, out, "")
    assert other.read_bytes() == full.read_bytes()


LOGGED_RUNS = [
    ("mine", "--require", "T1", "--forbid", "R0", "--n", "2"),
    ("census", "--n", "2"),
]


@pytest.mark.parametrize("command", LOGGED_RUNS, ids=[c[0] for c in LOGGED_RUNS])
def test_a_second_fresh_run_on_a_used_log_is_refused(tmp_path, capsys, command):
    """Appending a second run would make a resume add up both runs' counts."""
    log = tmp_path / "run.ndjson"
    code, out, _ = _run(capsys, *command, "--log", str(log))
    assert code == 0
    before = log.read_bytes()
    code, again, err = _run(capsys, *command, "--log", str(log))
    assert code == 1 and again == ""
    assert "already holds a run" in err and "Traceback" not in err
    assert log.read_bytes() == before
    # the in-place resume of that log is still admitted and changes nothing
    assert _run(capsys, *command, "--resume", str(log), "--log", str(log)) == (0, out, "")
    assert log.read_bytes() == before


@pytest.mark.parametrize("command", LOGGED_RUNS, ids=[c[0] for c in LOGGED_RUNS])
def test_resuming_into_another_used_log_is_refused(tmp_path, capsys, command):
    first, second = tmp_path / "first.ndjson", tmp_path / "second.ndjson"
    assert _run(capsys, *command, "--log", str(first))[0] == 0
    assert _run(capsys, *command, "--log", str(second))[0] == 0
    before = second.read_bytes()
    code, out, err = _run(capsys, *command, "--resume", str(first), "--log", str(second))
    assert code == 1 and out == ""
    assert "already holds a run" in err
    assert second.read_bytes() == before
    # an empty log file is not a used one: the resume copies the first log into it
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    assert _run(capsys, *command, "--resume", str(first), "--log", str(empty))[0] == 0
    assert empty.read_bytes() == first.read_bytes()
