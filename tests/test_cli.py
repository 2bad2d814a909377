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


def test_check_refuses_options_the_predicate_does_not_take(capsys):
    code, out, err = _run(capsys, "check", _fixture_path("e11"), "T0", "--set", "zz")
    assert (code, out) == (1, "")
    assert err == "error: predicate 'T0' takes no --set\n"
    code, out, err = _run(capsys, "check", _fixture_path("e11"), "gt-T0", "--side", "1", "--set", "zz", "--set2", "q")
    assert (code, out) == (1, "")
    assert err == "error: predicate 'gt-T0' takes no --set --set2\n"
    code, out, err = _run(capsys, "check", _fixture_path("e11"), "wedge12-set", "--side", "2", "--set", "a")
    assert (code, out) == (1, "")
    assert err == "error: predicate 'wedge12-set' takes no --side\n"


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


MINE_T0_T1_2 = ("mine", "--require", "T0", "--forbid", "T1_2", "--n", "3", "--limit", "3")


@pytest.mark.parametrize(
    ("key", "message"),
    [
        ("020006", "is not canonical under perm+swap"),  # the class of 020005
        ("020003", "is not a space key"),  # mu2 = {∅, {a}, {b}} lacks {a,b}
        ("0200", "is not a space key"),  # truncated
        ("0400000001", "has 4 points, outside [1, 3]"),
        ("02zz05", "is not a space key"),
    ],
    ids=["not-canonical", "not-union-closed", "truncated", "out-of-range", "not-hex"],
)
def test_resume_refuses_a_bad_witness_key(tmp_path, capsys, key, message):
    """A log cut inside block [2, 0], its second witness key replaced."""
    full = tmp_path / "full.ndjson"
    assert _run(capsys, *MINE_T0_T1_2, "--log", str(full))[0] == 0
    lines = full.read_text().splitlines(keepends=True)
    cut = lines[: lines.index('{"block":[2,0],"checked":7}\n')]
    assert [json.loads(line).get("key") for line in cut[-2:]] == ["020001", "020005"]
    log = tmp_path / "cut.ndjson"
    log.write_text("".join(cut).replace('"key":"020005"', f'"key":"{key}"'))
    code, out, err = _run(capsys, *MINE_T0_T1_2, "--resume", str(log))
    assert (code, out) == (1, "")
    assert err == f"error: logged witness key {key!r} {message}\n"


def test_resume_of_the_cut_log_matches_the_uninterrupted_run(tmp_path, capsys):
    full = tmp_path / "full.ndjson"
    code, want, _ = _run(capsys, *MINE_T0_T1_2, "--log", str(full))
    lines = full.read_text().splitlines(keepends=True)
    log = tmp_path / "cut.ndjson"
    log.write_text("".join(lines[: lines.index('{"block":[2,0],"checked":7}\n')]))
    assert _run(capsys, *MINE_T0_T1_2, "--resume", str(log)) == (0, want, "")
    assert [line.split()[1] for line in want.splitlines() if line.startswith("witness")] == [
        "020001:",
        "020005:",
        "020102:",
    ]


def test_mine_special_refuses_the_options_it_ignores(tmp_path, capsys):
    log = tmp_path / "sp.ndjson"
    code, out, err = _run(
        capsys, "mine", "--special", "note50-converse", "--n", "3", "--log", str(log), "--forbid", "T1", "--require", "T0"
    )
    assert (code, out) == (1, "")
    assert err == "error: --special note50-converse takes no --require --forbid --log\n"
    assert not log.exists()
    code, out, err = _run(capsys, "mine", "--special", "g-union-escape", "--resume", str(log))
    assert (code, out) == (1, "")
    assert err == "error: --special g-union-escape takes no --resume\n"


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("mine", ("--require", "T1", "--forbid", "R0", "--n", "2"), ("--require", "T1", "--forbid", "R0")),
        ("census", ("--n", "2"), ("--n", "3")),
    ],
    ids=["mine", "census"],
)
def test_census_resume_refuses_a_log_of_another_census(tmp_path, capsys, command, first, second):
    """The resumed log is refused before the fresh log is opened, so no
    fresh log file is left behind."""
    log, fresh = tmp_path / "first.ndjson", tmp_path / "fresh.ndjson"
    assert _run(capsys, command, *first, "--log", str(log))[0] == 0
    code, out, err = _run(capsys, command, *second, "--resume", str(log), "--log", str(fresh))
    assert code == 1 and out == ""
    assert f"different {command}" in err
    assert not fresh.exists()


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


# T1/2 without T0: a census asserts the implication chain on every word it writes
CHAIN_BREAKING = '{"LSYM":false,"R0":false,"SYM":false,"T0":false,"T1":false,"T1_2":true,"T1_4":false,"T3_8":false,"T5_8":false}'


def _reordered(line):
    record = json.loads(line)
    return json.dumps({name: record[name] for name in ("space", "key", "profile")}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "change",
    [
        lambda line: line.replace('"key":"03', '"key":"zz'),
        lambda line: line[: line.index('"key":"') + 7] + "020005" + line[line.index('","profile"') :],
        lambda line: line.replace('"profile":{"LSYM":', '"profile":{"lsym":'),
        lambda line: line[: line.index('"profile":') + 10] + CHAIN_BREAKING + line[line.index(',"space":') :],
        _reordered,
        lambda line: line.replace('"T0":', '"T0": '),
        lambda line: line.replace('"points":', '"points": '),
    ],
    ids=[
        "non-hex-key",
        "two-point-key",
        "unknown-profile",
        "chain-breaking-profile",
        "reordered-fields",
        "added-space",
        "space-in-space",
    ],
)
def test_census_resume_refuses_a_line_the_census_would_not_write(tmp_path, capsys, change):
    """A record line in the middle of a finished log, changed into valid
    JSON that is not byte for byte the census's own line."""
    log = tmp_path / "census.ndjson"
    assert _run(capsys, "census", "--n", "3", "--log", str(log))[0] == 0
    lines = log.read_text().splitlines(keepends=True)
    k = next(k for k in range(len(lines) // 2, len(lines)) if '"key"' in lines[k])
    changed = change(lines[k])
    assert changed != lines[k] and json.loads(changed).keys() == json.loads(lines[k]).keys()
    lines[k] = changed
    log.write_text("".join(lines))
    code, out, err = _run(capsys, "census", "--n", "3", "--resume", str(log))
    assert (code, out) == (1, "")
    assert err == f"error: {log}: not a record of this census: {changed.rstrip()!r}\n"


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
        (("census", "--n", "0"), "n must be at least 1, got 0"),
        (("census", "--n", "-1"), "n must be at least 1, got -1"),
        (("census", "--n", "2", "--max-open-sets", "-1"), "max_open_sets must be at least 0"),
        (("mine", "--require", "T1", "--forbid", "R0", "--n", "2", "--workers", "-3"), "workers"),
        (("mine", "--require", "T1", "--forbid", "R0", "--n", "2", "--limit", "0"), "limit must be positive"),
        (("mine", "--require", "T1", "--forbid", "R0", "--n", "2", "--limit", "-2"), "limit must be positive"),
        (("mine", "--special", "note50-converse", "--n", "0"), "n must be at least 1"),
        (("mine", "--special", "g-union-escape", "--n", "-1"), "n must be at least 1"),
        (("mine", "--special", "g-intersection-escape", "--n", "0"), "n must be at least 1"),
        (("claims", "--n4-samples", "-5"), "n4_samples must be at least 0"),
        (("claims", "--n", "-1"), "n must be at least 0"),
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


def test_resume_after_the_witness_limit_counts_the_interrupted_block(tmp_path, capsys):
    """The run that the limit stops counts the pairs of the block it was
    reading; a resume of its log, which does not mark that block done, must
    print the same count."""
    log = tmp_path / "limited.ndjson"
    query = ("mine", "--require", "T0", "--forbid", "T1_2", "--n", "3", "--limit", "40")
    code, want, _ = _run(capsys, *query, "--log", str(log))
    assert code == 0 and "checked 152 labeled pairs" in want
    assert _run(capsys, *query, "--resume", str(log)) == (0, want, "")


@pytest.mark.parametrize(
    "option", [("--n-min", "3"), ("--symmetry", "perm"), ("--limit", "2"), ("--workers", "1")], ids=lambda o: o[0]
)
def test_mine_special_refuses_each_pair_query_option(capsys, option):
    code, out, err = _run(capsys, "mine", "--special", "note50-converse", "--n", "3", *option)
    assert (code, out) == (1, "")
    assert err == f"error: --special note50-converse takes no {option[0]}\n"
