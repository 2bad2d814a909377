from __future__ import annotations

import json
from importlib import resources

import pytest

from gbtlab.fixtures import FIXTURES
from gbtlab.gt import GTValidationError
from gbtlab.spacefile import (
    SpaceFileError,
    parse_space_file,
    space_to_data,
    write_space_file,
)


def test_e11_file_parses_to_fixture_space():
    text = resources.files("gbtlab").joinpath("fixtures/e11.json").read_text()
    space, added = parse_space_file(text)
    # e11 on points a, b, c (bits 0, 1, 2): mu1 = {∅, {c}, {a,c}}, mu2 = {∅, {b}, {a,b}}
    assert space.ground.names == ("a", "b", "c")
    assert space.mu1.open_masks == (0b000, 0b100, 0b101)
    assert space.mu2.open_masks == (0b000, 0b010, 0b011)
    assert not added["mu1"] and not added["mu2"]


def test_empty_set_is_implied():
    with_empty = json.dumps({"points": ["a", "b"], "mu1": [[], ["a"]], "mu2": []})
    without = json.dumps({"points": ["a", "b"], "mu1": [["a"]], "mu2": []})
    s1, _ = parse_space_file(with_empty)
    s2, _ = parse_space_file(without)
    assert s1.mu1.open_masks == s2.mu1.open_masks == (0, 1)


def test_union_escape_names_offending_pair():
    text = json.dumps({"points": ["a", "b"], "mu1": [["a"], ["b"]], "mu2": []})
    with pytest.raises(GTValidationError) as err:
        parse_space_file(text)
    assert err.value.kind == "union-escape"
    assert {s.labels() for s in err.value.pair} == {("a",), ("b",)}


def test_union_completion():
    text = json.dumps({"points": ["a", "b"], "mu1": [["a"], ["b"]], "mu2": []})
    space, added = parse_space_file(text, complete=True)
    assert space.mu1.open_masks == (0, 1, 2, 3)
    assert added["mu1"].masks() == (3,)


@pytest.mark.parametrize(
    "payload",
    [
        "[1,2]",
        '{"points": ["a"], "mu1": []}',
        '{"points": ["a"], "mu1": [], "mu2": [], "extra": 1}',
        '{"points": "ab", "mu1": [], "mu2": []}',
        '{"points": ["a"], "mu1": [["z"]], "mu2": []}',
        '{"points": ["a", "a"], "mu1": [], "mu2": []}',
        '{"points": ["a"], "mu1": "nope", "mu2": []}',
        "not json",
    ],
)
def test_schema_violations(payload):
    with pytest.raises(SpaceFileError):
        parse_space_file(payload)


def test_roundtrips():
    for fixture in FIXTURES:
        space = fixture.space()
        text = write_space_file(space)
        reparsed, _ = parse_space_file(text)
        assert reparsed.mu1.open_masks == space.mu1.open_masks
        assert reparsed.mu2.open_masks == space.mu2.open_masks
        assert write_space_file(reparsed) == text


def test_write_reorders_canonically():
    scrambled = json.dumps(
        {"points": ["a", "b", "c"], "mu1": [["a", "c"], ["c"]], "mu2": [["b"]]}
    )
    space, _ = parse_space_file(scrambled)
    data = space_to_data(space)
    assert data["mu1"] == [["c"], ["a", "c"]]

