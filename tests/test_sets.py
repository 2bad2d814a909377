from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbtlab.sets import (
    GroundSetError,
    Subset,
    complement,
    ground,
    intersect,
    is_subset,
    parse_subset,
    union,
)


def test_ground_builders():
    g = ground(3)
    assert g.names == ("a", "b", "c")
    assert ground(["x", "y"]).names == ("x", "y")
    with pytest.raises(GroundSetError):
        ground(0)
    with pytest.raises(GroundSetError):
        ground(["a", "a"])
    with pytest.raises(GroundSetError):
        ground(17)


def test_union_examples():
    g = ground(3)
    assert union(parse_subset("a", g), parse_subset("b", g)).labels() == ("a", "b")
    s = parse_subset("ac", g)
    assert union(s, parse_subset([], g)) == s
    g4 = ground(4)
    assert union(parse_subset("ad", g4), parse_subset("cd", g4)).labels() == ("a", "c", "d")


def test_elementary_ops_examples():
    g = ground(3)
    assert complement(parse_subset("b", g)).labels() == ("a", "c")
    assert intersect(parse_subset("ab", g), parse_subset("bc", g)).labels() == ("b",)
    for bits in range(8):
        assert is_subset(Subset(0, g), Subset(bits, g))


def test_ground_mismatch_rejected():
    a = parse_subset("a", ground(2))
    b = parse_subset("a", ground(3))
    with pytest.raises(GroundSetError):
        union(a, b)


def test_parse_subset():
    g = ground(3)
    assert parse_subset(["a", "c"], g).bits == 0b101
    assert parse_subset([], g).bits == 0
    with pytest.raises(GroundSetError):
        parse_subset(["z"], g)
    with pytest.raises(GroundSetError):
        parse_subset(["a", "a"], g)


def test_parse_render_roundtrip():
    g = ground(4)
    assert parse_subset(("a", "c", "d"), g).labels() == ("a", "c", "d")


def test_ground_renders_masks():
    g = ground(3)
    assert g.labels(0b101) == ("a", "c")
    assert g.label(0b101) == "{a,c}" == repr(parse_subset("ac", g))
    assert g.label(0) == "{}"
    assert g.label_family((0, 1, 3)) == "{{}, {a}, {a,b}}"


@st.composite
def two_subsets(draw):
    n = draw(st.integers(1, 6))
    g = ground(n)
    bits = st.integers(0, g.full_mask)
    return Subset(draw(bits), g), Subset(draw(bits), g), Subset(draw(bits), g)


@given(two_subsets())
def test_boolean_algebra_laws(triple):
    a, b, c = triple
    assert union(a, union(b, c)) == union(union(a, b), c)
    assert intersect(a, intersect(b, c)) == intersect(intersect(a, b), c)
    assert complement(union(a, b)) == intersect(complement(a), complement(b))
    assert complement(intersect(a, b)) == union(complement(a), complement(b))
    assert complement(complement(a)) == a
    assert is_subset(intersect(a, b), a) and is_subset(a, union(a, b))
