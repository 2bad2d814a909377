from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbtlab.fixtures import get_fixture
from gbtlab.gt import (
    GTValidationError,
    closure,
    complete_unions,
    derived_set,
    gt_from_labels,
    interior,
    is_closed,
    is_gt_T0,
    is_gt_T1,
    is_open,
    validate_gt,
    vee,
    vee_family,
    wedge,
)
from gbtlab.sets import GroundSetError, Subset, full, ground, parse_subset


def _sub(g, labels):
    return parse_subset(labels, g)


@pytest.fixture(scope="module")
def e11():
    return get_fixture("e11").space()


@pytest.fixture(scope="module")
def e13():
    return get_fixture("e13").space()


@pytest.fixture(scope="module")
def e17():
    return get_fixture("e17").space()


def test_validate_gt_accepts_e11_families(e11):
    # construction through the fixture already validates; re-validate explicitly
    assert validate_gt(e11.ground, e11.mu1.opens).opens == e11.mu1.opens


def test_validate_degenerate_family():
    g = ground(3)
    t = validate_gt(g, [0])
    assert t.opens == (0,)


def test_validate_missing_empty_set():
    g = ground(2)
    with pytest.raises(GTValidationError) as err:
        validate_gt(g, [1, 2])
    assert err.value.kind == "missing-empty-set"


def test_validate_union_escape_reports_pair():
    g = ground(2)
    with pytest.raises(GTValidationError) as err:
        validate_gt(g, [0, 1, 2])
    assert err.value.kind == "union-escape"
    assert set(err.value.pair) == {1, 2}
    assert "{a} ∪ {b} = {a,b} is missing" in str(err.value)


def test_validate_mask_outside_ground_set():
    with pytest.raises(GroundSetError):
        validate_gt(ground(2), [0, 4])


def test_complete_unions_reports_added():
    g = ground(2)
    t, added = complete_unions(g, [1, 2])
    assert t.opens == (0, 1, 2, 3)
    assert added == (3,)


def test_open_closed_examples(e11):
    g = e11.ground
    assert is_closed(e11.mu1, _sub(g, "b"))
    assert is_open(e11.mu1, _sub(g, ""))
    assert is_closed(e11.mu1, full(g))
    assert not is_open(e11.mu1, _sub(g, "b"))


def test_closure_frozen_values(e11, e13):
    assert closure(e13.mu1, _sub(e13.ground, "b")).labels() == ("b", "c")
    assert closure(e11.mu1, _sub(e11.ground, "a")).labels() == ("a", "b")
    assert closure(e11.mu1, full(e11.ground)) == full(e11.ground)


def test_interior_frozen_values(e11):
    g = e11.ground
    assert interior(e11.mu2, _sub(g, "ac")).bits == 0
    assert interior(e11.mu1, _sub(g, "ac")) == _sub(g, "ac")
    assert interior(e11.mu1, _sub(g, "")).bits == 0


def test_wedge_frozen_values(e11):
    g = e11.ground
    assert wedge(e11.mu2, _sub(g, "a")).labels() == ("a", "b")
    assert wedge(e11.mu1, _sub(g, "b")) == full(g)
    assert wedge(e11.mu1, _sub(g, "")).bits == 0


def test_vee_frozen_values(e11, e17):
    g = e11.ground
    assert vee(e11.mu2, _sub(g, "ac")) == _sub(g, "ac")
    assert vee(e11.mu1, full(g)) == full(g)
    assert vee(e17.mu1, _sub(e17.ground, "b")).bits == 0


def test_derived_set_frozen_values(e11, e13):
    assert derived_set(e13.mu1, _sub(e13.ground, "b")).labels() == ("c",)
    assert derived_set(e11.mu2, _sub(e11.ground, "a")).labels() == ("c",)
    # points with no open neighbourhood are vacuous limit points of ∅
    assert derived_set(e13.mu1, _sub(e13.ground, "")).labels() == ("c",)


def test_vee_family_values(e17):
    g3 = ground(3)
    degenerate = validate_gt(g3, [0])
    assert {g3.labels(m) for m in vee_family(degenerate)} == {(), ("a", "b", "c")}
    assert {g3.labels(m) for m in vee_family(e17.mu1)} == {(), ("b", "c"), ("a", "b", "c")}


def test_gt_separation(e17):
    e26 = get_fixture("e26").space()
    assert not is_gt_T0(e17.mu1)
    assert not is_gt_T0(e17.mu2)
    assert is_gt_T1(e26.mu1)
    g = ground(2)
    discrete = validate_gt(g, range(4))
    assert is_gt_T1(discrete)


@st.composite
def topologies(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    g = ground(n)
    seeds = draw(st.lists(st.integers(0, g.full_mask), max_size=5))
    t, _ = complete_unions(g, seeds)
    return t


@given(topologies())
def test_wedge_vee_algebra(t):
    g = t.ground
    x = full(g)
    nothing = Subset(0, g)
    assert wedge(t, nothing) == nothing and vee(t, nothing) == nothing
    assert wedge(t, x) == x and vee(t, x) == x
    for bits in range(g.full_mask + 1):
        a = Subset(bits, g)
        wa, va = wedge(t, a), vee(t, a)
        assert bits & ~wa.bits == 0
        assert va.bits & ~bits == 0
        assert wedge(t, wa) == wa and vee(t, va) == va
        for other_bits in range(bits, g.full_mask + 1):
            if bits & ~other_bits == 0:
                assert wa.bits & ~wedge(t, Subset(other_bits, g)).bits == 0
                assert va.bits & ~vee(t, Subset(other_bits, g)).bits == 0


@given(topologies())
def test_closure_interior_laws(t):
    g = t.ground
    for bits in range(g.full_mask + 1):
        a = Subset(bits, g)
        cl, inner = closure(t, a), interior(t, a)
        assert inner.bits & ~bits == 0 and bits & ~cl.bits == 0
        assert closure(t, cl) == cl and interior(t, inner) == inner
        assert is_closed(t, a) == (cl == a)
        assert is_open(t, a) == (inner == a)
        # closure-interior duality
        comp = Subset(bits ^ g.full_mask, g)
        assert cl.bits == interior(t, comp).bits ^ g.full_mask
        # closure decomposes into the set plus its limit points
        assert cl.bits == bits | derived_set(t, a).bits


@given(topologies())
def test_vee_family_is_generalized_topology(t):
    family = vee_family(t)
    validated = validate_gt(t.ground, family)
    assert 0 in validated.opens


@given(topologies())
def test_wedge_vee_duality(t):
    g = t.ground
    for bits in range(g.full_mask + 1):
        a = Subset(bits, g)
        assert vee(t, a).bits == wedge(t, Subset(bits ^ g.full_mask, g)).bits ^ g.full_mask


def test_gt_from_labels_implies_empty():
    g = ground(3)
    t = gt_from_labels(g, [["a"], ["a", "b"]])
    assert t.opens == (0, 1, 3)
