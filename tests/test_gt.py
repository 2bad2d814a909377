from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbtlab.enumeration import gts_on
from gbtlab.fixtures import get_fixture
from gbtlab.gt import (
    GeneralizedTopology,
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
    meet_table,
    sliced_meet_table,
    union_closed,
    validate_gt,
    vee,
    wedge,
)
from gbtlab.sets import GroundSetError, Subset, complemented, full, ground, members, parse_subset

from oracles import closure_by_scan, interior_by_scan, vee_by_scan, wedge_by_scan


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
    assert {g3.labels(m) for m in members(degenerate.vee_sets)} == {(), ("a", "b", "c")}
    assert {g3.labels(m) for m in members(e17.mu1.vee_sets)} == {(), ("b", "c"), ("a", "b", "c")}


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
    validated = validate_gt(t.ground, members(t.vee_sets))
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


def test_dp_tables_match_the_scans_on_every_topology_up_to_four_points():
    """The four operator tables, each built by one DP pass, against the scans
    of the opens and closed sets they replaced: every generalized topology
    on one to four points (2 + 7 + 61 + 2,480 of them)."""
    for n in (1, 2, 3, 4):
        for shared in gts_on(n):
            t = GeneralizedTopology(shared.ground, shared.opens)
            masks = range(t.ground.full_mask + 1)
            assert t.closure_table == tuple(closure_by_scan(t, a) for a in masks)
            assert t.interior_table == tuple(interior_by_scan(t, a) for a in masks)
            assert t.wedge_table == tuple(wedge_by_scan(t, a) for a in masks)
            assert t.vee_table == tuple(vee_by_scan(t, a) for a in masks)
            assert t.open_family == sum(1 << a for a in masks if interior_by_scan(t, a) == a)
            assert t.closed_family == sum(1 << a for a in masks if closure_by_scan(t, a) == a)


@st.composite
def families(draw, max_n=4):
    """A family mask on up to four points: half of the draws close a few
    seed sets under unions, the rest are arbitrary (∅ may be missing)."""
    n = draw(st.integers(1, max_n))
    g = ground(n)
    if draw(st.booleans()):
        t, _ = complete_unions(g, draw(st.lists(st.integers(0, g.full_mask), max_size=5)))
        family = t.open_family
        if draw(st.booleans()):  # one member dropped: usually no longer union-closed
            family &= ~(1 << draw(st.sampled_from(t.opens)))
        return g, family
    return g, draw(st.integers(0, (1 << (1 << n)) - 1))


@given(families())
def test_union_closure_pass_agrees_with_validate_gt(drawn):
    g, family = drawn
    try:
        validate_gt(g, members(family))
        valid = True
    except GTValidationError:
        valid = False
    assert union_closed(family, g.size) == valid


@given(families())
def test_complemented_families(drawn):
    g, family = drawn
    flipped = complemented(family, g.size)
    assert members(flipped) == sorted(g.full_mask ^ a for a in members(family))
    assert complemented(flipped, g.size) == family


def test_sliced_meet_table_holds_the_meet_table_of_every_family():
    """All 2^(2^n) family masks on n <= 3 points at once, bit p of every
    int for family mask p."""
    for n in (1, 2, 3):
        families = range(1 << (1 << n))
        members = [sum(1 << p for p in families if p >> a & 1) for a in range(1 << n)]
        table = sliced_meet_table(members, n, (1 << len(families)) - 1)
        for p in families:
            entries = tuple(
                sum(1 << k for k in range(n) if table[a * n + k] >> p & 1) for a in range(1 << n)
            )
            assert entries == meet_table(p, n), (n, p)
