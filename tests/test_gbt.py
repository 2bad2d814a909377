from __future__ import annotations

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbtlab.gbt import (
    GbtSpace,
    are_weakly_separated,
    closed_in_gap,
    g_open_by_kernels,
    is_g_closed_wrt,
    is_g_open_wrt,
    is_lambda_closed_wrt,
    is_lambda_open_wrt,
    is_pairwise_lambda_closed,
    is_pairwise_lambda_open,
    is_wedge12_set,
    lambda_closed_forms,
    lambda_open_by_decomposition,
    lambda_open_family_wrt,
    make_space,
    other,
    pairwise_lambda_closed_forms,
    pairwise_lambda_open_family,
    weakly_separated,
)
from gbtlab.enumeration import enumerate_gbt_pairs, gts_on
from gbtlab.fixtures import get_fixture
from gbtlab.gt import complete_unions, validate_gt
from gbtlab.sets import Subset, full, ground, members, parse_subset

from oracles import OracleSpace, closed_inside_by_scan, weakly_separated_by_opens


def _sub(space, labels):
    return parse_subset(labels, space.ground)


def test_other_side():
    assert other(1) == 2 and other(2) == 1
    with pytest.raises(ValueError):
        other(3)


def test_g_closed_examples():
    e11 = get_fixture("e11").space()
    e13 = get_fixture("e13").space()
    assert is_g_closed_wrt(e11, 1, _sub(e11, "a"))
    assert not is_g_closed_wrt(e13, 1, _sub(e13, "b"))
    assert is_g_closed_wrt(e11, 1, full(e11.ground))
    assert is_g_closed_wrt(e13, 2, full(e13.ground))


def test_g_open_examples():
    e11 = get_fixture("e11").space()
    e13 = get_fixture("e13").space()
    assert is_g_open_wrt(e11, 1, _sub(e11, "bc"))
    assert is_g_open_wrt(e11, 1, _sub(e11, ""))
    assert not is_g_open_wrt(e13, 1, _sub(e13, "ac"))


def test_lambda_closed_examples():
    e39 = get_fixture("e39").space()
    e43a = get_fixture("e43a").space()
    assert is_lambda_closed_wrt(e39, 1, _sub(e39, "b"))
    assert not is_lambda_closed_wrt(e43a, 1, _sub(e43a, "c"))
    assert is_lambda_closed_wrt(e43a, 1, full(e43a.ground))


def test_lambda_open_examples():
    e39 = get_fixture("e39").space()
    e46b = get_fixture("e46b").space()
    assert is_lambda_open_wrt(e39, 1, _sub(e39, "ac"))
    assert is_lambda_open_wrt(e39, 1, _sub(e39, ""))
    assert not is_lambda_open_wrt(e46b, 2, _sub(e46b, "bc"))


def test_pairwise_lambda_examples():
    e17 = get_fixture("e17").space()
    e46a = get_fixture("e46a").space()
    e46b = get_fixture("e46b").space()
    assert is_pairwise_lambda_closed(e46a, _sub(e46a, "a"))
    assert is_pairwise_lambda_closed(e46b, _sub(e46b, "a"))
    assert is_pairwise_lambda_closed(e46b, _sub(e46b, "d"))
    assert not is_pairwise_lambda_closed(e46b, _sub(e46b, "ad"))
    assert is_pairwise_lambda_closed(e17, _sub(e17, "c"))
    assert is_pairwise_lambda_open(e46a, _sub(e46a, "bcd"))
    assert is_pairwise_lambda_open(e46a, full(e46a.ground))
    assert not is_pairwise_lambda_open(e46b, _sub(e46b, "bc"))


def test_wedge12_examples():
    e17 = get_fixture("e17").space()
    assert not is_wedge12_set(e17, _sub(e17, "c"))
    assert is_wedge12_set(e17, full(e17.ground))
    assert is_wedge12_set(e17, _sub(e17, ""))


def test_weak_separation_examples():
    e17 = get_fixture("e17").space()
    g = e17.ground
    assert not are_weakly_separated(e17.mu1, _sub(e17, "a"), _sub(e17, "b"))
    assert are_weakly_separated(e17.mu1, _sub(e17, ""), _sub(e17, ""))
    discrete = validate_gt(g, range(8))
    assert are_weakly_separated(discrete, _sub(e17, "a"), _sub(e17, "b"))


def test_lambda_open_families():
    e39 = get_fixture("e39").space()
    fam1 = lambda_open_family_wrt(e39, 1)
    labels = {e39.ground.labels(m) for m in fam1}
    assert ("a",) in labels and ("a", "c") in labels and () in labels
    e46b = get_fixture("e46b").space()
    pairwise = {e46b.ground.labels(m) for m in pairwise_lambda_open_family(e46b)}
    assert ("b", "c") not in pairwise
    assert () in pairwise


@st.composite
def spaces(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    g = ground(n)
    topologies = []
    for _ in range(2):
        seeds = draw(st.lists(st.integers(0, g.full_mask), max_size=4))
        topologies.append(complete_unions(g, seeds)[0])
    return GbtSpace(g, topologies[0], topologies[1])


@given(spaces())
def test_duality_between_open_and_closed_predicates(s):
    g = s.ground
    for bits in range(g.full_mask + 1):
        a = Subset(bits, g)
        comp = Subset(bits ^ g.full_mask, g)
        for i in (1, 2):
            assert is_g_open_wrt(s, i, a) == is_g_closed_wrt(s, i, comp)
            assert is_lambda_open_wrt(s, i, a) == is_lambda_closed_wrt(s, i, comp)
        assert is_pairwise_lambda_open(s, a) == is_pairwise_lambda_closed(s, comp)


@given(spaces())
def test_lambda_open_families_match_predicates(s):
    g = s.ground
    for i in (1, 2):
        expected = tuple(m for m in range(g.full_mask + 1) if is_lambda_open_wrt(s, i, Subset(m, g)))
        assert lambda_open_family_wrt(s, i) == expected
    expected = tuple(m for m in range(g.full_mask + 1) if is_pairwise_lambda_open(s, Subset(m, g)))
    assert pairwise_lambda_open_family(s) == expected


@given(spaces())
def test_g_open_kernel_characterization(s):
    g = s.ground
    for bits in range(g.full_mask + 1):
        a = Subset(bits, g)
        for i in (1, 2):
            assert is_g_open_wrt(s, i, a) == g_open_by_kernels(s, i, a)


@given(spaces())
def test_lambda_forms_agree(s):
    """Each form's family mask, read bit by bit, against the predicates."""
    g = s.ground
    for i in (1, 2):
        forms = lambda_closed_forms(s, i)
        assert len(forms) == 4
        for bits in range(g.full_mask + 1):
            a = Subset(bits, g)
            assert {form >> bits & 1 for form in forms} == {is_lambda_closed_wrt(s, i, a)}
            assert lambda_open_by_decomposition(s, i, a) == is_lambda_open_wrt(s, i, a)
    pairwise_forms = pairwise_lambda_closed_forms(s)
    assert len(pairwise_forms) == 4
    for bits in range(g.full_mask + 1):
        assert {form >> bits & 1 for form in pairwise_forms} == {is_pairwise_lambda_closed(s, Subset(bits, g))}


@given(spaces())
def test_closed_and_wedge_sets_are_lambda_closed(s):
    g = s.ground
    for i in (1, 2):
        t_in, t_other = s.side(i), s.side(other(i))
        for bits in range(g.full_mask + 1):
            a = Subset(bits, g)
            if t_in.closure_table[bits] == bits or t_other.wedge_table[bits] == bits:
                assert is_lambda_closed_wrt(s, i, a)
            if is_lambda_closed_wrt(s, i, a):
                assert is_pairwise_lambda_closed(s, a)
            if is_wedge12_set(s, a):
                assert is_pairwise_lambda_closed(s, a)


@given(spaces(max_n=3))
def test_predicates_match_label_set_oracle(s):
    oracle = OracleSpace.from_space(s)
    g = s.ground
    for bits in range(g.full_mask + 1):
        a = Subset(bits, g)
        a_labels = frozenset(a.labels())
        for i in (1, 2):
            assert is_g_closed_wrt(s, i, a) == oracle.g_closed(i, a_labels)
            assert is_lambda_closed_wrt(s, i, a) == oracle.lambda_closed(i, a_labels)
        assert is_pairwise_lambda_closed(s, a) == oracle.pairwise_lambda_closed(a_labels)
        assert is_wedge12_set(s, a) == oracle.wedge12_set(a_labels)


def test_families_match_label_set_oracle_on_every_small_space():
    """The cached subset families and singleton masks of every canonical
    space with at most three points, against the definitional oracle."""
    for s in (s for n in (1, 2, 3) for s in enumerate_gbt_pairs(n)):
        oracle = OracleSpace.from_space(s)
        subsets = list(oracle.subsets())

        def labeled(family):
            return {frozenset(s.ground.labels(m)) for m in members(family)}

        for i, t, _ in s.sides():
            assert labeled(t.wedge_sets) == oracle.wedge_sets(i)
            assert labeled(t.vee_sets) == {a for a in subsets if oracle.vee(i, a) == a}
            assert set(s.ground.labels(t.open_points)) == oracle.open_singletons(i)
            assert set(s.ground.labels(t.closed_points)) == oracle.closed_singletons(i)
            assert labeled(s.g_closed[i]) == {a for a in subsets if oracle.g_closed(i, a)}
            assert labeled(s.lambda_closed[i]) == {a for a in subsets if oracle.lambda_closed(i, a)}
            no_closed_in_gap = sum(1 << a for a in range(s.n_subsets) if not closed_in_gap(t, s.side(other(i)), a))
            assert labeled(no_closed_in_gap) == {a for a in subsets if oracle.gap_has_no_closed(i, a)}
        assert labeled(s.pairwise_lambda_closed) == {
            a for a in subsets if oracle.pairwise_lambda_closed(a)
        }
        assert labeled(s.wedge12_sets) == {a for a in subsets if oracle.wedge12_set(a)}


def test_table_forms_match_the_scans():
    """Weak separation read off the closure table and the closed-set-inside
    test read off the vee table, against the open- and closed-set scans
    they replace: every topology with at most three points and 200 seeded
    four-point topologies, for all A and B."""
    gts4 = gts_on(4)
    rng = Random(2024)
    topologies = [t for n in (1, 2, 3) for t in gts_on(n)]
    topologies += [gts4[rng.randrange(len(gts4))] for _ in range(200)]
    for t in topologies:
        masks = range(t.ground.full_mask + 1)
        for a in masks:
            assert (t.vee_table[a] != 0) == closed_inside_by_scan(t.closed_masks, a)
            for b in masks:
                assert weakly_separated(t, a, b) == weakly_separated_by_opens(t.opens, a, b)


def test_make_space_checks_grounds():
    s = make_space("ab", [["a"]], [["b"]])
    assert s.ground.names == ("a", "b")
    assert s.swap().mu1.opens == s.mu2.opens
