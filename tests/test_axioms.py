from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbtlab.axioms import (
    AXIOM_NAMES,
    DECIDERS,
    PAIR_KERNELS,
    InternalDisagreementError,
    UnknownAxiomError,
    axiom_profile,
    cross_validate_space,
    decide_lambda_symmetric,
    decide_r0,
    decide_symmetric,
    decide_t0,
    decide_t1,
    decide_t_half,
    evaluate_axiom,
    normalize_axiom_name,
    t_fraction_by_definition,
)
from gbtlab.enumeration import (
    canonical_pair_indices,
    enumerate_gbt_pairs,
    gts_on,
)
from gbtlab.fixtures import get_fixture
from gbtlab.gbt import GbtSpace, make_space
from gbtlab.gt import complete_unions
from gbtlab.sets import ground

from oracles import OracleSpace, permute_space, t_fraction_by_scan


def _space(points, mu1, mu2):
    return make_space(points, mu1, mu2)


def _holds(decide, s):
    """The verdict of one pair decider on a space."""
    return decide(s.mu1, s.mu2)[0]


def test_axiom_name_normalization():
    assert normalize_axiom_name("t1/4") == "T1_4"
    assert normalize_axiom_name("lambda-symmetric") == "LSYM"
    with pytest.raises(UnknownAxiomError):
        normalize_axiom_name("T9")


def test_decider_table_follows_axiom_names():
    # axiom_profile fills the profile's fields in this order
    assert tuple(DECIDERS) == AXIOM_NAMES == tuple(axiom_profile(_space("a", [], [])).as_dict())


def test_t0_examples():
    assert _holds(decide_t0, get_fixture("e17").space())
    assert _holds(decide_t0, get_fixture("e11").space())
    indiscrete = _space("ab", [], [])
    assert not _holds(decide_t0, indiscrete)


def test_t1_examples():
    assert _holds(decide_t1, get_fixture("e35").space())
    assert not _holds(decide_t1, get_fixture("e26").space())
    assert _holds(decide_t1, get_fixture("e25").space())


def test_r0_examples():
    assert not _holds(decide_r0, get_fixture("e35").space())
    assert _holds(decide_r0, _space("ab", [], []))
    discrete = [["a"], ["b"], ["a", "b"]]
    assert _holds(decide_r0, _space("ab", discrete, discrete))


def test_symmetric_examples():
    discrete = [["a"], ["b"], ["a", "b"]]
    assert _holds(decide_symmetric, _space("ab", discrete, discrete))
    assert not _holds(decide_symmetric, get_fixture("e17").space())
    assert _holds(decide_symmetric, _space("ab", [], []))


def test_t_half_examples():
    assert _holds(decide_t_half, get_fixture("e36").space())
    assert not _holds(decide_t_half, get_fixture("e35").space())
    assert not _holds(decide_t_half, get_fixture("e31").space())


def test_lambda_symmetric_examples():
    assert not _holds(decide_lambda_symmetric, get_fixture("e46a").space())
    discrete = [["a"], ["b"], ["a", "b"]]
    assert _holds(decide_lambda_symmetric, _space("ab", discrete, discrete))
    # identical topologies collapse the one-sided and pairwise notions
    for masks in gts_on(3):
        s = GbtSpace(masks.ground, masks, masks)
        assert _holds(decide_lambda_symmetric, s)


def test_fractional_examples():
    e35 = get_fixture("e35").space()
    e36 = get_fixture("e36").space()
    e17 = get_fixture("e17").space()
    p35, p36, p17 = axiom_profile(e35), axiom_profile(e36), axiom_profile(e17)
    assert p35.t_quarter and p35.t_3_8 and p35.t_5_8
    assert p36.t_quarter and p36.t_3_8 and p36.t_5_8
    assert not (p17.t_quarter or p17.t_3_8 or p17.t_5_8)


def test_profile_fixture_expectations():
    p35 = axiom_profile(get_fixture("e35").space())
    assert p35.t1 and not p35.t_half and not p35.r0 and p35.t_5_8
    p36 = axiom_profile(get_fixture("e36").space())
    assert p36.t_half and not p36.t1
    p22 = axiom_profile(get_fixture("e22").space())
    assert not p22.t1
    assert "a" in p22.witnesses["T1"] and "b" in p22.witnesses["T1"]


def test_profile_chain_always_holds():
    for i, j in canonical_pair_indices(2, "perm"):
        gts = gts_on(2)
        p = axiom_profile(GbtSpace(gts[0].ground, gts[i], gts[j]))
        assert (not p.t_half or p.t_5_8) and (not p.t_5_8 or p.t_3_8)
        assert (not p.t_3_8 or p.t_quarter) and (not p.t_quarter or p.t0)


def test_cross_validation_clean_small():
    gts = gts_on(2)
    for i, j in canonical_pair_indices(2, "perm"):
        cross_validate_space(GbtSpace(gts[0].ground, gts[i], gts[j]))


def test_four_kind_hull_matches_the_separation_scan():
    """The hull DP behind t_fraction_by_definition against the subset and
    point scan it replaced: every canonical space with at most three points
    and 2,000 seeded labeled four-point spaces."""
    gts4 = gts_on(4)
    rng = random.Random(7)
    spaces = [s for n in (1, 2, 3) for s in enumerate_gbt_pairs(n)]
    spaces += [GbtSpace(gts4[0].ground, rng.choice(gts4), rng.choice(gts4)) for _ in range(2000)]
    verdicts = set()
    for s in spaces:
        verdict = t_fraction_by_definition(s.mu1, s.mu2)
        assert verdict == t_fraction_by_scan(s.mu1, s.mu2), s
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_witnesses_recorded_for_false_verdicts():
    p = axiom_profile(get_fixture("e17").space())
    for name, value in p.as_dict().items():
        if not value:
            assert name in p.witnesses


def test_evaluate_axiom_matches_profile():
    s = get_fixture("e35").space()
    p = axiom_profile(s).as_dict()
    for name, value in p.items():
        assert evaluate_axiom(name, s.mu1, s.mu2) == value


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
def test_profiles_match_definitional_oracle(s):
    oracle = OracleSpace.from_space(s)
    p = axiom_profile(s)
    assert p.t0 == oracle.t0()
    assert p.t1 == oracle.t1()
    assert p.r0 == oracle.r0()
    assert p.symmetric == oracle.symmetric()
    assert p.t_half == oracle.t_half()
    assert p.t_5_8 == oracle.t_fraction()
    assert p.lambda_symmetric == oracle.lambda_symmetric()


@given(spaces())
def test_profile_invariant_under_permutation_and_swap(s):
    base = axiom_profile(s).as_dict()
    assert axiom_profile(s.swap()).as_dict() == base
    for perm in itertools.permutations(range(s.ground.size)):
        assert axiom_profile(permute_space(s, perm)).as_dict() == base


def test_internal_disagreement_is_raised_for_broken_engine(monkeypatch):
    s = get_fixture("e35").space()
    import gbtlab.axioms as axioms_module

    monkeypatch.setattr(axioms_module, "t0_by_singletons", lambda t1, t2: False)
    with pytest.raises(InternalDisagreementError):
        cross_validate_space(s)


# pair kernel ---------------------------------------------------------------


def _kernel_rows(name):
    """Per size n: the sampled indices (all of them for n <= 3, a seeded
    sample of 40 for n = 4) and the kernel's full verdict row of each."""
    rng = random.Random(5)
    kernel = PAIR_KERNELS[name]
    for n in range(1, 5):
        gts = gts_on(n)
        indices = range(len(gts)) if n <= 3 else sorted(rng.sample(range(len(gts)), 40))
        column = kernel.column(gts)
        yield n, gts, indices, {i: kernel.verdicts(column, i, 0) for i in indices}, column


@pytest.mark.parametrize("name", AXIOM_NAMES)
def test_pair_kernel_matches_the_deciders(name):
    kernel = PAIR_KERNELS[name]
    for n, gts, indices, rows, column in _kernel_rows(name):
        for i in indices:
            assert kernel.verdicts(column, i, i) == rows[i][i:]
            for j in indices:
                assert rows[i][j] == evaluate_axiom(name, gts[i], gts[j]), (n, i, j)


@pytest.mark.parametrize("name", AXIOM_NAMES)
def test_pair_kernel_is_swap_invariant(name):
    """The unordered perm+swap scan decides only the pairs with i <= j."""
    for n, _, indices, rows, _ in _kernel_rows(name):
        for i, j in itertools.combinations(indices, 2):
            assert rows[i][j] == rows[j][i], (n, i, j)
