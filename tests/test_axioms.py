from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from functools import cache, wraps

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbtlab.axioms import (
    AXIOM_BITS,
    AXIOM_NAMES,
    AXIOMS,
    AxiomProfile,
    DECIDERS,
    PAIR_KERNELS,
    InternalDisagreementError,
    UnknownAxiomError,
    axiom_profile,
    decide_lambda_symmetric,
    decide_r0,
    decide_symmetric,
    decide_t0,
    decide_t1,
    decide_t_half,
    evaluate_axiom,
    normalize_axiom_name,
    sliced_tables,
    t_fraction_by_definition,
)
from gbtlab.enumeration import (
    canonical_pair_indices,
    enumerate_gbt_pairs,
    gts_on,
    iter_gt_mask_families,
)
from gbtlab.fixtures import get_fixture
from gbtlab.gbt import GbtSpace, make_space
from gbtlab.gt import GeneralizedTopology, complete_unions, is_gt_T0
from gbtlab.mining import _kernel_column
from gbtlab.sets import ground

from oracles import (
    OracleSpace,
    kernel_list_row,
    permute_space,
    signature_column,
    t_fraction_by_scan,
)


def _space(points, mu1, mu2):
    return make_space(points, mu1, mu2)


def _holds(decide, s):
    """The verdict of one pair decider on a space."""
    return decide(s.mu1, s.mu2)[0]


ALIASES = {
    "t0": "T0",
    "t1/4": "T1_4",
    "t1_4": "T1_4",
    "t3/8": "T3_8",
    "t3_8": "T3_8",
    "t5/8": "T5_8",
    "t5_8": "T5_8",
    "t1/2": "T1_2",
    "t1_2": "T1_2",
    "t1": "T1",
    "r0": "R0",
    "sym": "SYM",
    "symmetric": "SYM",
    "lsym": "LSYM",
    "lambda-symmetric": "LSYM",
    "lambda_symmetric": "LSYM",
}


def test_axiom_name_normalization():
    for alias, name in ALIASES.items():
        assert normalize_axiom_name(alias) == name
        assert normalize_axiom_name(alias.upper()) == name
    known = "known: T0, T1_4, T3_8, T5_8, T1_2, T1, R0, SYM, LSYM"
    for unknown in ("T9", "t1/3", "lambda symmetric", ""):
        with pytest.raises(UnknownAxiomError) as caught:
            normalize_axiom_name(unknown)
        assert str(caught.value) == f"unknown axiom {unknown!r}; {known}"


def test_decider_table_follows_axiom_names():
    # axiom_profile fills the profile's fields in this order
    profile = axiom_profile(_space("a", [], []))
    assert AXIOM_NAMES == ("T0", "T1_4", "T3_8", "T5_8", "T1_2", "T1", "R0", "SYM", "LSYM")
    assert AXIOM_NAMES == tuple(DECIDERS) == tuple(PAIR_KERNELS) == tuple(AXIOM_BITS) == tuple(profile.as_dict())


def test_verdict_word_bits_stay_fixed():
    # census log lines index their profile texts by word, so the bits must not move
    assert AXIOM_BITS == {
        "T0": 1, "T1_4": 2, "T3_8": 2, "T5_8": 2, "T1_2": 4, "T1": 8, "R0": 16, "SYM": 32, "LSYM": 64,
    }


def test_profile_takes_exactly_nine_verdicts():
    verdicts = [True] * len(AXIOM_NAMES)
    assert AxiomProfile(*verdicts).as_dict() == dict.fromkeys(AXIOM_NAMES, True)
    with pytest.raises(TypeError):
        AxiomProfile(*verdicts[:-1])
    with pytest.raises(TypeError):
        AxiomProfile(*verdicts[:-1], witnesses={})
    with pytest.raises(TypeError):
        AxiomProfile(*verdicts, True, witnesses={})


def test_profile_asserts_the_implication_chain(monkeypatch):
    s = get_fixture("e17").space()
    assert not axiom_profile(s).t_quarter
    monkeypatch.setitem(DECIDERS, "T1_2", lambda t1, t2: (True, None))
    with pytest.raises(InternalDisagreementError, match="T1_2 holds but T5_8 fails"):
        axiom_profile(s)


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
        axiom_profile(GbtSpace(gts[0].ground, gts[i], gts[j]), cross_validate=True)


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
        verdict = t_fraction_by_definition(s)
        assert verdict == t_fraction_by_scan(s.mu1, s.mu2), s
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_witnesses_recorded_for_false_verdicts():
    p = axiom_profile(get_fixture("e17").space())
    for name, value in p.as_dict().items():
        if not value:
            assert name in p.witnesses


def test_every_witness_text_up_to_three_points_is_pinned():
    """Every decider's witness text, on all 771 canonical spaces with at most
    three points under point permutations, cross-validated: one JSON line of
    witnesses per space, in sweep order, under one sha256, so that a change
    to a decider or to a second route cannot reword or move a witness."""
    digest = hashlib.sha256()
    count = 0
    for n in (1, 2, 3):
        gts = gts_on(n)
        for i, j in canonical_pair_indices(n, "perm"):
            witnesses = axiom_profile(GbtSpace(gts[i].ground, gts[i], gts[j]), cross_validate=True).witnesses
            digest.update((json.dumps(witnesses, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8"))
            count += 1
    assert count == 771
    assert digest.hexdigest() == "9562448eccb2175afd265bc34844d888b087396e125af5122b132c716ee919fa"


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
    """Each second route in turn, made to answer the opposite of itself in
    every row that holds it: the cross-validated profile raises, naming the
    decider and that route."""
    s = get_fixture("e35").space()
    routes = dict.fromkeys((row.decide, route) for row in AXIOMS.values() for route in row.routes)
    assert len(routes) == 4
    for decide, route in routes:

        @wraps(route)
        def broken(space, route=route):
            return not route(space)

        with monkeypatch.context() as patch:
            for name, row in list(AXIOMS.items()):
                forced = tuple(broken if r is route else r for r in row.routes)
                patch.setitem(AXIOMS, name, row._replace(routes=forced))
            with pytest.raises(InternalDisagreementError, match=f"{decide.__name__}=.*, {route.__name__}="):
                axiom_profile(s, cross_validate=True)
    axiom_profile(s, cross_validate=True)


def test_cross_validated_profile_runs_each_decider_once(monkeypatch):
    """One counting wrapper per distinct decider, in ``DECIDERS`` and in its
    ``AXIOMS`` rows: a cross-validated profile calls each exactly once."""
    calls = Counter()
    counted = {}
    for decide in dict.fromkeys(DECIDERS.values()):

        @wraps(decide)
        def count(t1, t2, decide=decide):
            calls[decide] += 1
            return decide(t1, t2)

        counted[decide] = count
    assert len(counted) == 7
    for name, row in list(AXIOMS.items()):
        monkeypatch.setitem(DECIDERS, name, counted[row.decide])
        monkeypatch.setitem(AXIOMS, name, row._replace(decide=counted[row.decide]))
    for fixture in ("e11", "e17", "e35"):
        calls.clear()
        axiom_profile(get_fixture(fixture).space(), cross_validate=True)
        assert calls == dict.fromkeys(counted, 1), fixture


# pair kernel ---------------------------------------------------------------


def _kernel_rows(name):
    """Per size n: the sampled indices (all of them for n <= 3, a seeded
    sample of 40 for n = 4) and the kernel's int row of each."""
    rng = random.Random(5)
    kernel = PAIR_KERNELS[name]
    for n in range(1, 5):
        gts = gts_on(n)
        indices = range(len(gts)) if n <= 3 else sorted(rng.sample(range(len(gts)), 40))
        column = _kernel_column(n, kernel)
        yield n, gts, indices, {i: kernel.verdicts(column, i) for i in indices}


@pytest.mark.parametrize("name", AXIOM_NAMES)
def test_pair_kernel_matches_the_deciders(name):
    for n, gts, indices, rows in _kernel_rows(name):
        for i in indices:
            assert rows[i] >> len(gts) == 0, (n, i)
            for j in indices:
                assert bool(rows[i] >> j & 1) == evaluate_axiom(name, gts[i], gts[j]), (n, i, j)


@pytest.mark.parametrize("name", AXIOM_NAMES)
def test_pair_kernel_is_swap_invariant(name):
    """The unordered perm+swap scan decides only the pairs with i <= j."""
    for n, _, indices, rows in _kernel_rows(name):
        for i, j in itertools.combinations(indices, 2):
            assert rows[i] >> j & 1 == rows[j] >> i & 1, (n, i, j)


# one axiom per distinct kernel
KERNEL_NAMES = ("T0", "T1_4", "T1_2", "T1", "R0", "SYM", "LSYM")


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _assert_rows_equal_the_list_rows(name, column, firsts):
    """The int row of each position in ``firsts`` against the list row of
    the same signatures, read as an int (bit p is entry p)."""
    kernel = PAIR_KERNELS[name]
    for i in firsts:
        want = kernel_list_row(name, column.size, column.signatures[i], column.signatures)
        assert len(want) == len(column.signatures)
        assert kernel.verdicts(column, i) == int(bytes(want)[::-1].translate(_DIGITS), 2), (name, i)


def test_every_distinct_kernel_is_named():
    assert len({PAIR_KERNELS[name] for name in KERNEL_NAMES}) == len(set(PAIR_KERNELS.values()))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_bit_rows_equal_the_list_rows_up_to_three_points(name):
    for n in (1, 2, 3):
        column = _kernel_column(n, PAIR_KERNELS[name])
        _assert_rows_equal_the_list_rows(name, column, range(len(gts_on(n))))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_bit_rows_equal_the_list_rows_on_four_points(name):
    """A seeded sample of 400 first indices of the full four-point column,
    each against all 2,480 second topologies."""
    column = _kernel_column(4, PAIR_KERNELS[name])
    firsts = random.Random(12).sample(range(len(gts_on(4))), 400)
    _assert_rows_equal_the_list_rows(name, column, firsts)


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_bounded_bit_rows_equal_the_list_rows(name, bound):
    """The columns a bounded census reads: the three-point topologies with
    at most ``bound`` nonempty opens."""
    column = _kernel_column(3, PAIR_KERNELS[name], bound)
    assert len(column.signatures) == sum(len(t.opens) - 1 <= bound for t in gts_on(3))
    _assert_rows_equal_the_list_rows(name, column, range(len(column.signatures)))


# sliced columns ------------------------------------------------------------


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_sliced_columns_equal_the_signature_columns(name):
    """Signatures, slices and ``every`` of the columns mining builds from
    sliced tables, against the columns of per-topology signatures: every
    topology up to four points, and the admitted three-point topologies
    under every ``max_open_sets`` bound (seven nonempty subsets at most)."""
    kernel = PAIR_KERNELS[name]
    for n in range(1, 5):
        assert _kernel_column(n, kernel) == signature_column(name, gts_on(n)), n
    for bound in range(8):
        admitted = [t for t in gts_on(3) if len(t.opens) - 1 <= bound]
        assert _kernel_column(3, kernel, bound) == signature_column(name, admitted), bound


@cache
def _five_point_sample():
    """500 five-point topologies: every 120th of the first 60,000 families
    the enumerator yields (401 of them have X open)."""
    g = ground(5)
    families = itertools.islice(iter_gt_mask_families(5), 0, 60_000, 120)
    topologies = [GeneralizedTopology(g, f) for f in families]
    return topologies, sliced_tables(topologies)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_sliced_columns_equal_the_signature_columns_on_five_points(name):
    topologies, tables = _five_point_sample()
    assert len(topologies) == 500
    assert PAIR_KERNELS[name].column(tables) == signature_column(name, topologies)


def test_the_t1_flag_slice_holds_the_topologies_that_are_not_t0_on_their_own():
    """The bit after T1's n² field bits: flagged in the first component
    exactly where ``gt.is_gt_T0`` fails, and set everywhere in the second."""
    counts = []
    for n in range(1, 5):
        gts = gts_on(n)
        flags, always = (c[n * n] for c in _kernel_column(n, PAIR_KERNELS["T1"]).slices)
        assert flags == sum(1 << p for p, t in enumerate(gts) if not is_gt_T0(t)), n
        assert always == (1 << len(gts)) - 1, n
        counts.append(flags.bit_count())
    assert counts == [0, 2, 17, 301]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_pair_kernel_matches_the_deciders_on_five_points(name):
    """Seeded pairs of the five-point sample, each row bit against the
    decider: 200 pairs drawn at random, and 100 drawn from the pairs the
    kernel says hold (R0 and SYM hold on 42 of the 250,000 pairs)."""
    topologies, tables = _five_point_sample()
    kernel = PAIR_KERNELS[name]
    column = kernel.column(tables)
    rows = [kernel.verdicts(column, i) for i in range(len(topologies))]
    holding = [(i, j) for i, row in enumerate(rows) for j in range(len(topologies)) if row >> j & 1]
    rng = random.Random(36)
    pairs = [(rng.randrange(500), rng.randrange(500)) for _ in range(200)]
    pairs += rng.choices(holding, k=100)
    verdicts = Counter()
    for i, j in pairs:
        verdict = evaluate_axiom(name, topologies[i], topologies[j])
        assert bool(rows[i] >> j & 1) == verdict, (name, i, j)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False], verdicts
