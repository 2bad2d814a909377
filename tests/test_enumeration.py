from __future__ import annotations

import itertools
import random

import pytest

from gbtlab.enumeration import (
    _gt_index_permutations,
    canonical_index_key,
    canonical_index_pair,
    canonical_key,
    canonical_pair_indices,
    canonical_pair_encoding,
    enumerate_gbt_pairs,
    enumerate_gts,
    gt_mask_families,
    gts_on,
    index_pair_of_key,
    pair_orbit_size,
)
from gbtlab.gbt import GbtSpace, make_space
from gbtlab.sets import family_of

from oracles import (
    canonical_pair_indices_by_scan,
    gt_index_permutations_by_sorting,
    naive_enumerate_gt_families,
    orbit_classes,
    permute_space,
)


def _families_as_label_sets(n):
    gts = gts_on(n)
    return {
        frozenset(frozenset(t.ground.labels(m)) for m in t.opens) for t in gts
    }


@pytest.mark.parametrize("n,count", [(1, 2), (2, 7), (3, 61)])
def test_gt_counts_match_naive_oracle(n, count):
    naive = naive_enumerate_gt_families(n)
    assert len(naive) == count
    assert len(gt_mask_families(n)) == count
    assert _families_as_label_sets(n) == set(naive)


def test_gt_count_n4_matches_naive_oracle():
    assert len(gt_mask_families(4)) == len(naive_enumerate_gt_families(4)) == 2480


def test_stream_is_ascending_and_duplicate_free():
    for n in (1, 2, 3):
        encodings = [family_of(f) >> 1 for f in gt_mask_families(n)]
        assert encodings == sorted(set(encodings))


def test_every_streamed_family_is_union_closed():
    for t in enumerate_gts(3):
        masks = set(t.opens)
        assert 0 in masks
        assert all(a | b in masks for a in masks for b in masks)


def test_canonical_key_permutation_invariance():
    s = make_space("abc", [["a"], ["a", "b"]], [["c"]])
    key = canonical_key(s)
    for perm in itertools.permutations(range(3)):
        assert canonical_key(permute_space(s, perm)) == key
    assert canonical_key(s.swap()) == key
    assert canonical_key(s.swap(), "perm") != canonical_key(s, "perm") or s.mu1 == s.mu2


def test_e25_swap_identification():
    e25 = make_space("ab", [["a"]], [["b"]])
    swapped = e25.swap()
    assert canonical_key(e25, "perm+swap") == canonical_key(swapped, "perm+swap")
    # under plain permutations the swap is ALSO reachable via the transposition
    assert canonical_key(e25, "perm") == canonical_key(swapped, "perm")


def test_representatives_are_canonical_and_unique():
    for symmetry in ("perm", "perm+swap"):
        seen = set()
        for s in enumerate_gbt_pairs(3, symmetry):
            e = (family_of(s.mu1.opens) >> 1, family_of(s.mu2.opens) >> 1)
            assert canonical_pair_encoding(s.mu1.opens, s.mu2.opens, 3, symmetry) == e
            key = canonical_key(s, symmetry)
            assert key not in seen
            seen.add(key)


@pytest.mark.parametrize("n", [1, 2])
def test_pair_counts_small(n):
    labeled = len(gt_mask_families(n)) ** 2
    assert labeled == (4 if n == 1 else 49)
    perm = list(canonical_pair_indices(n, "perm"))
    swap = list(canonical_pair_indices(n, "perm+swap"))
    if n == 1:
        assert len(perm) == 4 and len(swap) == 3
    else:
        assert len(perm) == 29 and len(swap) == 18


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_orbit_stabilizer_identity(n, symmetry):
    labeled = len(gt_mask_families(n)) ** 2
    total = sum(
        pair_orbit_size(n, i, j, symmetry) for i, j in canonical_pair_indices(n, symmetry)
    )
    assert total == labeled


def _group_images(n, symmetry):
    """``images(i, j)``: the index pairs of (i, j)'s images under the group,
    from point permutations applied mask by mask."""
    gt_perm = gt_index_permutations_by_sorting(n)

    def images(i, j):
        perm_images = [(perm[i], perm[j]) for perm in gt_perm]
        if symmetry == "perm":
            return perm_images
        return perm_images + [(b, a) for a, b in perm_images]

    return images


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_permutations_match_the_sorting_route(n):
    assert _gt_index_permutations(n) == gt_index_permutations_by_sorting(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_canonical_pairs_match_the_stabilizer_scan(n, symmetry):
    """Exhaustive at every size, 272,040 and 136,550 pairs at n = 4: the
    same pairs in the same order."""
    assert list(canonical_pair_indices(n, symmetry)) == canonical_pair_indices_by_scan(n, symmetry)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_counts_match_brute_force_orbits(n):
    count = len(gt_mask_families(n))
    all_pairs = [(i, j) for i in range(count) for j in range(count)]
    for symmetry in ("perm", "perm+swap"):
        assert len(orbit_classes(all_pairs, _group_images(n, symmetry))) == len(
            list(canonical_pair_indices(n, symmetry))
        )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_canonical_pairs_are_the_minima_of_their_image_sets(n, symmetry):
    images = _group_images(n, symmetry)
    count = len(gt_mask_families(n))
    kept = [(i, j) for i in range(count) for j in range(count) if (i, j) == min(images(i, j))]
    assert list(canonical_pair_indices(n, symmetry)) == kept


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_canonical_pairs_among_admitted_topologies(n, symmetry):
    """The pairs of two admitted topologies, for every bound on the number
    of nonempty opens, are those of the full list; so are those of two
    indices of a random mask, which splits orbits."""
    pairs = list(canonical_pair_indices(n, symmetry))
    gts = gts_on(n)
    masks = [
        sum(1 << i for i, t in enumerate(gts) if bound is None or len(t.opens) - 1 <= bound)
        for bound in (None, *range(8))
    ]
    if n <= 3:
        rng = random.Random(n)
        masks += [rng.getrandbits(len(gts)) for _ in range(20)]
    for among in masks:
        want = [(i, j) for i, j in pairs if among >> i & 1 and among >> j & 1]
        assert list(canonical_pair_indices(n, symmetry, among)) == want


def test_canonical_pair_counts_n4():
    """Burnside's pair-orbit counts on four points."""
    assert sum(1 for _ in canonical_pair_indices(4, "perm+swap")) == 136550
    assert sum(1 for _ in canonical_pair_indices(4, "perm")) == 272040


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_index_keys_match_the_permutation_search(n, symmetry):
    gts = gts_on(n)
    for i, j in canonical_pair_indices(n, symmetry):
        space = GbtSpace(gts[i].ground, gts[i], gts[j])
        assert canonical_index_key(n, i, j) == canonical_key(space, symmetry), (i, j)


@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_index_keys_match_the_permutation_search_on_sampled_n4_pairs(symmetry):
    gts = gts_on(4)
    pairs = list(canonical_pair_indices(4, symmetry))
    for i, j in random.Random(7).sample(pairs, 300):
        space = GbtSpace(gts[i].ground, gts[i], gts[j])
        assert canonical_index_key(4, i, j) == canonical_key(space, symmetry), (i, j)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_canonical_index_pairs_match_the_permutation_search(n, symmetry):
    """Every labeled pair: the key of its least orbit pair is its
    ``canonical_key``, and a canonical pair is its own least orbit pair."""
    gts = gts_on(n)
    canonical = set(canonical_pair_indices(n, symmetry))
    for i, j in itertools.product(range(len(gts)), repeat=2):
        pair = canonical_index_pair(n, i, j, symmetry)
        assert pair in canonical, (i, j)
        space = GbtSpace(gts[i].ground, gts[i], gts[j])
        assert canonical_index_key(n, *pair) == canonical_key(space, symmetry), (i, j)


@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_canonical_index_pairs_match_the_permutation_search_on_sampled_n4_pairs(symmetry):
    gts = gts_on(4)
    rng = random.Random(14)
    for _ in range(2000):
        i, j = rng.randrange(len(gts)), rng.randrange(len(gts))
        space = GbtSpace(gts[i].ground, gts[i], gts[j])
        key = canonical_index_key(4, *canonical_index_pair(4, i, j, symmetry))
        assert key == canonical_key(space, symmetry), (i, j)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("symmetry", ["perm", "perm+swap"])
def test_index_pair_of_key_inverts_canonical_index_key(n, symmetry):
    for i, j in canonical_pair_indices(n, symmetry):
        assert index_pair_of_key(canonical_index_key(n, i, j)) == (n, i, j)


@pytest.mark.parametrize(
    "key",
    [b"", b"\x00", b"\x02\x00", b"\x02\x00\x03", b"\x02\x00\x05\x00", b"\x05" + bytes(8), b"\x01\x00\x02"],
)
def test_index_pair_of_key_refuses_bytes_that_are_no_key(key):
    """Empty, no points, truncated, a family without a union, too long, five
    points, a set beyond the ground set."""
    with pytest.raises(ValueError, match="is not the key of a pair of generalized topologies"):
        index_pair_of_key(key)


def test_distinct_profiles_get_distinct_keys():
    from gbtlab.axioms import axiom_profile

    seen = {}
    for s in enumerate_gbt_pairs(2, "perm+swap"):
        key = canonical_key(s, "perm+swap")
        profile = tuple(axiom_profile(s).as_dict().items())
        seen.setdefault(key, profile)
        assert seen[key] == profile
