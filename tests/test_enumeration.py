from __future__ import annotations

import itertools

import pytest

from gbtlab.enumeration import (
    canonical_key,
    canonical_pair_indices,
    canonical_pair_encoding,
    enumerate_gbt_pairs,
    enumerate_gts,
    family_encoding,
    family_from_encoding,
    gt_mask_families,
    gts_on,
    pair_orbit_size,
    permute_space,
)
from gbtlab.gbt import make_space
from gbtlab.mining import canonical_space

from oracles import naive_enumerate_gt_families, orbit_classes


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
        encodings = [family_encoding(f) for f in gt_mask_families(n)]
        assert encodings == sorted(set(encodings))


def test_every_streamed_family_is_union_closed():
    for t in enumerate_gts(3):
        masks = set(t.opens)
        assert 0 in masks
        assert all(a | b in masks for a in masks for b in masks)


def test_family_encoding_roundtrip():
    for f in gt_mask_families(3):
        assert family_from_encoding(family_encoding(f), 3) == f


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


def test_canonical_space_roundtrip():
    for s in enumerate_gbt_pairs(2, "perm+swap"):
        key = canonical_key(s, "perm+swap")
        restored = canonical_space(key)
        assert restored.mu1.opens == s.mu1.opens
        assert restored.mu2.opens == s.mu2.opens


def test_representatives_are_canonical_and_unique():
    for symmetry in ("perm", "perm+swap"):
        seen = set()
        for s in enumerate_gbt_pairs(3, symmetry):
            e = (family_encoding(s.mu1.opens), family_encoding(s.mu2.opens))
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_counts_match_brute_force_orbits(n):
    families = gt_mask_families(n)
    index_of = {f: i for i, f in enumerate(families)}
    tables = []
    for perm in itertools.permutations(range(n)):
        table = {}
        for mask in range(1 << n):
            image = 0
            for b in range(n):
                if mask >> b & 1:
                    image |= 1 << perm[b]
            table[mask] = image
        tables.append(table)

    def gt_image(index, table):
        return index_of[tuple(sorted(table[m] for m in families[index]))]

    all_pairs = [(i, j) for i in range(len(families)) for j in range(len(families))]

    def perm_images(i, j):
        return [(gt_image(i, t), gt_image(j, t)) for t in tables]

    def swap_images(i, j):
        return perm_images(i, j) + [(b, a) for a, b in perm_images(i, j)]

    assert len(orbit_classes(all_pairs, perm_images)) == len(
        list(canonical_pair_indices(n, "perm"))
    )
    assert len(orbit_classes(all_pairs, swap_images)) == len(
        list(canonical_pair_indices(n, "perm+swap"))
    )


def test_distinct_profiles_get_distinct_keys():
    from gbtlab.axioms import axiom_profile

    seen = {}
    for s in enumerate_gbt_pairs(2, "perm+swap"):
        key = canonical_key(s, "perm+swap")
        profile = tuple(axiom_profile(s).as_dict().items())
        seen.setdefault(key, profile)
        assert seen[key] == profile
